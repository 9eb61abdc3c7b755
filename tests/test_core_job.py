"""The shared training-job core: golden pins, report completeness,
up-front refusals and the ``train()`` dispatch table.

Golden pins:

Every framework entry point runs on a small grid (cifar10_quick, two
measured iterations) and its simulated outputs are compared exactly
with literals captured from the per-framework job classes the core
replaced: total time, per-phase breakdown, global batch, failure,
notes, and the number of simulator events.  Any change to the order of
simulator calls in a rank program moves at least the event count.

This grid is also the only coverage of MPI-Caffe, the asynchronous
parameter server and 1-bit CNTK that the figure benches do not give.
"""

import re

import pytest

from repro import TrainConfig
from repro.cli import build_parser
from repro.core import (
    FRAMEWORK_NAMES, run_caffe, run_cntk, run_mpi_caffe, run_param_server,
    run_scaffe, train,
)
from repro.hardware import make_cluster
from repro.sim import Simulator

CFG = TrainConfig(network="cifar10_quick", dataset="cifar10",
                  batch_size=256, iterations=20, measure_iterations=2)

#: name -> (runner(cluster) -> TrainingReport)
POINTS = {
    **{f"scaffe {v}": (lambda v: lambda c: run_scaffe(
        c, 8, CFG.derive(variant=v)))(v)
       for v in ("SC-B", "SC-OB", "SC-OB-naive", "SC-OBR")},
    "caffe": lambda c: run_caffe(c, 4, CFG),
    "nvcaffe": lambda c: run_caffe(c, 4, CFG, optimized=True),
    "cntk 32-bit": lambda c: run_cntk(c, 4, CFG),
    "cntk 1-bit": lambda c: run_cntk(c, 4, CFG, quantization_bits=1),
    "inspur sync": lambda c: run_param_server(c, 4, CFG),
    "inspur async": lambda c: run_param_server(c, 4, CFG, mode="async"),
    "mpicaffe": lambda c: run_mpi_caffe(c, 4, CFG),
    # Refusal paths: nothing is simulated.
    "caffe above one node": lambda c: run_caffe(c, 32, CFG),
    "inspur hang": lambda c: run_param_server(c, 8, CFG),
    "inspur unsupported": lambda c: run_param_server(c, 1, CFG),
    "mpicaffe depth bound": lambda c: run_mpi_caffe(c, 8, CFG),
    "scaffe oom": lambda c: run_scaffe(
        c, 2, CFG.derive(scal="weak", batch_size=65536)),
}

#: name -> (total_time, phase_breakdown, global_batch, failure, notes,
#: sim.event_count)
GOLDEN = {
    'caffe': (
        0.18523241695238085,
        {'propagation': 0.00013705199999999908,
         'fwd': 0.0016102176838095235,
         'bwd': 0.003212435367619047,
         'aggregation': 0.00017634447999999997,
         'update': 0.004008554582857142},
        256, None, '', 168),
    'caffe above one node': (
        0.0,
        {},
        256, 'unsupported', 'single-process design limited to 16 GPUs/node', 0),
    'cntk 1-bit': (
        0.1848887439523807,
        {'fwd': 0.0016102176838095235,
         'bwd': 0.003212435367619047,
         'aggregation': 0.00031072695333332303,
         'update': 0.004008554582857142},
        256, None, '', 1033),
    'cntk 32-bit': (
        0.19384400261904708,
        {'fwd': 0.0016102176838095235,
         'bwd': 0.003212435367619048,
         'aggregation': 0.0007584893577777573,
         'update': 0.004008554582857143},
        256, None, '', 944),
    'inspur async': (
        0.10161550415238094,
        {'fwd': 0.0,
         'bwd': 0.0,
         'aggregation': 5.893872000000116e-05,
         'update': 2.566374857143009e-05,
         'propagation': 0.0},
        192, None, 'dedicated server on rank 0; stale updates', 192),
    'inspur hang': (
        0.0,
        {},
        256, 'hang', 'execution hangs after a few iterations (Section 6.4)', 0),
    'inspur sync': (
        0.18792343375238085,
        {'fwd': 0.0016102176838095235,
         'bwd': 0.003212435367619047,
         'aggregation': 0.0002778500533333333,
         'update': 0.004008554582857143,
         'propagation': 0.00020557799999999793},
        256, None, '', 255),
    'inspur unsupported': (
        0.0,
        {},
        256, 'unsupported', 'comparator only ran at 2 and 4 GPUs', 0),
    'mpicaffe': (
        0.5227698578285721,
        {'fwd': 0.004474746514285714,
         'bwd': 0.008941493028571432,
         'activation_comm': 0.008393669104761926,
         'update': 0.004008106910476192},
        256, None, '', 253),
    'mpicaffe depth bound': (
        0.0,
        {},
        256, 'unsupported', ('cannot split 5 weighted layers over 8 ranks '
         '(model parallelism is bounded by network depth)'), 0),
    'nvcaffe': (
        0.17850310268038086,
        {'propagation': 0.00013705199999999908,
         'fwd': 0.001498062445942857,
         'bwd': 0.002988124891885714,
         'aggregation': 0.00017634447999999997,
         'update': 0.004008554582857142},
        256, None, '', 168),
    'scaffe SC-B': (
        0.15235529234285716,
        {'propagation': 0.0002055779999999989,
         'fwd': 0.0010132328914285742,
         'bwd': 0.0017044657828571427,
         'aggregation': 0.0006485755377777773,
         'update': 0.004008554582857143,
         'test': 0.0},
        256, None, '', 720),
    'scaffe SC-OB': (
        0.1484394427428572,
        {'propagation': 0.0,
         'fwd': 0.0010132328914285742,
         'bwd': 0.0017044657828571427,
         'aggregation': 0.0006408554577777777,
         'update': 0.004008554582857143,
         'test': 0.0},
        256, None, '', 1088),
    'scaffe SC-OB-naive': (
        0.1486192499428572,
        {'propagation': 0.0,
         'fwd': 0.0010132328914285752,
         'bwd': 0.0017044657828571427,
         'aggregation': 0.0006536640177777761,
         'update': 0.004008554582857143,
         'test': 0.0},
        256, None, '', 1086),
    'scaffe SC-OBR': (
        0.15079284575619056,
        {'propagation': 0.0,
         'fwd': 0.0010132328914285742,
         'bwd': 0.0018614657828571457,
         'aggregation': 0.0024341926120634923,
         'update': 0.004008554582857143,
         'test': 0.0},
        256, None, '', 1804),
    'scaffe oom': (
        0.0,
        {},
        131072, 'oom', 'needs 19990 MiB/GPU, capacity 12288 MiB', 0),
}


def _observe(name):
    cluster = make_cluster(Simulator(), "A")
    r = POINTS[name](cluster)
    return (r.total_time, r.phase_breakdown, r.global_batch, r.failure,
            r.notes, cluster.sim.event_count)


@pytest.mark.parametrize("name", sorted(POINTS))
def test_golden_point(name):
    got = _observe(name)
    assert got == GOLDEN[name]
    assert list(got[1]) == list(GOLDEN[name][1])  # phase order too


class TestReportCompleteness:
    @pytest.mark.parametrize("fw", FRAMEWORK_NAMES)
    def test_simulated_time_is_last_iteration_end(self, fw):
        # Three iterations, all simulated: nothing is extrapolated, so
        # the report's total is exactly the simulated span.
        cfg = CFG.derive(iterations=3)
        r = train(fw, n_gpus=4, cluster="A", config=cfg)
        assert r.ok
        assert r.simulated_time == r.total_time > 0

    @pytest.mark.parametrize("fw", FRAMEWORK_NAMES)
    def test_oom_refusal_says_how_much(self, fw):
        cfg = CFG.derive(scal="weak", batch_size=131072)
        r = train(fw, n_gpus=2, cluster="A", config=cfg)
        assert r.failure == "oom"
        assert re.fullmatch(r"needs \d+ MiB/GPU, capacity 12288 MiB",
                            r.notes), r.notes


def test_async_parameter_server_needs_two_ranks():
    cluster = make_cluster(Simulator(), "A")
    r = run_param_server(cluster, 1, CFG, mode="async",
                         emulate_limits=False)
    assert r.failure == "unsupported"
    assert ">= 2 ranks" in r.notes
    assert cluster.sim.event_count == 0


class TestTrainDispatch:
    @pytest.mark.parametrize("fw", FRAMEWORK_NAMES[1:])
    @pytest.mark.parametrize("arg", ["adapter", "recorder", "telemetry"])
    def test_s_caffe_only_arguments_refused(self, fw, arg):
        with pytest.raises(ValueError, match=f"{arg} only apply to S-Caffe"):
            train(fw, n_gpus=2, config=CFG, **{arg: object()})

    @pytest.mark.parametrize("spelling,framework", [
        ("S-Caffe", "S-Caffe (SC-OBR)"), ("s", "S-Caffe (SC-OBR)"),
        ("NVIDIA_Caffe", "NV-Caffe"), ("Inspur-Caffe", "Inspur-Caffe"),
        ("param_server", "Inspur-Caffe"), ("PS", "Inspur-Caffe"),
        ("model-parallel", "MPI-Caffe"), ("MP", "MPI-Caffe"),
    ])
    def test_aliases(self, spelling, framework):
        cfg = CFG.derive(iterations=2)
        r = train(spelling, n_gpus=2, cluster="A", config=cfg)
        assert r.framework == framework

    def test_cli_offers_every_framework(self):
        parser = build_parser()
        for fw in FRAMEWORK_NAMES:
            assert parser.parse_args(["train", "--framework", fw]
                                     ).framework == fw
        with pytest.raises(SystemExit):
            parser.parse_args(["train", "--framework", "tensorflow"])
