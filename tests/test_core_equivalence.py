"""End-to-end numerical equivalence: distributed S-Caffe == sequential SGD.

The paper's validation (Section 6.2): "We observed no difference in
accuracy between Caffe and S-Caffe ... the decrease in loss was similar
to the multi-GPU training of Caffe."  Here we prove the stronger claim
the design implies: with synchronous gradient aggregation, the root
solver's parameter trajectory is *identical* (to float32 reduction
noise) to single-solver large-batch SGD — through the full simulated
MPI stack, for every co-design variant.
"""

import numpy as np
import pytest

from repro.core import SCaffeJob, TrainConfig, Workload
from repro.core.workload import RealCompute
from repro.dnn import SGDSolver, SolverConfig, build_mlp
from repro.hardware import cluster_a
from repro.sim import Simulator


def make_adapter(n_ranks, global_batch=None, seed=0):
    global_batch = global_batch or 4 * n_ranks
    rng = np.random.default_rng(seed)
    master = build_mlp([6, 8, 3], rng=np.random.default_rng(100))
    x = rng.standard_normal((64, 6))
    labels = rng.integers(0, 3, 64)
    return RealCompute(master, x, labels, global_batch=global_batch,
                       n_ranks=n_ranks,
                       solver_config=SolverConfig(base_lr=0.1))


def reference_trajectory(adapter, iterations):
    """Single-solver large-batch SGD on the same batch schedule."""
    solver = SGDSolver(adapter.master.clone(),
                       SolverConfig(base_lr=0.1))
    n = adapter.x.shape[0]
    gb = adapter.global_batch
    for it in range(iterations):
        start = (it * gb) % n
        idx = [(start + i) % n for i in range(gb)]
        solver.compute_gradients(adapter.x[idx], adapter.labels[idx])
        solver.apply_update()
    return solver.net.get_params()


def run_distributed(variant, n_ranks, iterations, reduce_design="tuned"):
    sim = Simulator()
    cluster = cluster_a(sim, n_nodes=1)
    adapter = make_adapter(n_ranks)
    workload = Workload.from_net(adapter.master)
    cfg = TrainConfig(network="mlp", dataset="mnist",
                      batch_size=adapter.global_batch,
                      iterations=iterations,
                      measure_iterations=iterations - 1 or 1,
                      variant=variant, reduce_design=reduce_design)
    job = SCaffeJob(cluster, n_ranks, workload, cfg, adapter=adapter)
    report = job.run()
    assert report.ok
    return adapter, report


@pytest.mark.parametrize("variant", ["SC-B", "SC-OB", "SC-OBR"])
def test_variant_matches_sequential_sgd(variant):
    iterations = 4
    adapter, _ = run_distributed(variant, n_ranks=4, iterations=iterations)
    expected = reference_trajectory(make_adapter(4), iterations)
    got = adapter.get_params(0)
    np.testing.assert_allclose(got, expected, rtol=1e-4, atol=1e-6)


@pytest.mark.parametrize("n_ranks", [2, 3, 8])
def test_rank_counts(n_ranks):
    adapter, _ = run_distributed("SC-B", n_ranks=n_ranks, iterations=3,
                                 reduce_design="flat")
    ref_adapter = make_adapter(n_ranks)
    expected = reference_trajectory(ref_adapter, 3)
    np.testing.assert_allclose(adapter.get_params(0), expected,
                               rtol=1e-4, atol=1e-6)


@pytest.mark.parametrize("reduce_design", ["flat", "binomial", "chain",
                                           "tuned", "CB-4", "CC-4"])
def test_reduce_designs_agree(reduce_design):
    """Every reduction algorithm yields the same training trajectory."""
    adapter, _ = run_distributed("SC-OBR", n_ranks=8, iterations=3,
                                 reduce_design=reduce_design)
    expected = reference_trajectory(make_adapter(8), 3)
    np.testing.assert_allclose(adapter.get_params(0), expected,
                               rtol=1e-4, atol=1e-6)


def test_workers_receive_updated_params():
    """Non-root solvers see the root's updated parameters through the
    per-layer broadcasts of the following iteration."""
    adapter, _ = run_distributed("SC-OB", n_ranks=4, iterations=3)
    root = adapter.get_params(0)
    for r in range(1, 4):
        worker = adapter.get_params(r)
        # Workers lag the root by exactly one update (they receive at
        # the start of the NEXT iteration, which never came after the
        # last one). They must match the root's pre-final-update state
        # in float32 precision -- here we just require they track the
        # trajectory closely rather than diverging.
        assert np.linalg.norm(worker - root) < 1.0


def test_loss_decreases_through_distributed_training():
    sim = Simulator()
    cluster = cluster_a(sim, n_nodes=1)
    adapter = make_adapter(4)
    first = adapter.compute_gradients(0, 0)
    workload = Workload.from_net(adapter.master)
    cfg = TrainConfig(network="mlp", dataset="mnist", batch_size=16,
                      iterations=10, measure_iterations=9,
                      variant="SC-OBR")
    SCaffeJob(cluster, 4, workload, cfg, adapter=adapter).run()
    last = adapter.solvers[0].compute_gradients(
        *adapter.batch_rows(0, 0), global_batch=16)
    assert last < first
