"""The benchmark's three workloads, each a fixed experiment list.

Every workload is built from ``--seed`` alone and reaches the program
only through its public entry points (``repro.train``,
``repro.core.run_scaffe``, ``repro.check.harness``, ``repro.obs``).
An experiment returns an :class:`Outcome`; it fails when it raises or
when its check does not hold, and a failure carries a command that
reproduces it.

``--seed`` feeds ``TrainConfig.seed``, ``Simulator(seed=...)`` and
``generate_matrix``.  Cluster A's default calibration is noise-free, so
the training workloads build it with a small seeded per-device
heterogeneity (:data:`STRAGGLER_SPREAD`, drawn once per link at cluster
build): the seed then moves simulated makespans by a fraction of a
percent while link trains stay eligible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

__all__ = ["STRAGGLER_SPREAD", "Outcome", "Experiment", "WORKLOADS",
           "make_workload"]

#: Persistent per-link bandwidth heterogeneity, uniform in [1, 1.05).
STRAGGLER_SPREAD = 0.05

#: Phases of the S-Caffe iteration reported as ``sim.phase.*``.
PHASES = ("propagation", "fwd", "bwd", "aggregation", "update")

MiB = 1 << 20

#: Payload cap of the conformance coverage-floor cases.  Uncapped, a few
#: 10-16 KiB draws at 64-byte chunks move the floor between 25k and 59k
#: events over seeds 1-10, ~7% of a pass's cost.
FLOOR_MAX_NBYTES = 4096


@dataclass
class Outcome:
    """What one experiment produced."""

    ok: bool
    #: Simulated seconds (training: ``total_time``; conformance: the
    #: case's simulated makespan).
    sim_s: float = 0.0
    events: int = 0
    retries: int = 0
    #: Failure description, including a reproduction command.
    detail: str = ""
    #: Exact simulated outputs the pass-to-pass determinism check
    #: compares (and the observer-neutrality check, for ``observed``).
    signature: tuple = ()
    #: Phase breakdown and I/O stall of a training report.
    phases: Dict[str, float] = field(default_factory=dict)
    io_stall_s: float = 0.0


@dataclass
class Experiment:
    #: Unique within a pass, e.g. ``scaffe.p32`` or ``case.017``.
    name: str
    #: Per-layer wall bucket, e.g. ``core.scaffe`` or ``check.nccl``.
    group: str
    run: Callable[[], Outcome]


def _retries(sim) -> int:
    if "transport.retries" not in sim.metrics:
        return 0
    return int(sim.metrics.get("transport.retries").total)


def _training_outcome(report, sim, repro: str) -> Outcome:
    sig = (report.total_time, report.simulated_time,
           tuple(sorted(report.phase_breakdown.items())),
           report.io_stall_per_iteration)
    return Outcome(ok=report.ok, sim_s=float(report.total_time),
                   events=sim.event_count, retries=_retries(sim),
                   detail="" if report.ok else
                   f"report not ok: {report.failure} ({report.notes}); "
                   f"repro: {repro}",
                   signature=sig,
                   phases={p: report.phase_breakdown.get(p, 0.0)
                           for p in PHASES},
                   io_stall_s=report.io_stall_per_iteration)


class _Training:
    """Shared cluster/config construction of ``train`` and ``observed``."""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def repro(self) -> str:
        return (f"python3 perfbench/run.py --workload {self.name} "
                f"--seed {self.seed} --seconds 1 --trace 0")

    def cluster(self):
        from repro import Simulator, make_cluster
        from repro.hardware.calibration import Calibration
        sim = Simulator(seed=self.seed)
        cal = Calibration(straggler_spread=STRAGGLER_SPREAD)
        return sim, make_cluster(sim, "A", cal=cal)

    def config(self, network: str, batch_size: int, scal: str):
        from repro import TrainConfig
        return TrainConfig(network=network, batch_size=batch_size,
                           scal=scal, variant="SC-OBR",
                           reduce_design="tuned", seed=self.seed)

    def scaffe_config(self):
        return self.config("googlenet", 64, "weak")

    def ready(self) -> None:
        """Imports, model zoo, tuning tables, first cluster build."""
        from repro.dnn import get_network
        from repro.tune import tables
        for net in ("googlenet", "alexnet"):
            get_network(net)
        for backend, coll in (("mv2gdr", "reduce"), ("nccl", "allreduce"),
                              ("nccl", "bcast")):
            tables.lookup(backend, coll, "16", 16, MiB)
        self.cluster()

    def prepare(self) -> None:
        pass


class TrainWorkload(_Training):
    """S-Caffe GoogLeNet weak scaling at 16/32/64 GPUs plus one point
    per comparator framework; no observers attached."""

    name = "train"
    #: (framework, GPUs, network, batch size, scaling)
    POINTS = (
        ("scaffe", 16, "googlenet", 64, "weak"),
        ("scaffe", 32, "googlenet", 64, "weak"),
        ("scaffe", 64, "googlenet", 64, "weak"),
        ("caffe", 16, "googlenet", 1024, "strong"),
        ("nvcaffe", 16, "googlenet", 1024, "strong"),
        ("cntk", 16, "googlenet", 1024, "strong"),
        ("inspur", 4, "googlenet", 1024, "strong"),
        ("mpicaffe", 4, "alexnet", 1024, "strong"),
    )

    def experiments(self) -> List[Experiment]:
        return [Experiment(f"{fw}.p{gpus}", f"core.{fw}",
                           self._point(fw, gpus, net, batch, scal))
                for fw, gpus, net, batch, scal in self.POINTS]

    def _point(self, fw, gpus, net, batch, scal):
        def run() -> Outcome:
            from repro import train
            sim, cluster = self.cluster()
            report = train(fw, n_gpus=gpus, cluster=cluster,
                           config=self.config(net, batch, scal))
            return _training_outcome(report, sim, self.repro())
        return run


class ObservedWorkload(_Training):
    """The 32-GPU S-Caffe point with SpanRecorder, TelemetrySession and
    Tracer attached, then the post-run work of ``repro profile --json``.

    Its simulated outputs must be bit-identical to the same point run
    without observers (observer neutrality); the unobserved reference
    is run once in :meth:`prepare`, outside every timed pass.
    """

    name = "observed"
    GPUS = 32

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.reference: Optional[tuple] = None

    def prepare(self) -> None:
        from repro.core import run_scaffe
        sim, cluster = self.cluster()
        report = run_scaffe(cluster, self.GPUS, self.scaffe_config())
        self.reference = _training_outcome(report, sim, "").signature

    def experiments(self) -> List[Experiment]:
        state: dict = {}

        def run() -> Outcome:
            from repro.core import run_scaffe
            from repro.prof import SpanRecorder
            from repro.sim import Tracer
            from repro.telemetry import TelemetrySession
            sim, cluster = self.cluster()
            recorder = SpanRecorder(sim)
            telemetry = TelemetrySession()
            cfg = self.scaffe_config()
            report = run_scaffe(cluster, self.GPUS, cfg,
                                recorder=recorder, telemetry=telemetry,
                                tracer=Tracer(sim))
            state.update(sim=sim, recorder=recorder, telemetry=telemetry,
                         cfg=cfg, report=report)
            out = _training_outcome(report, sim, self.repro())
            if out.ok and out.signature != self.reference:
                out.ok = False
                out.detail = ("observer neutrality broken: simulated "
                              f"outputs {out.signature!r} differ from the "
                              f"unobserved run {self.reference!r}; "
                              f"repro: {self.repro()}")
            return out

        def post() -> Outcome:
            from repro.obs import StragglerDetector, make_runcard, \
                run_payload
            report = state["report"]
            straggler = StragglerDetector(state["recorder"]).report()
            card = make_runcard(report, state["cfg"], cluster_kind="A",
                                n_gpus=self.GPUS, profile="mv2gdr",
                                seed=self.seed, sim=state["sim"],
                                telemetry=state["telemetry"])
            text = json.dumps(run_payload(card, report.profile, straggler),
                              indent=2, sort_keys=True)
            back = json.loads(text)["runcard"]["headline"]
            ok = back["total_time"] == report.total_time
            return Outcome(ok=ok, detail="" if ok else
                           "run payload headline does not round-trip "
                           f"the report's total_time; repro: {self.repro()}")

        return [Experiment(f"scaffe.p{self.GPUS}.observed", "core.scaffe",
                           run),
                Experiment("obs.post", "obs.post", post)]


class ConformanceWorkload:
    """Byte-exact conformance cases run one by one through ``run_case``.

    The list is the coverage floor of ``generate_matrix(seed)`` (every
    collective under every backend, with seeded P, root, size and
    chunking; sizes capped at :data:`FLOOR_MAX_NBYTES`), the fixed
    boundary cases, and a fixed slice of MPI and NCCL
    reduce/allreduce/bcast cases at 1-4 MiB, four of them under the
    ``drops`` fault.  The matrix's randomized rounds are left out: a
    handful of tiny-chunk draws there move the matrix's event count
    between 184k and 410k over seeds 1-10, which no run-to-run bound
    survives.
    """

    name = "conformance"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def large_slice(self):
        from repro.check.harness import Case
        s = self.seed
        return [
            Case("reduce_binomial", P=8, nbytes=4 * MiB, seed=s),
            Case("reduce_chain", P=8, nbytes=4 * MiB, seed=s),
            Case("hierarchical_reduce", P=16, nbytes=2 * MiB,
                 hr_config="CB-8", seed=s),
            Case("allreduce_ring", P=8, nbytes=4 * MiB, profile="mv2",
                 seed=s),
            Case("allreduce_reduce_bcast", P=8, nbytes=2 * MiB,
                 profile="openmpi", seed=s),
            Case("bcast_binomial", P=8, nbytes=4 * MiB, seed=s),
            Case("bcast_scatter_allgather", P=8, nbytes=2 * MiB,
                 profile="mv2", seed=s),
            Case("nccl_allreduce_ring", P=8, nbytes=4 * MiB,
                 profile="nccl", seed=s),
            Case("nccl_allreduce_tree", P=8, nbytes=2 * MiB,
                 profile="nccl", seed=s),
            Case("nccl_bcast_ring", P=8, nbytes=4 * MiB, profile="nccl",
                 seed=s),
            Case("nccl_bcast_tree", P=8, nbytes=MiB, profile="nccl",
                 seed=s),
            Case("reduce_binomial", P=8, nbytes=MiB, seed=s,
                 fault="drops"),
            Case("allreduce_ring", P=8, nbytes=MiB, profile="mv2", seed=s,
                 fault="drops"),
            Case("bcast_binomial", P=8, nbytes=MiB, profile="openmpi",
                 seed=s, fault="drops"),
            Case("nccl_allreduce_ring", P=8, nbytes=MiB, profile="nccl",
                 seed=s, fault="drops"),
        ]

    def cases(self):
        from repro.check.harness import (
            BOUNDARY_CASES, COLLECTIVES, generate_matrix,
        )
        from repro.mpi.profiles import profile_names
        floor = len(COLLECTIVES) * len(profile_names())
        matrix = [replace(c, nbytes=min(c.nbytes, FLOOR_MAX_NBYTES))
                  for c in generate_matrix(self.seed)[:floor]]
        matrix += list(BOUNDARY_CASES)
        return ([(c, f"check.{c.profile}") for c in matrix]
                + [(c, "check.large") for c in self.large_slice()])

    def ready(self) -> None:
        from repro.hardware import cluster_a
        from repro.sim import Simulator
        self._cases = self.cases()
        cluster_a(Simulator(seed=self.seed), n_nodes=1)

    def prepare(self) -> None:
        pass

    def experiments(self) -> List[Experiment]:
        return [Experiment(f"case.{i:03d}", group, self._case(case))
                for i, (case, group) in enumerate(self._cases)]

    @staticmethod
    def _case(case):
        def run() -> Outcome:
            from repro.check.harness import run_case
            res = run_case(case)
            detail = ""
            if not res.ok:
                detail = (f"{case.spec()}: {'; '.join(res.failures)}; "
                          f"repro: {case.repro_command()}")
            return Outcome(ok=res.ok, sim_s=float(res.sim_time),
                           events=res.n_events,
                           retries=int(res.pvars.get("transport.retries",
                                                     0)),
                           detail=detail,
                           signature=(res.sim_time, res.n_events))
        return run


WORKLOADS = {w.name: w for w in (TrainWorkload, ObservedWorkload,
                                 ConformanceWorkload)}


def make_workload(name: str, seed: int):
    return WORKLOADS[name](seed)
