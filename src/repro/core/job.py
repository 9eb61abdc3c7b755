"""The training-job core shared by S-Caffe and its comparators.

Every framework in Fig. 10 and Table 1 runs the same solver loop and
differs only in how solvers exchange parameters and gradients (a
reduction tree, a parameter server, ring allreduce, model-parallel
activation passing).  :class:`TrainingJob` owns everything that does
not vary: the run's fields, the report prologue and the OOM refusal,
spawning and running the simulator, the first-plus-steady-state
extrapolation, the root-actor phase breakdown, the input pipeline and
the whole-batch compute launches.

A framework supplies class data (``name``, ``phases``,
``phase_actors``, ``data_backend``, ``compute_scale``,
``data_parallel``) and up to three overrides:

``_refusal()``
    Capability check: ``(failure, notes)`` for a run the design cannot
    do, else None.  The default refuses a solver that does not fit in
    GPU memory.
``_spawn()``
    Start the rank or thread programs; return their processes.  The
    default runs ``_rank_program(ctx, backend)`` on every rank of an
    MPI ``runtime``'s COMM_WORLD.
``_finish(report, exc=None)``
    Additions to the finished (or refused) report; ``exc`` is an
    exception that escaped the simulator and propagates by default.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Tuple

from ..dnn import get_network
from ..hardware import Cluster
from ..io import DataLayer, DataReader, get_dataset, make_backend
from ..sim import Event, Process, Tracer
from .config import TrainConfig
from .metrics import TrainingReport
from .workload import Workload

__all__ = ["TrainingJob", "resolve_workload"]


def resolve_workload(cfg: TrainConfig,
                     workload: Optional[Workload] = None) -> Workload:
    """``workload``, or the cost-model workload of ``cfg.network``."""
    if workload is None:
        workload = Workload.from_spec(get_network(cfg.network))
    return workload


class TrainingJob:
    """One training run of some framework on a cluster slice."""

    #: Framework name in the report.
    name = ""
    #: Phases of the per-iteration breakdown, in report order.
    phases: Tuple[str, ...] = ("propagation", "fwd", "bwd", "aggregation",
                               "update")
    #: Tracer actors whose phase times sum into the breakdown.
    phase_actors: Tuple[str, ...] = ("r0",)
    #: Storage backend the readers pull from ("lmdb" or "lustre").
    data_backend = "lmdb"
    #: Kernel-time multiplier of the whole-batch fwd/bwd launches.
    compute_scale = 1.0
    #: Data parallel: the global batch is split over the solvers.
    #: Model parallel: the whole batch flows through every stage.
    data_parallel = True

    def __init__(self, cluster: Cluster, n_gpus: int, workload: Workload,
                 cfg: TrainConfig, tracer: Optional[Tracer] = None):
        self.cluster = cluster
        self.sim = cluster.sim
        self.cal = cluster.cal
        self.n_gpus = n_gpus
        self.workload = workload
        self.cfg = cfg
        self.tracer = tracer or Tracer(self.sim)
        self.local_batch = (cfg.local_batch(n_gpus) if self.data_parallel
                            else cfg.global_batch(1))
        self.sim_iterations = min(cfg.iterations, cfg.measure_iterations + 1)
        self._iter_ends: List[float] = []

    # -- orchestration ----------------------------------------------------------
    def run(self) -> TrainingReport:
        cfg = self.cfg
        report = TrainingReport(
            framework=self.name, network=self.workload.name,
            n_gpus=self.n_gpus, iterations=cfg.iterations, total_time=0.0,
            global_batch=(cfg.global_batch(self.n_gpus)
                          if self.data_parallel else self.local_batch))
        refusal = self._refusal()
        if refusal is not None:
            report.failure, report.notes = refusal
            return self._finish(report)

        procs = self._spawn()
        try:
            self.sim.run()
        except Exception as exc:
            return self._finish(report, exc)
        for p in procs:
            if not p.ok:  # pragma: no cover - defensive
                raise p.value

        report.total_time = self._extrapolated_total()
        report.simulated_time = self._iter_ends[-1]
        report.phase_breakdown = {
            phase: sum(self.tracer.total(phase, actor)
                       for actor in self.phase_actors) / self.sim_iterations
            for phase in self.phases}
        return self._finish(report)

    def _refusal(self) -> Optional[Tuple[str, str]]:
        return self._oom(self.workload.memory_per_solver(self.local_batch))

    def _spawn(self) -> List[Process]:
        comm = self.runtime.world(self.n_gpus)
        return self.runtime.spawn(comm, self._rank_program, self._backend())

    def _finish(self, report: TrainingReport,
                exc: Optional[BaseException] = None) -> TrainingReport:
        if exc is not None:
            raise exc
        return report

    def _oom(self, need: int) -> Optional[Tuple[str, str]]:
        """Refuse a solver needing ``need`` bytes of device memory.

        Fig. 8: "Missing data points are for the cases where solvers ran
        out of memory".
        """
        capacity = self.cluster.gpus[0].spec.memory_bytes
        if need > capacity:
            return "oom", (f"needs {need >> 20} MiB/GPU, "
                           f"capacity {capacity >> 20} MiB")
        return None

    # -- measured window ----------------------------------------------------------
    def _record_iter_end(self, it: int) -> None:
        # Index-assigned so iterations replayed after a rollback
        # overwrite their pre-crash timestamps.
        ends = self._iter_ends
        if it < len(ends):
            ends[it] = self.sim.now
        else:
            ends.append(self.sim.now)

    def _extrapolated_total(self) -> float:
        """Total time for cfg.iterations from the simulated window.

        The first iteration carries warmup (cold readers, first bcast);
        steady state is the mean of the remaining simulated iterations.
        """
        ends = self._iter_ends
        assert len(ends) == self.sim_iterations
        if self.cfg.iterations == len(ends):
            return ends[-1]
        first = ends[0]
        steady = ((ends[-1] - ends[0]) / (len(ends) - 1)
                  if len(ends) > 1 else first)
        return first + steady * (self.cfg.iterations - 1)

    # -- solver building blocks ---------------------------------------------------
    def _backend(self):
        return make_backend(self.data_backend, self.sim,
                            get_dataset(self.cfg.dataset), self.cal)

    def _data_layer(self, backend, batch_samples: int, name: str
                    ) -> DataLayer:
        """A reader thread named ``name`` and the queue it fills."""
        return DataLayer(DataReader(
            self.sim, backend, batch_samples=max(1, batch_samples),
            decode_bw=self.cal.decode_bw, name=name))

    def _input_batch(self, gpu, layer: Optional[DataLayer]
                     ) -> Generator[Event, Any, None]:
        """Pop the next batch from ``layer`` (None when another thread
        pops for this solver) and upload it to ``gpu``."""
        if layer is not None:
            yield from layer.next_batch()
        yield self.sim.timeout(self.cal.cuda_copy_overhead)
        yield from gpu.pcie_down.transfer(
            self.local_batch * self.workload.input_bytes_per_sample)

    def _fwd_bwd(self, cuda, gpu, actor: str) -> Generator[Event, Any, None]:
        """Whole-batch forward and backward passes on ``gpu``."""
        wl = self.workload
        lb = self.local_batch
        eff = self.cal.batch_efficiency(max(1, lb))
        tr = self.tracer
        # Scale before dividing: ``x * 1.0`` is exact, so the frameworks
        # without a scale keep their bit-identical ``x / eff`` times.
        tr.begin(actor, "fwd")
        yield from cuda.launch(
            gpu, flops=wl.fwd_flops_per_sample * lb * self.compute_scale
            / eff)
        tr.end(actor, "fwd")
        tr.begin(actor, "bwd")
        yield from cuda.launch(
            gpu, flops=wl.bwd_flops_per_sample * lb * self.compute_scale
            / eff)
        tr.end(actor, "bwd")

    def _apply_update(self, cuda, gpu, actor: str, param_bytes: int
                      ) -> Generator[Event, Any, None]:
        """ApplyUpdate: solver bookkeeping, then momentum SGD, which
        touches each parameter a handful of times."""
        self.tracer.begin(actor, "update")
        yield self.sim.timeout(self.cal.solver_iteration_overhead)
        yield from cuda.launch(gpu, flops=param_bytes)
        self.tracer.end(actor, "update")
