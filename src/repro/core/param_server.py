"""Parameter-server baseline (the Inspur-Caffe design, Sections 3.1, 7).

A classical master-worker data-parallel design: every worker trains a
shard, ships its full gradient buffer to the server (GPU 0), which
aggregates serially as contributions arrive, applies the update, and
ships fresh parameters back to every worker.  The single aggregation
point is the scalability bottleneck the paper argues against.

Fidelity notes, per Section 6.4: Inspur-Caffe "didn't run for less than
2 GPUs", and "the execution hangs after completing a few iterations"
for counts other than 2 and 4; it never ran past 16 processes.  Those
observed behaviours are modeled as capability outcomes so Fig. 10 shows
the same missing bars.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..hardware import Cluster
from ..mpi import MPIRuntime, MPIProfile, MV2, RankContext
from ..sim import Event, Tracer
from .config import TrainConfig
from .job import TrainingJob, resolve_workload
from .metrics import TrainingReport
from .workload import SolverBuffers, Workload

__all__ = ["ParameterServerJob", "run_param_server"]

#: GPU counts the real comparator ran at (Fig. 10).
WORKING_COUNTS = {2, 4}
#: Counts where the real comparator hung after a few iterations.
HANGING_COUNTS = {8, 16}


class ParameterServerJob(TrainingJob):
    """Parameter-server training (Inspur-Caffe-like).

    ``mode="sync"`` is the synchronous master-worker pattern of
    Section 3.1; ``mode="async"`` models Inspur-Caffe's actual design
    per Section 7 — "an MPI-based Caffe fork that exploits [the]
    parameter-server approach with *stale asynchronous gradient
    updates*": rank 0 becomes a dedicated server that applies each
    worker's gradient the moment it arrives (no barrier), so workers
    train on parameters that may be several updates stale.
    """

    phases = ("fwd", "bwd", "aggregation", "update", "propagation")

    def __init__(self, cluster: Cluster, n_gpus: int, workload: Workload,
                 cfg: TrainConfig, *, profile: MPIProfile | str = MV2,
                 tracer: Optional[Tracer] = None,
                 emulate_limits: bool = True, mode: str = "sync"):
        if mode not in ("sync", "async"):
            raise ValueError(f"mode must be sync|async, got {mode!r}")
        self.runtime = MPIRuntime(cluster, profile)
        super().__init__(cluster, n_gpus, workload, cfg, tracer)
        self.emulate_limits = emulate_limits
        self.mode = mode

    @property
    def name(self) -> str:
        return ("Inspur-Caffe" if self.mode == "sync"
                else "Inspur-Caffe (async)")

    def _refusal(self):
        if self.emulate_limits:
            if self.n_gpus in HANGING_COUNTS:
                return "hang", ("execution hangs after a few iterations "
                                "(Section 6.4)")
            if self.n_gpus not in WORKING_COUNTS:
                return "unsupported", "comparator only ran at 2 and 4 GPUs"
        if self.mode == "async" and self.n_gpus < 2:
            return "unsupported", ("async parameter server needs >= 2 "
                                   "ranks (rank 0 only serves)")
        return super()._refusal()

    def _rank_program(self, ctx: RankContext, backend
                      ) -> Generator[Event, Any, None]:
        program = (self._sync_program if self.mode == "sync"
                   else self._async_program)
        return program(ctx, backend)

    def _finish(self, report, exc=None):
        if self.mode == "async" and report.ok and exc is None:
            # Rank 0 is a dedicated server: only P-1 GPUs train.
            report.global_batch = self.local_batch * (self.n_gpus - 1)
            report.notes = "dedicated server on rank 0; stale updates"
        return super()._finish(report, exc)

    def _sync_program(self, ctx: RankContext, backend
                      ) -> Generator[Event, Any, None]:
        """Rank 0 doubles as the server (a GPU 'taken away' from
        training is exactly the design critique of Section 3.1 — here
        the server also trains, matching Inspur's synchronous mode, but
        every gradient funnels through its NIC/PCIe)."""
        wl = self.workload
        me = ctx.rank
        P = ctx.size
        lb = self.local_batch
        tr = self.tracer
        actor = f"r{me}"

        buffers = SolverBuffers(wl, ctx.gpu, per_group_params=False, per_group_grads=False,
                                with_payload=False)
        scratch = (ctx.scratch_like(buffers.packed_grads, "ps.rx")
                   if me == 0 else None)
        extra = lb * (wl.activation_bytes_per_sample
                      + wl.input_bytes_per_sample)
        ctx.gpu.reserve(extra)
        layer = self._data_layer(backend, lb, f"{actor}.reader")
        yield from ctx.barrier()

        try:
            for it in range(self.sim_iterations):
                yield from self._input_batch(ctx.gpu, layer)
                yield from self._fwd_bwd(ctx.cuda, ctx.gpu, actor)

                tag = 100 + it % 100
                if me == 0:
                    tr.begin(actor, "aggregation")
                    # Serial aggregation: the master bottleneck.
                    for src in range(1, P):
                        yield from ctx.recv(src, scratch, tag=tag)
                        yield from ctx.cuda.reduce_kernel(
                            buffers.packed_grads, scratch)
                    tr.end(actor, "aggregation")
                    yield from self._apply_update(ctx.cuda, ctx.gpu, actor,
                                                  wl.param_bytes)
                    tr.begin(actor, "propagation")
                    reqs = [ctx.isend(dst, buffers.packed_params,
                                      tag=tag + 1000)
                            for dst in range(1, P)]
                    for r in reqs:
                        yield r.wait()
                    tr.end(actor, "propagation")
                    self._record_iter_end(it)
                else:
                    yield from ctx.send(0, buffers.packed_grads, tag=tag)
                    yield from ctx.recv(0, buffers.packed_params,
                                        tag=tag + 1000)
        finally:
            layer.reader.stop()
            buffers.free()
            if scratch is not None:
                scratch.free()
            ctx.gpu.unreserve(extra)

    def _async_program(self, ctx: RankContext, backend
                       ) -> Generator[Event, Any, None]:
        """Asynchronous mode: rank 0 is a *dedicated* server (one GPU
        taken away from training — the Section 3.1 critique); workers
        never wait for each other, and each gradient is applied on
        arrival (stale updates)."""
        from ..mpi.request import ANY_SOURCE
        wl = self.workload
        me = ctx.rank
        P = ctx.size
        tr = self.tracer
        actor = f"r{me}"
        GRAD_TAG, PARAM_TAG = 11, 13

        buffers = SolverBuffers(wl, ctx.gpu, per_group_params=False,
                                per_group_grads=False, with_payload=False)
        try:
            if me == 0:
                scratch = ctx.scratch_like(buffers.packed_grads, "ps.rx")
                try:
                    total_updates = (P - 1) * self.sim_iterations
                    replies = []
                    for _ in range(total_updates):
                        st = yield from ctx.recv(ANY_SOURCE, scratch,
                                                 tag=GRAD_TAG)
                        tr.begin(actor, "aggregation")
                        yield from ctx.cuda.reduce_kernel(
                            buffers.packed_grads, scratch)
                        tr.end(actor, "aggregation")
                        tr.begin(actor, "update")
                        yield from ctx.cuda.launch(ctx.gpu,
                                                   flops=wl.param_bytes)
                        tr.end(actor, "update")
                        replies.append(ctx.isend(
                            st.source, buffers.packed_params,
                            tag=PARAM_TAG))
                    for r in replies:
                        yield r.wait()
                finally:
                    scratch.free()
            else:
                layer = self._data_layer(backend, self.local_batch,
                                         f"{actor}.reader")
                try:
                    for it in range(self.sim_iterations):
                        yield from self._input_batch(ctx.gpu, layer)
                        yield from self._fwd_bwd(ctx.cuda, ctx.gpu, actor)
                        yield from ctx.send(0, buffers.packed_grads,
                                            tag=GRAD_TAG)
                        yield from ctx.recv(0, buffers.packed_params,
                                            tag=PARAM_TAG)
                        if me == 1:
                            self._record_iter_end(it)
                finally:
                    layer.reader.stop()
        finally:
            buffers.free()


def run_param_server(cluster: Cluster, n_gpus: int, cfg: TrainConfig, *,
                     workload: Optional[Workload] = None,
                     emulate_limits: bool = True, mode: str = "sync",
                     tracer: Optional[Tracer] = None) -> TrainingReport:
    return ParameterServerJob(cluster, n_gpus,
                              resolve_workload(cfg, workload), cfg,
                              tracer=tracer, mode=mode,
                              emulate_limits=emulate_limits).run()
