"""MPI-Caffe comparator: model-parallel training (Table 1's MP row).

MPI-Caffe (Lee et al. 2015) distributes the *network*, not the data:
layers are partitioned across ranks, activations flow forward through
the pipeline cuts and activation-gradients flow back — so weights never
travel between iterations (each rank updates its own slice locally).
Per Table 1 it uses basic MPI without CUDA-awareness, so every cut
tensor stages through pageable host memory.

The design's weakness, and the reason Section 3.1 chooses data
parallelism: without micro-batch pipelining the stages execute strictly
one after another — P GPUs deliver at most one GPU's throughput plus
communication, regardless of scale.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from ..hardware import Cluster
from ..mpi import MPIRuntime, MPIProfile, MV2, RankContext
from ..sim import Event, Tracer
from .config import TrainConfig
from .job import TrainingJob, resolve_workload
from .metrics import TrainingReport
from .workload import Workload

__all__ = ["MPICaffeJob", "run_mpi_caffe", "partition_groups"]

#: Basic MPI, no CUDA-awareness (Table 1): pageable host staging.
MPI_CAFFE_PROFILE = MV2.derive(name="mpi-caffe", gdr=False, ipc=False,
                               pinned_staging=False)


def partition_groups(n_groups: int, n_stages: int) -> List[range]:
    """Contiguous, load-balanced partition of group indices into stages.

    Every stage gets at least one group; ``n_stages`` may not exceed
    ``n_groups``.
    """
    if n_stages < 1:
        raise ValueError("n_stages must be >= 1")
    if n_stages > n_groups:
        raise ValueError(
            f"cannot split {n_groups} weighted layers over {n_stages} "
            "ranks (model parallelism is bounded by network depth)")
    base = n_groups // n_stages
    extra = n_groups % n_stages
    out = []
    start = 0
    for s in range(n_stages):
        size = base + (1 if s < extra else 0)
        out.append(range(start, start + size))
        start += size
    return out


class MPICaffeJob(TrainingJob):
    """Layer-partitioned (model-parallel) training."""

    name = "MPI-Caffe"
    phases = ("fwd", "bwd", "activation_comm", "update")
    data_parallel = False

    def __init__(self, cluster: Cluster, n_gpus: int, workload: Workload,
                 cfg: TrainConfig, *,
                 profile: MPIProfile = MPI_CAFFE_PROFILE,
                 tracer: Optional[Tracer] = None):
        self.runtime = MPIRuntime(cluster, profile)
        super().__init__(cluster, n_gpus, workload, cfg, tracer)

    def _refusal(self):
        wl = self.workload
        try:
            partition_groups(len(wl.groups), self.n_gpus)
        except ValueError as exc:
            return "unsupported", str(exc)
        # Memory: each stage holds its slice of weights + the batch's
        # activations for its layers (approximated as its share).
        return self._oom(3 * wl.param_bytes // self.n_gpus
                         + self.local_batch
                         * (wl.activation_bytes_per_sample // self.n_gpus
                            + wl.input_bytes_per_sample))

    def _rank_program(self, ctx: RankContext, backend
                      ) -> Generator[Event, Any, None]:
        wl = self.workload
        me = ctx.rank
        P = ctx.size
        groups = wl.groups
        mine = partition_groups(len(groups), P)[me]
        lb = self.local_batch
        eff = self.cal.batch_efficiency(max(1, lb))
        tr = self.tracer
        actor = f"r{me}"

        # This stage's weights (updated locally; never communicated).
        my_param_bytes = sum(groups[g].param_bytes for g in mine)
        from ..cuda import DeviceBuffer
        weights = DeviceBuffer(ctx.gpu, 3 * my_param_bytes, name="stage.w")
        # Activation staging buffers sized for the largest cut.
        cut_in = (groups[mine[0] - 1].out_activation_bytes * lb
                  if me > 0 else 0)
        cut_out = (groups[mine[-1]].out_activation_bytes * lb
                   if me < P - 1 else 0)
        act_in = DeviceBuffer(ctx.gpu, max(4, cut_in), name="act.in")
        act_out = DeviceBuffer(ctx.gpu, max(4, cut_out), name="act.out")

        layer = (self._data_layer(backend, lb, "mpicaffe.reader")
                 if me == 0 else None)
        yield from ctx.barrier()

        fwd_flops = sum(groups[g].fwd_flops_per_sample for g in mine)
        bwd_flops = sum(groups[g].bwd_flops_per_sample for g in mine)
        try:
            for it in range(self.sim_iterations):
                tag = 50 + (it % 50) * 4
                # ---- forward sweep -------------------------------------
                if me == 0:
                    yield from self._input_batch(ctx.gpu, layer)
                else:
                    tr.begin(actor, "activation_comm")
                    yield from ctx.recv(me - 1, act_in, tag=tag)
                    tr.end(actor, "activation_comm")
                tr.begin(actor, "fwd")
                yield from ctx.cuda.launch(ctx.gpu,
                                           flops=fwd_flops * lb / eff)
                tr.end(actor, "fwd")
                if me < P - 1:
                    tr.begin(actor, "activation_comm")
                    yield from ctx.send(me + 1, act_out, tag=tag,
                                        nbytes=cut_out)
                    tr.end(actor, "activation_comm")

                # ---- backward sweep ----------------------------------------
                if me < P - 1:
                    tr.begin(actor, "activation_comm")
                    yield from ctx.recv(me + 1, act_out, tag=tag + 1)
                    tr.end(actor, "activation_comm")
                tr.begin(actor, "bwd")
                yield from ctx.cuda.launch(ctx.gpu,
                                           flops=bwd_flops * lb / eff)
                tr.end(actor, "bwd")
                if me > 0:
                    tr.begin(actor, "activation_comm")
                    yield from ctx.send(me - 1, act_in, tag=tag + 1,
                                        nbytes=cut_in)
                    tr.end(actor, "activation_comm")

                # ---- local weight update (no gradient exchange) ------------
                yield from self._apply_update(ctx.cuda, ctx.gpu, actor,
                                              my_param_bytes)
                if me == 0:
                    self._record_iter_end(it)
        finally:
            if layer is not None:
                layer.reader.stop()
            weights.free()
            act_in.free()
            act_out.free()


def run_mpi_caffe(cluster: Cluster, n_gpus: int, cfg: TrainConfig, *,
                  workload: Optional[Workload] = None,
                  tracer: Optional[Tracer] = None) -> TrainingReport:
    return MPICaffeJob(cluster, n_gpus, resolve_workload(cfg, workload), cfg,
                       tracer=tracer).run()
