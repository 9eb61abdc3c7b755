"""CNTK-like comparator: MPI data-parallel workers with allreduce.

Microsoft CNTK's 32-bit SGD design (Section 6.4) synchronizes workers
with MPI-based gradient exchange and applies the update on every worker
— no root solver, no broadcast.  Per Table 1 it does *not* use
CUDA-aware MPI, so gradients stage through host memory; the ring
allreduce's bandwidth-optimality is what keeps it competitive with
S-Caffe in Fig. 10 despite that.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..hardware import Cluster
from ..mpi import MPIRuntime, MPIProfile, MV2, RankContext
from ..mpi.collectives import allreduce_ring
from ..sim import Event, Tracer
from .config import TrainConfig
from .job import TrainingJob, resolve_workload
from .metrics import TrainingReport
from .workload import SolverBuffers, Workload

__all__ = ["CNTKJob", "run_cntk"]

#: CNTK ships gradients through pageable host staging (no CUDA-aware
#: MPI, Table 1): host-staged pipelining, CPU-side reduction arithmetic.
CNTK_PROFILE = MV2.derive(name="cntk-mpi", gdr=False, ipc=False)


class CNTKJob(TrainingJob):
    """Allreduce-everywhere data-parallel training."""

    phases = ("fwd", "bwd", "aggregation", "update")
    data_backend = "lustre"

    def __init__(self, cluster: Cluster, n_gpus: int, workload: Workload,
                 cfg: TrainConfig, *,
                 profile: MPIProfile = CNTK_PROFILE,
                 quantization_bits: int = 32,
                 tracer: Optional[Tracer] = None):
        if quantization_bits not in (1, 32):
            raise ValueError("CNTK supports 1-bit or 32-bit SGD")
        self.quantization_bits = quantization_bits
        self.runtime = MPIRuntime(cluster, profile)
        super().__init__(cluster, n_gpus, workload, cfg, tracer)

    @property
    def name(self) -> str:
        return ("CNTK" if self.quantization_bits == 32
                else "CNTK (1-bit SGD)")

    def _rank_program(self, ctx: RankContext, backend
                      ) -> Generator[Event, Any, None]:
        wl = self.workload
        lb = self.local_batch
        tr = self.tracer
        actor = f"r{ctx.rank}"

        buffers = SolverBuffers(wl, ctx.gpu, per_group_params=False, per_group_grads=False,
                                with_payload=False)
        result = ctx.scratch_like(buffers.packed_grads, "cntk.sum")
        # 1-bit SGD: the allreduce moves packed sign bits (+levels), not
        # float32 gradients; quantize/dequantize kernels bracket it.
        from ..cuda import DeviceBuffer
        from ..dnn.quantization import quantized_nbytes
        wire = None
        wire_sum = None
        if self.quantization_bits == 1:
            qbytes = quantized_nbytes(wl.param_bytes // 4, bits=1)
            wire = DeviceBuffer(ctx.gpu, qbytes, name="cntk.q")
            wire_sum = DeviceBuffer(ctx.gpu, qbytes, name="cntk.qsum")
        extra = lb * (wl.activation_bytes_per_sample
                      + wl.input_bytes_per_sample)
        ctx.gpu.reserve(extra)
        layer = self._data_layer(backend, lb, f"{actor}.reader")
        yield from ctx.barrier()

        try:
            for it in range(self.sim_iterations):
                yield from self._input_batch(ctx.gpu, layer)
                yield from self._fwd_bwd(ctx.cuda, ctx.gpu, actor)

                tr.begin(actor, "aggregation")
                if wire is not None:
                    # Quantize (elementwise pass over the gradients),
                    # exchange the 1-bit payload, dequantize.
                    yield from ctx.cuda.launch(
                        ctx.gpu, duration=ctx.gpu.spec.reduce_time(
                            wl.param_bytes))
                    yield from allreduce_ring(ctx, wire, wire_sum)
                    yield from ctx.cuda.launch(
                        ctx.gpu, duration=ctx.gpu.spec.reduce_time(
                            wl.param_bytes))
                else:
                    yield from allreduce_ring(ctx, buffers.packed_grads,
                                              result)
                tr.end(actor, "aggregation")

                # Every worker applies the update locally.
                yield from self._apply_update(ctx.cuda, ctx.gpu, actor,
                                              wl.param_bytes)
                if ctx.rank == 0:
                    self._record_iter_end(it)
        finally:
            layer.reader.stop()
            buffers.free()
            result.free()
            if wire is not None:
                wire.free()
                wire_sum.free()
            ctx.gpu.unreserve(extra)


def run_cntk(cluster: Cluster, n_gpus: int, cfg: TrainConfig, *,
             workload: Optional[Workload] = None,
             quantization_bits: int = 32,
             tracer: Optional[Tracer] = None) -> TrainingReport:
    return CNTKJob(cluster, n_gpus, resolve_workload(cfg, workload), cfg,
                   tracer=tracer, quantization_bits=quantization_bits).run()
