"""Top-level training API: one entry point for all frameworks.

This is the public "run an experiment" surface used by the examples and
benchmarks::

    from repro import train
    report = train("scaffe", cluster="A", n_gpus=64,
                   config=TrainConfig(network="googlenet"))
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Union

from ..hardware import Cluster, make_cluster
from ..mpi import MPIProfile, MV2GDR
from ..sim import Simulator, Tracer
from .caffe import run_caffe
from .cntk import run_cntk
from .config import TrainConfig
from .metrics import TrainingReport
from .mpi_caffe import run_mpi_caffe
from .param_server import run_param_server
from .scaffe import run_scaffe
from .workload import RealCompute, Workload

__all__ = ["train", "FRAMEWORK_NAMES"]

#: Framework name -> (runner, other accepted spellings).  Spellings are
#: matched lower-case with ``-`` and ``_`` removed.
_FRAMEWORKS = {
    "scaffe": (run_scaffe, ("s",)),
    "caffe": (run_caffe, ()),
    "nvcaffe": (partial(run_caffe, optimized=True), ("nvidiacaffe",)),
    "cntk": (run_cntk, ()),
    "inspur": (run_param_server, ("inspurcaffe", "paramserver", "ps")),
    "mpicaffe": (run_mpi_caffe, ("modelparallel", "mp")),
}
FRAMEWORK_NAMES = tuple(_FRAMEWORKS)
_BY_SPELLING = {spelling: name
                for name, (_, aliases) in _FRAMEWORKS.items()
                for spelling in (name, *aliases)}


def train(framework: str, *, n_gpus: int,
          cluster: Union[Cluster, str] = "A",
          config: Optional[TrainConfig] = None,
          profile: MPIProfile | str = MV2GDR,
          workload: Optional[Workload] = None,
          adapter: Optional[RealCompute] = None,
          tracer: Optional[Tracer] = None,
          recorder=None,
          telemetry=None) -> TrainingReport:
    """Train ``config.network`` with the named framework.

    Parameters
    ----------
    framework:
        ``"scaffe"`` (variant chosen by ``config.variant``), ``"caffe"``
        (BVLC baseline), ``"nvcaffe"`` (NVIDIA fork), ``"cntk"``,
        ``"inspur"`` (parameter server), or ``"mpicaffe"`` (model
        parallel).
    cluster:
        A built :class:`~repro.hardware.Cluster`, or ``"A"``/``"B"`` to
        build the paper's testbed on a fresh simulator.
    profile:
        MPI runtime profile (S-Caffe only; comparators pin their own).
    adapter:
        Optional :class:`RealCompute` for payload-carrying runs
        (S-Caffe only).
    recorder:
        Optional :class:`~repro.prof.SpanRecorder` for causal profiling
        (S-Caffe only); must be built on the cluster's simulator.
    telemetry:
        Optional :class:`~repro.telemetry.TelemetrySession` for MPI_T
        introspection and metrics export (S-Caffe only).

    Raises ``KeyError`` for an unknown framework and ``ValueError`` when
    an S-Caffe-only argument is given to a comparator.
    """
    name = _BY_SPELLING.get(framework.lower().replace("-", "")
                            .replace("_", ""))
    if name is None:
        raise KeyError(
            f"unknown framework {framework!r}; choose from {FRAMEWORK_NAMES}")
    s_caffe_only = dict(adapter=adapter, recorder=recorder,
                        telemetry=telemetry)
    if name == "scaffe":
        extra = dict(s_caffe_only, profile=profile)
    else:
        given = [k for k, v in s_caffe_only.items() if v is not None]
        if given:
            raise ValueError(
                f"{', '.join(given)} only apply to S-Caffe ('scaffe'), "
                f"not {framework!r}")
        extra = {}
    cfg = config or TrainConfig()
    if isinstance(cluster, str):
        cluster = make_cluster(Simulator(), cluster)
    runner = _FRAMEWORKS[name][0]
    return runner(cluster, n_gpus, cfg, workload=workload, tracer=tracer,
                  **extra)
