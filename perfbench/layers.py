"""Per-layer host-time attribution from a ``cProfile`` run.

A layer is a module of ``src/repro`` (the list below).  Every profiled
function is assigned to exactly one bucket by the file it lives in, so
the self-time shares of one run sum to 1:

- ``src/repro/<pkg>/...`` -> ``<pkg>``; ``src/repro/mpi`` is split into
  ``mpi.transport``, ``mpi.communicator``, ``mpi.request``,
  ``mpi.collectives`` and ``mpi.runtime`` (runtime, profiles, watchdog
  and the other ``mpi`` modules);
- C builtins, NumPy and the standard library -> ``ext``;
- the rest of ``repro`` (``analysis``, ``cli``, package roots) and this
  benchmark's own frames -> ``other``.

``cProfile`` reports a generator resume as a call, so ``<layer>.calls``
counts entries into the layer's frames, resumes included.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Dict, Tuple

__all__ = ["LAYERS", "layer_of", "LayerProfile", "profile_call"]

LAYERS = (
    "sim", "hardware", "cuda",
    "mpi.transport", "mpi.communicator", "mpi.request", "mpi.collectives",
    "mpi.runtime", "nccl", "tune", "io", "dnn", "core",
    "prof", "telemetry", "obs", "check", "faults",
    "ext", "other",
)

_PKG_LAYERS = {"sim", "hardware", "cuda", "nccl", "tune", "io", "dnn",
               "core", "prof", "telemetry", "obs", "check", "faults"}
_MPI_LAYERS = {"transport.py": "mpi.transport",
               "communicator.py": "mpi.communicator",
               "request.py": "mpi.request"}


def layer_of(filename: str, repro_dir: str, bench_dir: str) -> str:
    """Bucket of a profiled function, from its source file."""
    if filename.startswith(repro_dir):
        parts = filename[len(repro_dir):].lstrip(os.sep).split(os.sep)
        if len(parts) < 2:
            return "other"
        pkg = parts[0]
        if pkg in _PKG_LAYERS:
            return pkg
        if pkg == "mpi":
            if parts[1] == "collectives":
                return "mpi.collectives"
            return _MPI_LAYERS.get(parts[1], "mpi.runtime")
        return "other"
    if filename.startswith(bench_dir):
        return "other"
    return "ext"


class LayerProfile:
    """Self time, calls and selected caller counts of one profiled run."""

    def __init__(self, stats: pstats.Stats, repro_dir: str,
                 bench_dir: str) -> None:
        self.self_s: Dict[str, float] = {k: 0.0 for k in LAYERS}
        self.calls: Dict[str, int] = {k: 0 for k in LAYERS}
        self._stats = stats.stats
        for (fname, _line, _func), (_cc, nc, tt, _ct, _callers) \
                in self._stats.items():
            layer = layer_of(fname, repro_dir, bench_dir)
            self.self_s[layer] += tt
            self.calls[layer] += nc

    def shares(self) -> Dict[str, float]:
        total = sum(self.self_s.values())
        return {k: (v / total if total else 0.0)
                for k, v in self.self_s.items()}

    def calls_by_caller(self, funcname: str, filename_suffix: str
                        ) -> Dict[Tuple[str, str], int]:
        """``{(caller file, caller function): calls}`` into the function
        ``funcname`` defined in a file ending with ``filename_suffix``."""
        out: Dict[Tuple[str, str], int] = {}
        for (fname, _line, func), entry in self._stats.items():
            if func != funcname or not fname.endswith(filename_suffix):
                continue
            for (cfile, _cline, cfunc), cstat in entry[4].items():
                key = (cfile, cfunc)
                out[key] = out.get(key, 0) + cstat[1]
        return out


def profile_call(fn, repro_dir: str, bench_dir: str) -> LayerProfile:
    """Run ``fn()`` under cProfile; return its :class:`LayerProfile`."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        fn()
    finally:
        prof.disable()
    return LayerProfile(pstats.Stats(prof), repro_dir, bench_dir)
