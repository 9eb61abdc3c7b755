"""Committed MVAPICH-style tuning tables and their dispatch-time lookup.

The real MVAPICH2 ships per-system tables mapping (message size, process
count, topology) to the fastest collective configuration; the S-Caffe
paper's "HR (Tuned)" design *"builds on top of the tuning infrastructure
in MVAPICH2"* (Section 6.5).  This module is that infrastructure for the
simulated stack: JSON tables committed under
``src/repro/mpi/tuning_tables/``, produced by the closed-loop search in
:mod:`repro.tune.search` (``repro tune``), and consulted at dispatch
time by :func:`~repro.mpi.collectives.tuning.tuned_reduce` and the
:func:`~repro.nccl.collectives.nccl_allreduce` /
:func:`~repro.nccl.collectives.nccl_bcast` selectors.

Contract (see docs/TUNING.md):

- A table is keyed by ``(backend, collective)`` — one file each — and
  its entries by ``(topology, P, [min_nbytes, max_nbytes))``.  The
  topology key describes the communicator's GPU placement (GPUs per
  node in node order, e.g. ``"16+16"``), not just the cluster kind, so
  a table tuned for one placement never silently applies to another.
- An entry is committed only when the searched configuration beat the
  profile-default dispatch *strictly* at the swept point; everything
  not covered by an entry falls back to the profile defaults.
- Tables apply to *stock* profiles only.  The moment a knob is
  hand-tuned (a CVAR write, ``profile.derive``), the profile no longer
  compares equal to its registered original and dispatch ignores the
  table — an explicit MPI_T write always wins over offline tuning.
- Lookup is pure and deterministic: same-seed runs with tables are
  event-for-event identical, and the tables themselves regenerate
  byte-identically (``repro tune --quick --check`` gates this in CI).

This module deliberately imports nothing from ``repro.mpi`` /
``repro.nccl`` so the collective layers can import it without cycles.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = ["TunedTable", "TABLE_VERSION", "tables_dir", "table_path",
           "table_filename", "load_table", "lookup", "topology_key",
           "comm_topology", "set_enabled", "enabled", "tables_disabled",
           "invalidate_cache", "generation"]

#: Bump when the on-disk entry schema changes; readers skip newer files.
TABLE_VERSION = 1

#: Committed table location (inside the installed package).
_DEFAULT_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "mpi", "tuning_tables")

_enabled = True
#: (backend, collective) -> TunedTable | None (None caches a miss).
_cache: Dict[Tuple[str, str], Optional["TunedTable"]] = {}
#: Bumped by invalidate_cache(), so memos of lookup results can tell
#: that the tables behind them were dropped.
_generation = 0


def tables_dir() -> str:
    """Directory holding the committed tables."""
    return _DEFAULT_DIR


def table_filename(backend: str, collective: str) -> str:
    return f"{backend}.{collective}.json"


def table_path(backend: str, collective: str,
               dirname: Optional[str] = None) -> str:
    return os.path.join(dirname or _DEFAULT_DIR,
                        table_filename(backend, collective))


# -- topology keys -------------------------------------------------------------

def topology_key(gpus: Iterable[Any]) -> str:
    """Placement signature of a GPU set: GPUs per node, node order of
    first appearance, joined with ``+`` (``"8"``, ``"16+16"``,
    ``"2+2+2+2"``)."""
    counts: List[int] = []
    index: Dict[int, int] = {}
    for gpu in gpus:
        node = gpu.node_index
        if node not in index:
            index[node] = len(counts)
            counts.append(0)
        counts[index[node]] += 1
    return "+".join(str(c) for c in counts)


def comm_topology(comm) -> str:
    """The communicator's topology key, computed once and cached on the
    communicator object (same idiom as the HR plan / NCCL ring caches)."""
    key = getattr(comm, "_tune_topology", None)
    if key is None:
        key = comm._tune_topology = topology_key(comm.gpus)
    return key


# -- the table -----------------------------------------------------------------

class TunedTable:
    """One committed table: every winning entry for one
    (backend, collective) pair across topologies and process counts."""

    def __init__(self, backend: str, collective: str, objective: str,
                 entries: Iterable[Dict[str, Any]]):
        self.backend = backend
        self.collective = collective
        self.objective = objective
        #: Entry dicts: topology, P, min_nbytes, max_nbytes (None = open
        #: upper end), knobs, latency, default_latency.
        self.entries: List[Dict[str, Any]] = sorted(
            entries, key=lambda e: (e["topology"], e["P"], e["min_nbytes"]))
        #: (topology, P) -> entries in ascending min_nbytes order.
        self._index: Dict[Tuple[str, int], List[Dict[str, Any]]] = {}
        for e in self.entries:
            self._index.setdefault((e["topology"], e["P"]), []).append(e)

    def lookup(self, topology: str, P: int,
               nbytes: int) -> Optional[Dict[str, Any]]:
        """Winning knobs for this point, or None (= use the profile
        defaults)."""
        for e in self._index.get((topology, P), ()):
            if e["min_nbytes"] <= nbytes and (
                    e["max_nbytes"] is None or nbytes < e["max_nbytes"]):
                return e["knobs"]
        return None

    # -- (de)serialization -------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        return {
            "version": TABLE_VERSION,
            "backend": self.backend,
            "collective": self.collective,
            "objective": self.objective,
            "entries": self.entries,
        }

    def to_json(self) -> str:
        """Canonical bytes: sorted keys, fixed indent, trailing newline —
        the form the ``--check`` regeneration gate byte-compares."""
        return json.dumps(self.to_payload(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "TunedTable":
        if payload.get("version") != TABLE_VERSION:
            raise ValueError(
                f"tuning table version {payload.get('version')!r} != "
                f"supported {TABLE_VERSION}")
        return cls(payload["backend"], payload["collective"],
                   payload.get("objective", "latency"), payload["entries"])

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<TunedTable {self.backend}.{self.collective} "
                f"{len(self.entries)} entries>")


# -- loading and dispatch-time lookup ------------------------------------------

def load_table(backend: str, collective: str,
               dirname: Optional[str] = None) -> Optional[TunedTable]:
    """Load a committed table; None when absent or unreadable (a corrupt
    or future-versioned file must not take the runtime down — dispatch
    falls back to profile defaults)."""
    path = table_path(backend, collective, dirname)
    try:
        with open(path) as fh:
            return TunedTable.from_payload(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError):
        return None


def lookup(backend: str, collective: str, topology: str, P: int,
           nbytes: int) -> Optional[Dict[str, Any]]:
    """Dispatch-time consult: winning knobs for the point, or None.

    Committed tables are parsed once per (backend, collective) and
    cached for the life of the process.
    """
    if not _enabled:
        return None
    key = (backend, collective)
    if key not in _cache:
        _cache[key] = load_table(backend, collective)
    table = _cache[key]
    if table is None:
        return None
    return table.lookup(topology, P, nbytes)


# -- enable/disable (benchmarks compare tuned vs default) ----------------------

def set_enabled(flag: bool) -> None:
    global _enabled
    _enabled = bool(flag)


def enabled() -> bool:
    return _enabled


@contextmanager
def tables_disabled():
    """Force profile-default dispatch inside the block
    (``bench_tuned_vs_default`` times the fallback this way)."""
    global _enabled
    prev, _enabled = _enabled, False
    try:
        yield
    finally:
        _enabled = prev


def invalidate_cache() -> None:
    """Drop parsed tables (tests rewrite table files in tmp dirs)."""
    global _generation
    _cache.clear()
    _generation += 1


def generation() -> int:
    """How many times the parsed-table cache has been dropped."""
    return _generation
