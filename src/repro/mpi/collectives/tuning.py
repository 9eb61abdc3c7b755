"""Algorithm selection — the "HR (Tuned)" design of Section 6.5.

The paper tunes the reduction design over (message size, process count):

- small messages: the flat binomial tree wins (latency-bound);
- "for buffer sizes greater than eight megabytes (8M) ... chunked chain
  (CC) performs much better than the binomial tree";
- "eight is the ideal P for [the] CC approach";
- "two-level chains can only scale to a process count of 64";
- beyond that, chain-binomial (CB) with chain size 8.

:func:`select_reduce_plan` encodes exactly that decision table, and
:func:`tuned_reduce` executes the chosen design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from ...cuda import DeviceBuffer
from ...sim import Event
from ...tune import tables
from ..communicator import RankContext
from ..profiles import is_stock_profile
from .hierarchical import hierarchical_reduce
from .reduce import reduce_binomial, reduce_chain

__all__ = ["ReducePlan", "TuningTable", "autotune", "select_reduce_plan",
           "tuned_reduce", "IDEAL_CHAIN_SIZE", "CC_SCALING_LIMIT",
           "CHAIN_THRESHOLD_BYTES"]

#: Experimentally-ideal chain length (Section 5: "eight is the ideal P").
IDEAL_CHAIN_SIZE = 8
#: Maximum process count two-level chains scale to (Section 5).
CC_SCALING_LIMIT = 64
#: Message size above which chain designs beat binomial (Section 5: 8 MB).
CHAIN_THRESHOLD_BYTES = 8 << 20
#: Beyond this process count two levels are not enough: use the paper's
#: stated extension, chain-of-chain + binomial top (CCB).
THREE_LEVEL_THRESHOLD = 512


@dataclass(frozen=True)
class ReducePlan:
    """A tuned reduction decision."""

    kind: str                      # "binomial" | "chain" | "hierarchical"
    hr_label: Optional[str] = None  # e.g. "CB-8" when kind == hierarchical

    @property
    def label(self) -> str:
        return self.hr_label or self.kind


class TuningTable:
    """A measured (message size -> best design) table for one process
    count — the "tuning infrastructure" of Section 6.5: *"HR (Tuned) is
    the new tuned design that builds on top of the tuning infrastructure
    in MVAPICH2 and efficiently uses the fastest combination for the
    desired message size and process count range."*

    Built by :func:`autotune` from offline micro-benchmark sweeps on the
    target system (exactly how the real MVAPICH2 tables are produced).
    """

    def __init__(self, P: int, entries):
        # entries: sorted list of (max_nbytes_exclusive_or_None, design)
        if not entries:
            raise ValueError("tuning table needs at least one entry")
        self.P = P
        self.entries = list(entries)

    def select(self, nbytes: int) -> str:
        for bound, design in self.entries:
            if bound is None or nbytes < bound:
                return design
        return self.entries[-1][1]  # pragma: no cover - defensive

    def __repr__(self) -> str:  # pragma: no cover
        return f"<TuningTable P={self.P} {self.entries}>"


def autotune(cluster_factory, P: int, sizes, designs, *,
             runs_per_point: int = 1) -> "TuningTable":
    """Build a :class:`TuningTable` by sweeping the candidate designs.

    ``cluster_factory()`` must return a fresh cluster on its own
    simulator; each (size, design) point runs an OMB-style MPI_Reduce
    and the fastest design wins its size range.  ``designs`` entries are
    "flat", "chain", or HR labels ("CB-8", ...).
    """
    from ...cuda import DeviceBuffer
    from ..runtime import MPIRuntime
    from .hierarchical import hierarchical_reduce
    from .reduce import reduce_binomial, reduce_chain

    def measure(design: str, nbytes: int) -> float:
        cluster = cluster_factory()
        rt = MPIRuntime(cluster, "mv2gdr")
        comm = rt.world(P)

        def program(ctx):
            sendbuf = DeviceBuffer(ctx.gpu, nbytes)
            recvbuf = (DeviceBuffer(ctx.gpu, nbytes)
                       if ctx.rank == 0 else None)
            if design == "flat":
                yield from reduce_binomial(ctx, sendbuf, recvbuf, 0)
            elif design == "chain":
                yield from reduce_chain(ctx, sendbuf, recvbuf, 0)
            else:
                yield from hierarchical_reduce(ctx, sendbuf, recvbuf, 0,
                                               config=design)
            return ctx.sim.now

        return max(rt.execute(comm, program))

    sizes = sorted(sizes)
    winners = []
    for nbytes in sizes:
        best = min(designs, key=lambda d: measure(d, nbytes))
        winners.append(best)
    entries = []
    for i, (nbytes, win) in enumerate(zip(sizes, winners)):
        bound = sizes[i + 1] if i + 1 < len(sizes) else None
        if entries and entries[-1][1] == win:
            entries[-1] = (bound, win)
        else:
            entries.append((bound, win))
    return TuningTable(P, entries)


def select_reduce_plan(P: int, nbytes: int,
                       *, chain_size: int = IDEAL_CHAIN_SIZE) -> ReducePlan:
    """The tuned decision table over (process count, message size)."""
    if P <= 1:
        return ReducePlan("binomial")
    if nbytes < CHAIN_THRESHOLD_BYTES:
        if nbytes < (256 << 10) or P <= 2:
            return ReducePlan("binomial")
        # Mid-size messages: hierarchy already pays off, binomial on top.
        if P <= chain_size:
            return ReducePlan("chain")
        return ReducePlan("hierarchical", f"CB-{chain_size}")
    # Large (DL-scale) messages:
    if P <= chain_size:
        return ReducePlan("chain")
    if P <= CC_SCALING_LIMIT:
        return ReducePlan("hierarchical", f"CC-{chain_size}")
    if P <= THREE_LEVEL_THRESHOLD:
        return ReducePlan("hierarchical", f"CB-{chain_size}")
    # "In future, we can exploit multi-level combinations like
    # chain-of-chain combined with a top level binomial for very large
    # scale reductions" (Section 5) — realized here.
    return ReducePlan("hierarchical", f"CCB-{chain_size}")


def _table_knobs(ctx: RankContext, nbytes: int):
    """Committed tuning-table consult (``repro tune`` output).

    Stock profiles only: any CVAR write derives a new profile that no
    longer equals its registered original, and an explicit MPI_T write
    must always win over the offline table.  The gate runs on every
    call, so CVAR writes and ``tables_disabled()`` take effect at once.
    """
    if not tables.enabled() or not is_stock_profile(ctx.profile):
        return None
    return tables.lookup(ctx.profile.name, "reduce",
                         tables.comm_topology(ctx.comm), ctx.size, nbytes)


def tuned_reduce(ctx: RankContext, sendbuf: DeviceBuffer,
                 recvbuf: Optional[DeviceBuffer], root: int = 0, *,
                 chain_size: Optional[int] = None,
                 ) -> Generator[Event, Any, None]:
    """MPI_Reduce using the tuned design for this (P, nbytes) point.

    This is the entry point S-Caffe's gradient aggregation uses when the
    runtime profile advertises ``hierarchical_reduce`` (MVAPICH2-GDR with
    the proposed designs); other profiles fall back to their flat
    algorithm.

    Dispatch order: committed tuning table (stock profile, no explicit
    ``chain_size``) first, then the Section-5 decision table of
    :func:`select_reduce_plan` as the fallback.
    """
    if not ctx.profile.hierarchical_reduce:
        yield from reduce_binomial(ctx, sendbuf, recvbuf, root)
        return
    wd = getattr(ctx.runtime, "watchdog", None)
    if wd is not None and wd.degraded_mode:
        # A flagged straggler (degraded link / throttled GPU) poisons
        # chain and hierarchical schedules, whose pipelines serialize on
        # the slow hop; the binomial tree touches it in O(log P) rounds
        # at worst.  Degrade gracefully rather than tune for a topology
        # that no longer exists.
        yield from reduce_binomial(ctx, sendbuf, recvbuf, root)
        return
    if chain_size is None:
        knobs = _table_knobs(ctx, sendbuf.nbytes)
        if knobs is not None:
            yield from _dispatch_knobs(ctx, sendbuf, recvbuf, root, knobs)
            return
        # Default from the profile so the MPI_T cvar (coll.chain_size)
        # steers the decision table without threading an argument.
        chain_size = ctx.profile.chain_size
    plan = select_reduce_plan(ctx.size, sendbuf.nbytes,
                              chain_size=chain_size)
    if plan.kind == "binomial":
        yield from reduce_binomial(ctx, sendbuf, recvbuf, root)
    elif plan.kind == "chain":
        yield from reduce_chain(ctx, sendbuf, recvbuf, root)
    else:
        yield from hierarchical_reduce(ctx, sendbuf, recvbuf, root,
                                       config=plan.hr_label)


def _dispatch_knobs(ctx: RankContext, sendbuf: DeviceBuffer,
                    recvbuf: Optional[DeviceBuffer], root: int,
                    knobs) -> Generator[Event, Any, None]:
    """Execute a tuning-table entry: ``design`` is "binomial", "chain",
    or an HR label; ``chunk_bytes`` (optional) feeds the chain pipelines
    and is validated by the algorithms themselves."""
    design = knobs.get("design")
    chunk_bytes = knobs.get("chunk_bytes")
    if design == "binomial":
        yield from reduce_binomial(ctx, sendbuf, recvbuf, root)
    elif design == "chain":
        yield from reduce_chain(ctx, sendbuf, recvbuf, root,
                                chunk_bytes=chunk_bytes)
    else:
        yield from hierarchical_reduce(ctx, sendbuf, recvbuf, root,
                                       config=design,
                                       chunk_bytes=chunk_bytes)
