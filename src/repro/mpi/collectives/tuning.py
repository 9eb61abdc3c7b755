"""Algorithm selection — the "HR (Tuned)" design of Section 6.5.

The paper tunes the reduction design over (message size, process count):

- small messages: the flat binomial tree wins (latency-bound);
- "for buffer sizes greater than eight megabytes (8M) ... chunked chain
  (CC) performs much better than the binomial tree";
- "eight is the ideal P for [the] CC approach";
- "two-level chains can only scale to a process count of 64";
- beyond that, chain-binomial (CB) with chain size 8.

:func:`select_reduce_plan` encodes exactly that decision table, and
:func:`reduce_design` runs any named design, "tuned" included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional, Tuple

from ...cuda import DeviceBuffer
from ...sim import Event
from ...tune import tables
from ..communicator import RankContext
from ..profiles import is_stock_profile
from .hierarchical import hierarchical_reduce, parse_hr_config
from .reduce import reduce_binomial, reduce_chain

__all__ = ["ReducePlan", "select_reduce_plan", "reduce_design",
           "validate_reduce_design", "tuned_reduce", "IDEAL_CHAIN_SIZE",
           "CC_SCALING_LIMIT", "CHAIN_THRESHOLD_BYTES"]

#: Experimentally-ideal chain length (Section 5: "eight is the ideal P").
IDEAL_CHAIN_SIZE = 8
#: Maximum process count two-level chains scale to (Section 5).
CC_SCALING_LIMIT = 64
#: Message size above which chain designs beat binomial (Section 5: 8 MB).
CHAIN_THRESHOLD_BYTES = 8 << 20
#: Beyond this process count two levels are not enough: use the paper's
#: stated extension, chain-of-chain + binomial top (CCB).
THREE_LEVEL_THRESHOLD = 512
#: Both spellings of the flat binomial reduce: TrainConfig and Fig. 11
#: say "flat", the committed tuning tables store "binomial".
FLAT_DESIGNS = ("flat", "binomial")


@dataclass(frozen=True)
class ReducePlan:
    """A tuned reduction decision."""

    kind: str                      # "binomial" | "chain" | "hierarchical"
    hr_label: Optional[str] = None  # e.g. "CB-8" when kind == hierarchical

    @property
    def label(self) -> str:
        return self.hr_label or self.kind


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


def _tuned_choice(ctx: RankContext, nbytes: int
                  ) -> Tuple[Optional[str], Optional[int]]:
    """Resolve "tuned" to a concrete ``(design, chunk_bytes)``.

    Profiles without ``hierarchical_reduce`` keep their flat algorithm.
    Otherwise the order is: watchdog degraded mode, then the committed
    tuning table (stock profile only), then the Section-5 decision
    table of :func:`select_reduce_plan`.
    """
    if not ctx.profile.hierarchical_reduce:
        return "binomial", None
    wd = getattr(ctx.runtime, "watchdog", None)
    if wd is not None and wd.degraded_mode:
        # A flagged straggler (degraded link / throttled GPU) poisons
        # chain and hierarchical schedules, whose pipelines serialize on
        # the slow hop; the binomial tree touches it in O(log P) rounds
        # at worst.  Degrade gracefully rather than tune for a topology
        # that no longer exists.
        return "binomial", None
    knobs = _table_knobs(ctx, nbytes)
    if knobs is not None:
        return knobs.get("design"), knobs.get("chunk_bytes")
    # The profile's chain size, so the MPI_T cvar (coll.chain_size)
    # steers the decision table without threading an argument.
    plan = select_reduce_plan(ctx.size, nbytes,
                              chain_size=ctx.profile.chain_size)
    return plan.label, None


def validate_reduce_design(design: str) -> str:
    """Return ``design`` if :func:`reduce_design` runs it, else raise
    ValueError naming the accepted forms."""
    if design in ("tuned", "chain") + FLAT_DESIGNS:
        return design
    try:
        parse_hr_config(design)
    except (ValueError, AttributeError):
        raise ValueError(
            f"unknown reduce design {design!r}: expected tuned, flat, "
            f"binomial, chain, or an HR label such as CB-8, CC-4, "
            f"CCB-8") from None
    return design


def reduce_design(ctx: RankContext, sendbuf: DeviceBuffer,
                  recvbuf: Optional[DeviceBuffer], root: int = 0,
                  design: str = "tuned", *,
                  chunk_bytes: Optional[int] = None,
                  ) -> Generator[Event, Any, None]:
    """MPI_Reduce (SUM) to ``root`` under the design named ``design``.

    Designs: "tuned" (HR Tuned, see :func:`_tuned_choice`),
    "flat"/"binomial" (binomial tree), "chain" (chunked chain), or an HR
    label ("CB-8", "CC-4", "CCB-8", ...).  ``chunk_bytes`` feeds the
    chain pipelines of an explicit design; "tuned" picks its own.
    """
    if design == "tuned":
        design, chunk_bytes = _tuned_choice(ctx, sendbuf.nbytes)
    if design in FLAT_DESIGNS:
        yield from reduce_binomial(ctx, sendbuf, recvbuf, root)
    elif design == "chain":
        yield from reduce_chain(ctx, sendbuf, recvbuf, root,
                                chunk_bytes=chunk_bytes)
    else:
        yield from hierarchical_reduce(ctx, sendbuf, recvbuf, root,
                                       config=design,
                                       chunk_bytes=chunk_bytes)


def tuned_reduce(ctx: RankContext, sendbuf: DeviceBuffer,
                 recvbuf: Optional[DeviceBuffer], root: int = 0,
                 ) -> Generator[Event, Any, None]:
    """MPI_Reduce using the tuned design for this (P, nbytes) point:
    :func:`reduce_design` with ``"tuned"``.  Profiles without
    ``hierarchical_reduce`` fall back to their flat algorithm."""
    return reduce_design(ctx, sendbuf, recvbuf, root, "tuned")
