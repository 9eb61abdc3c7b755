"""Allreduce algorithms.

The CNTK-like comparator framework (Fig. 10) synchronizes workers with an
allreduce; we provide the classic ring reduce-scatter + allgather (the
bandwidth-optimal pattern CNTK's 32-bit MPI SGD effectively relies on)
and a reduce+bcast composition for small messages.
"""

from __future__ import annotations

from typing import Any, Generator

from ...cuda import DeviceBuffer
from ...sim import Event
from ..communicator import RankContext
from .base import apply_reduction, coll_tags, local_accumulate_copy, traced
from .bcast import bcast_binomial
from .gather_scatter import block_plan
from .reduce import reduce_binomial

__all__ = ["allreduce_ring", "allreduce_reduce_bcast", "allreduce"]


@traced("allreduce.ring")
def allreduce_ring(ctx: RankContext, sendbuf: DeviceBuffer,
                   recvbuf: DeviceBuffer,
                   ) -> Generator[Event, Any, None]:
    """Ring allreduce: P-1 reduce-scatter steps + P-1 allgather steps.

    The buffer is cut into the shared :func:`block_plan` partition: P
    near-equal element-aligned blocks tiling ``[0, nbytes)`` exactly,
    the last non-empty block owning any ``nbytes % 4`` tail (so byte
    payloads of any length and CNTK's 1-bit wire buffers move in
    full).  Block i accumulates around the ring and ends fully reduced
    on rank (i+1) mod P, then circulates again to all ranks.  Each rank
    walks only the steps that move a non-empty block.

    Both phases draw from one audited reservation: reduce-scatter step s
    uses ``tags.tag(s)``, allgather step s uses ``tags.tag((P-1) + s)``.
    (The historical hardcoded ``tag0 + 512 + s`` allgather offset
    collided with reduce-scatter tags once P exceeded 513.)
    """
    P = ctx.size
    me = ctx.rank
    tags = coll_tags(ctx, max(1, 2 * (P - 1)), "allreduce.ring")
    if P == 1:
        if recvbuf is not sendbuf:
            yield from local_accumulate_copy(ctx, recvbuf, sendbuf)
        return

    plan = block_plan(sendbuf.nbytes, P)
    blocks = plan.blocks
    right = (me + 1) % P
    left = (me - 1) % P
    scratch = ctx.scratch_like(sendbuf, "ring.rx")
    try:
        yield from local_accumulate_copy(ctx, recvbuf, sendbuf)
        # Reduce-scatter: at step s, send block (me-s) and receive+reduce
        # block (me-s-1).
        for s, sb, rb in plan.ring_steps(me):
            soff, slen = blocks[sb]
            roff, rlen = blocks[rb]
            sreq = ctx.isend(right, recvbuf, tag=tags.tag(s),
                             offset=soff, nbytes=slen) if slen else None
            if rlen:
                yield from ctx.recv(left, scratch, tag=tags.tag(s),
                                    offset=roff, nbytes=rlen)
                yield from apply_reduction(ctx, recvbuf, scratch, rlen,
                                           offset=roff)
            if sreq is not None:
                yield sreq.wait()
        # Allgather: circulate the fully-reduced blocks (send block
        # me+1-s, receive block me-s).
        for s, sb, rb in plan.ring_steps(me, shift=1):
            soff, slen = blocks[sb]
            roff, rlen = blocks[rb]
            sreq = ctx.isend(right, recvbuf, tag=tags.tag((P - 1) + s),
                             offset=soff, nbytes=slen) if slen else None
            if rlen:
                yield from ctx.recv(left, recvbuf, tag=tags.tag((P - 1) + s),
                                    offset=roff, nbytes=rlen)
            if sreq is not None:
                yield sreq.wait()
    finally:
        scratch.free()


def allreduce_reduce_bcast(ctx: RankContext, sendbuf: DeviceBuffer,
                           recvbuf: DeviceBuffer, *,
                           root: int = 0) -> Generator[Event, Any, None]:
    """Allreduce as Reduce-to-root followed by Bcast (small messages).

    Buffer contract: unlike plain reduce, *every* rank must supply a
    full-size ``recvbuf`` — non-roots receive the reduced result into it
    during the broadcast phase.  The reduce phase passes it through on
    all ranks (the root reduces into it; elsewhere reduce ignores it),
    then the bcast fills it everywhere.
    """
    if recvbuf is None:
        raise ValueError(
            "allreduce requires recvbuf on every rank (non-roots receive "
            "the result during the bcast phase)")
    yield from reduce_binomial(ctx, sendbuf, recvbuf, root)
    yield from bcast_binomial(ctx, recvbuf, root)


def allreduce(ctx: RankContext, sendbuf: DeviceBuffer,
              recvbuf: DeviceBuffer, *, algorithm: str = "ring",
              ) -> Generator[Event, Any, None]:
    """Blocking MPI_Allreduce (SUM)."""
    if algorithm == "ring":
        yield from allreduce_ring(ctx, sendbuf, recvbuf)
    elif algorithm == "reduce_bcast":
        yield from allreduce_reduce_bcast(ctx, sendbuf, recvbuf)
    else:
        raise KeyError(f"unknown allreduce algorithm {algorithm!r}")
