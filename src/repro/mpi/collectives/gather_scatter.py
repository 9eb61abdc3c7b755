"""Scatter / Gather / Allgather / Reduce-scatter building blocks.

These complete the runtime's collective suite and provide the
composition pieces classic large-message algorithms are built from —
most importantly the van-de-Geijn broadcast (scatter + ring allgather)
in :mod:`.bcast`, which real MVAPICH2 selects for large messages.

Block partitioning convention: a buffer of B bytes over P ranks is cut
into P element-aligned blocks (4-byte grain); rank i owns block i.

Schedule plans: the partition and the ring step lists over it are a
pure function of (B, P), so :func:`block_plan` builds each one once and
shares it between every rank and every call.  A ring rank then walks
only the steps that move a non-empty block, instead of all 2(P-1) —
which is what makes the P > 513 boundary rings cheap on the host.
"""

from __future__ import annotations

import functools
from typing import Any, Generator, List, Optional, Sequence, Tuple

from ...cuda import DeviceBuffer
from ...sim import Event
from ..communicator import RankContext
from .base import apply_reduction, as_tag_block, coll_tags, traced

__all__ = ["BlockPlan", "block_plan", "block_partition", "scatter_binomial",
           "gather_binomial", "allgather_ring", "reduce_scatter_ring"]

GRAIN = 4  # float32 element alignment
#: Entries kept by each schedule-plan cache (the (nbytes, P) plans here
#: and the NCCL chunk lists).  A conformance pass needs about sixty, a
#: training run one or two.
PLAN_CACHE_SIZE = 256


class BlockPlan:
    """The block partition of an ``nbytes`` buffer over ``P`` ranks and
    the ring rotations over it.

    Blocks tile ``[0, nbytes)`` exactly: the aligned part is cut into
    ``GRAIN``-aligned blocks of equal length, the first :attr:`live`
    blocks are non-empty, and the last non-empty block also owns the
    ``nbytes % GRAIN`` tail (block 0 does when ``nbytes < GRAIN``).
    Empty blocks sit at offset ``nbytes``.  Instances are shared through
    :func:`block_plan` and must not be mutated.
    """

    __slots__ = ("nbytes", "P", "blocks", "live", "longest")

    def __init__(self, nbytes: int, P: int):
        if P < 1:
            raise ValueError("P must be >= 1")
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        aligned = nbytes - nbytes % GRAIN
        per = (aligned // GRAIN + P - 1) // P * GRAIN
        live = -(-aligned // per) if per else min(nbytes, 1)
        bounds = [i * per for i in range(live)] + [nbytes]
        self.nbytes = nbytes
        self.P = P
        self.live = live
        self.blocks: Tuple[Tuple[int, int], ...] = tuple(
            [(bounds[i], bounds[i + 1] - bounds[i]) for i in range(live)]
            + [(nbytes, 0)] * (P - live))
        self.longest = max(n for _, n in self.blocks)

    def ring_steps(self, pos: int, shift: int = 0,
                   order: Optional[Sequence[int]] = None,
                   ) -> List[Tuple[int, int, int]]:
        """``(s, send_block, recv_block)`` for every step ``s`` of a
        (P-1)-step ring rotation, seen from ring position ``pos``, that
        sends or receives a non-empty block; ascending ``s``.

        At step ``s`` position ``pos`` sends the block held at position
        ``(pos + shift - s) % P`` and receives the one at
        ``(pos + shift - s - 1) % P``.  ``order`` maps a ring position
        to its block index (identity when None).  With the identity
        order this costs O(steps returned): with one non-empty block a
        rank gets at most two steps instead of walking all P-1.
        """
        P, live = self.P, self.live
        q = pos + shift
        if live == P:
            steps: Sequence[int] = range(P - 1)
        else:
            held = (range(live) if order is None
                    else [order.index(b) for b in range(live)])
            steps = sorted({(q - p - d) % P for p in held for d in (0, 1)}
                           - {P - 1})
        if order is None:
            return [(s, (q - s) % P, (q - s - 1) % P) for s in steps]
        return [(s, order[(q - s) % P], order[(q - s - 1) % P])
                for s in steps]


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def block_plan(nbytes: int, P: int) -> BlockPlan:
    """The shared :class:`BlockPlan` for (``nbytes``, ``P``)."""
    return BlockPlan(nbytes, P)


def block_partition(nbytes: int, P: int) -> Tuple[Tuple[int, int], ...]:
    """(offset, length) of each rank's block; element-aligned, covers
    the buffer exactly, final blocks may be empty for tiny buffers.
    The blocks of the shared :func:`block_plan`, for aligned sizes
    only."""
    if nbytes % GRAIN:
        raise ValueError(f"buffer must be {GRAIN}-byte aligned")
    return block_plan(nbytes, P).blocks


@traced("scatter.binomial")
def scatter_binomial(ctx: RankContext, buf: DeviceBuffer, root: int = 0,
                     *, tag_base: Optional[int] = None,
                     ) -> Generator[Event, Any, None]:
    """Binomial-tree MPI_Scatter of ``buf``'s blocks from ``root``.

    Every rank passes the full-size ``buf``; on completion rank i holds
    (at least) its own block i.  Interior tree nodes relay the contiguous
    half-ranges (the standard minimal-data scatter would send only
    subtree bytes; we relay the subtree's *span*, which for contiguous
    blocks is the same data volume).
    """
    P = ctx.size
    tag = (coll_tags(ctx, 1, "scatter.binomial") if tag_base is None
           else as_tag_block(tag_base, 1, "scatter.binomial")).tag(0)
    if P == 1:
        return
    blocks = block_partition(buf.nbytes, P)
    vrank = (ctx.rank - root) % P

    def span(v_lo: int, v_hi: int) -> Tuple[int, int]:
        """Byte range covering blocks of virtual ranks [v_lo, v_hi)."""
        ranks = [(v + root) % P for v in range(v_lo, min(v_hi, P))]
        offs = [blocks[r][0] for r in ranks]
        ends = [blocks[r][0] + blocks[r][1] for r in ranks]
        return min(offs), max(ends) - min(offs)

    # Receive my subtree's span from the parent (unless root).
    mask = 1
    while mask < P:
        if vrank & mask:
            parent = ((vrank - mask) + root) % P
            off, n = span(vrank, vrank + mask)
            if n:
                yield from ctx.recv(parent, buf, tag=tag, offset=off,
                                    nbytes=n)
            break
        mask <<= 1

    # Forward child subtrees.
    mask >>= 1
    sends = []
    while mask > 0:
        if vrank + mask < P:
            child = ((vrank + mask) + root) % P
            off, n = span(vrank + mask, vrank + 2 * mask)
            if n:
                sends.append(ctx.isend(child, buf, tag=tag, offset=off,
                                       nbytes=n))
        mask >>= 1
    for req in sends:
        yield req.wait()


def _block_runs(blocks: Sequence[Tuple[int, int]], ranks: List[int]
                ) -> List[Tuple[int, int]]:
    """Merge ``ranks``'s blocks into contiguous (offset, length) runs.

    A rotated rank map (root != 0) makes a virtually-contiguous subtree
    own *non-contiguous* bytes — at most two runs, since the rotation
    wraps once and empty tail blocks only ever trim a run's end.
    """
    runs: List[List[int]] = []
    for off, n in sorted(blocks[r] for r in ranks):
        if n == 0:
            continue
        if runs and runs[-1][0] + runs[-1][1] == off:
            runs[-1][1] += n
        else:
            runs.append([off, n])
    return [(off, n) for off, n in runs]


@traced("gather.binomial")
def gather_binomial(ctx: RankContext, buf: DeviceBuffer, root: int = 0,
                    *, tag_base: Optional[int] = None,
                    ) -> Generator[Event, Any, None]:
    """Binomial-tree MPI_Gather: rank i's block i ends up at ``root``.

    The mirror image of :func:`scatter_binomial` — except that gather
    must transfer *exactly* the subtree's blocks, not their covering
    span: with a rotated rank map a subtree's bytes wrap around the
    buffer, and a span-sized send would overwrite blocks the parent
    already gathered with the child's stale local copy (the wrap-around
    root bug the conformance harness catches).  Hence at most two
    contiguous runs per edge, one tag each.
    """
    P = ctx.size
    tags = (coll_tags(ctx, 2, "gather.binomial") if tag_base is None
            else as_tag_block(tag_base, 2, "gather.binomial"))
    if P == 1:
        return
    blocks = block_partition(buf.nbytes, P)
    vrank = (ctx.rank - root) % P

    def runs(v_lo: int, v_hi: int) -> List[Tuple[int, int]]:
        ranks = [(v + root) % P for v in range(v_lo, min(v_hi, P))]
        return _block_runs(blocks, ranks)

    # Collect child subtrees (ascending mask), then send up.
    mask = 1
    while mask < P:
        if vrank & mask:
            parent = ((vrank - mask) + root) % P
            for i, (off, n) in enumerate(runs(vrank, vrank + mask)):
                yield from ctx.send(parent, buf, tag=tags.tag(i),
                                    offset=off, nbytes=n)
            return
        child_v = vrank | mask
        if child_v < P:
            child = (child_v + root) % P
            for i, (off, n) in enumerate(runs(child_v, child_v + mask)):
                yield from ctx.recv(child, buf, tag=tags.tag(i),
                                    offset=off, nbytes=n)
        mask <<= 1


@traced("allgather.ring")
def allgather_ring(ctx: RankContext, buf: DeviceBuffer,
                   *, tag_base: Optional[int] = None,
                   ) -> Generator[Event, Any, None]:
    """Ring MPI_Allgather: each rank starts holding its block; after
    P-1 steps every rank holds all blocks (bandwidth-optimal)."""
    P = ctx.size
    me = ctx.rank
    tags = (coll_tags(ctx, max(1, P - 1), "allgather.ring")
            if tag_base is None
            else as_tag_block(tag_base, max(1, P - 1), "allgather.ring"))
    if P == 1:
        return
    plan = block_plan(buf.nbytes, P)
    blocks = plan.blocks
    right = (me + 1) % P
    left = (me - 1) % P
    for s, sb, rb in plan.ring_steps(me):
        soff, slen = blocks[sb]
        roff, rlen = blocks[rb]
        sreq = (ctx.isend(right, buf, tag=tags.tag(s), offset=soff,
                          nbytes=slen) if slen else None)
        if rlen:
            yield from ctx.recv(left, buf, tag=tags.tag(s), offset=roff,
                                nbytes=rlen)
        if sreq is not None:
            yield sreq.wait()


@traced("reduce_scatter.ring")
def reduce_scatter_ring(ctx: RankContext, sendbuf: DeviceBuffer,
                        recvbuf: DeviceBuffer,
                        *, tag_base: Optional[int] = None,
                        ) -> Generator[Event, Any, None]:
    """Ring MPI_Reduce_scatter (SUM).

    On completion, rank i holds the fully-reduced block
    ``(i + 1) % P`` of ``recvbuf`` (the classic ring rotation); other
    blocks hold partial sums.  ``recvbuf`` must be full-size; callers
    composing an allreduce follow with :func:`allgather_ring`-style
    circulation starting from the owned block.
    """
    P = ctx.size
    me = ctx.rank
    tags = (coll_tags(ctx, max(1, P - 1), "reduce_scatter.ring")
            if tag_base is None
            else as_tag_block(tag_base, max(1, P - 1), "reduce_scatter.ring"))
    from .base import local_accumulate_copy
    yield from local_accumulate_copy(ctx, recvbuf, sendbuf)
    if P == 1:
        return
    plan = block_plan(sendbuf.nbytes, P)
    blocks = plan.blocks
    right = (me + 1) % P
    left = (me - 1) % P
    scratch = ctx.scratch_like(sendbuf, "rs.rx")
    try:
        for s, sb, rb in plan.ring_steps(me):
            soff, slen = blocks[sb]
            roff, rlen = blocks[rb]
            sreq = (ctx.isend(right, recvbuf, tag=tags.tag(s), offset=soff,
                              nbytes=slen) if slen else None)
            if rlen:
                yield from ctx.recv(left, scratch, tag=tags.tag(s),
                                    offset=roff, nbytes=rlen)
                yield from apply_reduction(ctx, recvbuf, scratch, rlen,
                                           offset=roff)
            if sreq is not None:
                yield sreq.wait()
    finally:
        scratch.free()
