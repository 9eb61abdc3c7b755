"""NCCL-style collectives over the simulated MPI substrate.

Every algorithm here is built purely on the :class:`RankContext` pt2pt
API (``isend``/``irecv``/``recv``) plus the shared collective helpers
(:func:`coll_tags`, :func:`apply_reduction`), so the whole existing
substrate applies unchanged: the transport picks IPC/GDR/staged paths
per the profile, fault plans and the integrity layer see every hop, the
watchdog's progress probes cover stalls, spans carry ``op=nccl.*`` tags
for the causal profiler, and telemetry attributes bytes per collective
through the tag-block ledger.

Two algorithm families, selected by payload size (``tree_threshold`` on
:class:`~repro.mpi.profiles.NCCLProfile`, exposed as the
``nccl.tree_threshold`` cvar):

- *rings* (bandwidth-optimal): reduce-scatter/allgather rotations over
  the topology-aware ring of :func:`~repro.nccl.topology.build_rings`,
  every step cut into ``ring_chunk`` chunks whose receives are posted
  up front so the reduction of chunk k overlaps the transfer of k+1;
- *double binary trees* (latency-optimal): the two complementary trees
  of :func:`~repro.nccl.topology.double_binary_trees`, each carrying
  half the payload, chunk-interleaved so both halves are in flight at
  once.

Byte-exactness: reductions use the same :func:`apply_reduction` payload
arithmetic as the MPI collectives, and conformance payloads are
integer-valued, so any summation order reproduces the NumPy reference
bit-for-bit (see ``repro.check.reference``).
"""

from __future__ import annotations

import functools
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from ..cuda import DeviceBuffer
from ..mpi.collectives.base import (
    apply_reduction, coll_tags, local_accumulate_copy, segments, traced,
    validate_knob,
)
from ..mpi.collectives.gather_scatter import (
    PLAN_CACHE_SIZE, BlockPlan, block_plan,
)
from ..mpi.communicator import RankContext
from ..mpi.profiles import NCCL, is_stock_profile
from ..sim import Event
from ..tune import tables
from .topology import Ring, Tree, build_rings, double_binary_trees

__all__ = ["nccl_allreduce", "nccl_allreduce_ring", "nccl_allreduce_tree",
           "nccl_bcast", "nccl_bcast_ring", "nccl_bcast_tree",
           "nccl_reduce_scatter", "nccl_allgather", "rings_of"]

#: Tree pairs are a pure function of P; cache across communicators.
_TREE_CACHE: Dict[int, Tuple[Tree, Tree]] = {}


def rings_of(comm) -> Tuple[Ring, Ring]:
    """The communicator's (forward, reverse) topology-aware rings,
    built once and cached on the communicator."""
    rings = getattr(comm, "_nccl_rings", None)
    if rings is None:
        rings = build_rings(comm.gpus)
        comm._nccl_rings = rings
    return rings


def trees_of(P: int) -> Tuple[Tree, Tree]:
    trees = _TREE_CACHE.get(P)
    if trees is None:
        trees = _TREE_CACHE[P] = double_binary_trees(P)
    return trees


def _ring_chunk(ctx: RankContext, chunk_bytes: Optional[int]) -> int:
    if chunk_bytes is None:
        chunk = getattr(ctx.profile, "ring_chunk", NCCL.ring_chunk)
        return max(4, chunk - chunk % 4)
    # An explicit knob must be usable as passed: 4-byte element
    # alignment is the hard floor (same bound as the nccl.ring_chunk
    # cvar), and a degenerate value raises instead of being clamped.
    validate_knob(chunk_bytes, "chunk_bytes", minimum=4)
    return chunk_bytes - chunk_bytes % 4


Chunks = Tuple[Tuple[int, int], ...]


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _block_chunks(nbytes: int, P: int, chunk: int) -> Tuple[Chunks, ...]:
    """Every block of ``block_plan(nbytes, P)`` cut into chunk-sized
    (offset, length) pieces; empty blocks have none.  Pure in its
    arguments, so one table serves every rank and every call."""
    return tuple(tuple(segments(n, chunk, offset=off)) if n else ()
                 for off, n in block_plan(nbytes, P).blocks)


def _chunk_capacity(plan: BlockPlan, chunk: int) -> int:
    """Max chunks any single partition block decomposes into (used to
    size tag reservations uniformly across ranks)."""
    return max(1, -(-plan.longest // chunk))


def _meters(ctx: RankContext):
    """Registry-backed nccl counters (get-or-create; always-on like the
    transport metrics, read back as ``nccl.*`` PVARs)."""
    reg = ctx.sim.metrics
    hops = reg.counter(
        "nccl.ring.hops", "pt2pt hops performed by nccl ring collectives",
        "messages")
    path_bytes = reg.counter(
        "nccl.path.bytes",
        "payload bytes moved by the nccl backend per algorithm path",
        "bytes", labelnames=("path",))
    depth = reg.gauge(
        "nccl.tree.depth",
        "deepest double-binary tree driven by nccl tree collectives",
        "hops")
    return hops, path_bytes, depth


# -- ring family --------------------------------------------------------------

@traced("nccl.reduce_scatter.ring")
def nccl_reduce_scatter(ctx: RankContext, sendbuf: DeviceBuffer,
                        recvbuf: DeviceBuffer, *,
                        chunk_bytes: Optional[int] = None,
                        ) -> Generator[Event, Any, None]:
    """Ring reduce-scatter over the topology-aware ring.

    Blocks are indexed by *ring position*: after P-1 rotation steps the
    rank at position i holds the fully-reduced block ``(i + 1) % P`` of
    ``recvbuf`` (other blocks hold partial sums).  ``recvbuf`` must be
    full-size on every rank.
    """
    P = ctx.size
    chunk = _ring_chunk(ctx, chunk_bytes)
    plan = block_plan(sendbuf.nbytes, P)
    C = _chunk_capacity(plan, chunk)
    tags = coll_tags(ctx, max(1, (P - 1) * C), "nccl.reduce_scatter")
    yield from local_accumulate_copy(ctx, recvbuf, sendbuf)
    if P == 1:
        return
    yield from _ring_reduce_scatter(ctx, recvbuf, tags, plan, C,
                                    _block_chunks(sendbuf.nbytes, P, chunk))


@traced("nccl.allgather.ring")
def nccl_allgather(ctx: RankContext, buf: DeviceBuffer, *,
                   chunk_bytes: Optional[int] = None,
                   ) -> Generator[Event, Any, None]:
    """Ring allgather: rank r contributes block r of ``buf`` (rank
    indexing, as in :func:`allgather_ring`); circulation follows the
    topology-aware ring, so the traffic pattern — not the result —
    differs from the rank-order ring."""
    P = ctx.size
    chunk = _ring_chunk(ctx, chunk_bytes)
    plan = block_plan(buf.nbytes, P)
    C = _chunk_capacity(plan, chunk)
    tags = coll_tags(ctx, max(1, (P - 1) * C), "nccl.allgather")
    if P == 1:
        return
    ring = rings_of(ctx.comm)[0]
    # Blocks travel by owner rank: at step s position i relays the block
    # contributed by the rank s positions behind it on the ring.
    steps = plan.ring_steps(ring.position(ctx.rank), order=ring.order)
    yield from _ring_circulate(ctx, ring, buf, tags, 0, C, steps,
                               _block_chunks(buf.nbytes, P, chunk))


def _ring_circulate(ctx: RankContext, ring: Ring, buf: DeviceBuffer, tags,
                    tag0: int, C: int, steps: Sequence[Tuple[int, int, int]],
                    chunks: Sequence[Chunks],
                    ) -> Generator[Event, Any, None]:
    """Allgather-style rotation: at each ``(s, send_block, recv_block)``
    of ``steps``, forward one block's chunks to the right neighbour
    while receiving another's from the left into ``buf``; chunk c of
    step s uses tag ``tag0 + s*C + c`` of ``tags``."""
    hops, path_bytes, _ = _meters(ctx)
    right, left = ring.next_of(ctx.rank), ring.prev_of(ctx.rank)
    for s, sb, rb in steps:
        t0 = tag0 + s * C
        sreqs = []
        for c, (off, n) in enumerate(chunks[sb]):
            sreqs.append(ctx.isend(right, buf, tag=tags.tag(t0 + c),
                                   offset=off, nbytes=n))
            hops.inc(1)
            path_bytes.inc(n, path="ring")
        rreqs = [ctx.irecv(left, buf, tag=tags.tag(t0 + c), offset=off,
                           nbytes=n)
                 for c, (off, n) in enumerate(chunks[rb])]
        for req in rreqs:
            yield req.wait()
        for req in sreqs:
            yield req.wait()


def _ring_reduce_scatter(ctx: RankContext, recvbuf: DeviceBuffer, tags,
                         plan: BlockPlan, C: int, chunks: Sequence[Chunks],
                         ) -> Generator[Event, Any, None]:
    """Shared reduce-scatter rotation (position-indexed blocks); tags
    ``0 .. (P-1)*C`` of ``tags``."""
    ring = rings_of(ctx.comm)[0]
    hops, path_bytes, _ = _meters(ctx)
    right, left = ring.next_of(ctx.rank), ring.prev_of(ctx.rank)
    scratch = ctx.scratch_like(recvbuf, "nccl.ring.rx")
    try:
        for s, sb, rb in plan.ring_steps(ring.position(ctx.rank)):
            sreqs = []
            for c, (off, n) in enumerate(chunks[sb]):
                sreqs.append(ctx.isend(
                    right, recvbuf, tag=tags.tag(s * C + c),
                    offset=off, nbytes=n))
                hops.inc(1)
                path_bytes.inc(n, path="ring")
            # Post every chunk receive up front: chunk k+1 is on the
            # wire while chunk k's reduction kernel runs.
            rchunks = chunks[rb]
            rreqs = [ctx.irecv(left, scratch, tag=tags.tag(s * C + c),
                               offset=off, nbytes=n)
                     for c, (off, n) in enumerate(rchunks)]
            for req, (off, n) in zip(rreqs, rchunks):
                yield req.wait()
                yield from apply_reduction(ctx, recvbuf, scratch, n,
                                           offset=off)
            for req in sreqs:
                yield req.wait()
    finally:
        scratch.free()


@traced("nccl.allreduce.ring")
def nccl_allreduce_ring(ctx: RankContext, sendbuf: DeviceBuffer,
                        recvbuf: DeviceBuffer, *,
                        chunk_bytes: Optional[int] = None,
                        ) -> Generator[Event, Any, None]:
    """Ring allreduce: chunked reduce-scatter + allgather rotations
    around the topology-aware ring (2(P-1) steps, each moving 1/P of
    the payload — bandwidth-optimal)."""
    P = ctx.size
    chunk = _ring_chunk(ctx, chunk_bytes)
    plan = block_plan(sendbuf.nbytes, P)
    C = _chunk_capacity(plan, chunk)
    tags = coll_tags(ctx, max(1, 2 * (P - 1) * C), "nccl.allreduce.ring")
    yield from local_accumulate_copy(ctx, recvbuf, sendbuf)
    if P == 1:
        return
    chunks = _block_chunks(sendbuf.nbytes, P, chunk)
    yield from _ring_reduce_scatter(ctx, recvbuf, tags, plan, C, chunks)
    # Allgather: position i sends block i+1-s and receives block i-s.
    ring = rings_of(ctx.comm)[0]
    steps = plan.ring_steps(ring.position(ctx.rank), shift=1)
    yield from _ring_circulate(ctx, ring, recvbuf, tags, (P - 1) * C, C,
                               steps, chunks)


@traced("nccl.bcast.ring")
def nccl_bcast_ring(ctx: RankContext, buf: DeviceBuffer, root: int = 0, *,
                    chunk_bytes: Optional[int] = None,
                    ) -> Generator[Event, Any, None]:
    """Pipelined ring broadcast: the payload flows from the root around
    the topology-aware ring in ``ring_chunk`` chunks; every rank
    forwards chunk k while receiving chunk k+1 (NCCL's classic
    broadcast — latency P·α but full-bandwidth pipe once primed)."""
    P = ctx.size
    chunk = _ring_chunk(ctx, chunk_bytes)
    # The whole buffer is the single block of the P=1 plan.
    chunks = _block_chunks(buf.nbytes, 1, chunk)[0]
    tags = coll_tags(ctx, max(1, len(chunks)), "nccl.bcast.ring")
    if P == 1 or not chunks:
        return
    ring = rings_of(ctx.comm)[0]
    hops, path_bytes, _ = _meters(ctx)
    right, left = ring.next_of(ctx.rank), ring.prev_of(ctx.rank)
    sreqs = []
    if ctx.rank == root:
        for c, (off, n) in enumerate(chunks):
            sreqs.append(ctx.isend(right, buf, tag=tags.tag(c),
                                   offset=off, nbytes=n))
            hops.inc(1)
            path_bytes.inc(n, path="ring")
    else:
        rreqs = [ctx.irecv(left, buf, tag=tags.tag(c), offset=off, nbytes=n)
                 for c, (off, n) in enumerate(chunks)]
        for c, (req, (off, n)) in enumerate(zip(rreqs, chunks)):
            yield req.wait()
            if right != root:
                sreqs.append(ctx.isend(right, buf, tag=tags.tag(c),
                                       offset=off, nbytes=n))
                hops.inc(1)
                path_bytes.inc(n, path="ring")
    for req in sreqs:
        yield req.wait()


# -- double-binary-tree family ------------------------------------------------

def _tree_sources(trees: Tuple[Tree, Tree]) -> Tuple[int, int]:
    return trees[0].root, trees[1].root


@traced("nccl.bcast.tree")
def nccl_bcast_tree(ctx: RankContext, buf: DeviceBuffer, root: int = 0, *,
                    chunk_bytes: Optional[int] = None,
                    ) -> Generator[Event, Any, None]:
    """Double-binary-tree broadcast: each tree carries half the payload
    down log2-P levels; trees are built over virtual ranks rotated so
    the broadcast root is tree 0's root, and the root feeds half 1 to
    tree 1's root first (one extra hop)."""
    P = ctx.size
    chunk = _ring_chunk(ctx, chunk_bytes)
    C = _chunk_capacity(block_plan(buf.nbytes, 2), chunk)
    # Tag layout: tree edges use t*C + c; the root -> tree-1-root feed
    # uses 2*C + c.
    tags = coll_tags(ctx, max(1, 3 * C), "nccl.bcast.tree")
    if P == 1:
        return
    trees = trees_of(P)
    _, path_bytes, depth = _meters(ctx)
    depth.set_max(max(t.depth() for t in trees))
    vr = (ctx.rank - root) % P

    def actual(v: int) -> int:
        return (v + root) % P

    feed_src = _tree_sources(trees)[1]  # tree 1's root (virtual rank)
    half_chunks = _block_chunks(buf.nbytes, 2, chunk)

    # Feed half 1 from the broadcast root to tree 1's root.
    feed_reqs = []
    if feed_src != 0 and half_chunks[1]:
        if vr == 0:
            for c, (off, n) in enumerate(half_chunks[1]):
                feed_reqs.append(ctx.isend(actual(feed_src), buf,
                                           tag=tags.tag(2 * C + c),
                                           offset=off, nbytes=n))
                path_bytes.inc(n, path="tree")
        elif vr == feed_src:
            rreqs = [ctx.irecv(actual(0), buf, tag=tags.tag(2 * C + c),
                               offset=off, nbytes=n)
                     for c, (off, n) in enumerate(half_chunks[1])]
            for req in rreqs:
                yield req.wait()

    # Down each tree, chunk-interleaved so both halves are in flight.
    rx: List[List] = [[], []]
    for t, tree in enumerate(trees):
        source = 0 if t == 0 else feed_src
        if vr != source and tree.parent[vr] != -1 and half_chunks[t]:
            rx[t] = [ctx.irecv(actual(tree.parent[vr]), buf,
                               tag=tags.tag(t * C + c), offset=off,
                               nbytes=n)
                     for c, (off, n) in enumerate(half_chunks[t])]
    sreqs = []
    for c in range(C):
        for t, tree in enumerate(trees):
            if c >= len(half_chunks[t]):
                continue
            source = 0 if t == 0 else feed_src
            if vr != source:
                yield rx[t][c].wait()
            off, n = half_chunks[t][c]
            for child in tree.children[vr]:
                sreqs.append(ctx.isend(actual(child), buf,
                                       tag=tags.tag(t * C + c),
                                       offset=off, nbytes=n))
                path_bytes.inc(n, path="tree")
    for req in feed_reqs + sreqs:
        yield req.wait()


@traced("nccl.allreduce.tree")
def nccl_allreduce_tree(ctx: RankContext, sendbuf: DeviceBuffer,
                        recvbuf: DeviceBuffer, *,
                        chunk_bytes: Optional[int] = None,
                        ) -> Generator[Event, Any, None]:
    """Double-binary-tree allreduce: reduce each half up its tree, then
    broadcast the reduced halves back down — 2·log2 P latency with both
    halves on disjoint directed edges."""
    P = ctx.size
    chunk = _ring_chunk(ctx, chunk_bytes)
    C = _chunk_capacity(block_plan(sendbuf.nbytes, 2), chunk)
    # Tag layout: (phase * 2 + tree) * C + chunk; phase 0 = reduce-up,
    # phase 1 = bcast-down.
    tags = coll_tags(ctx, max(1, 4 * C), "nccl.allreduce.tree")
    yield from local_accumulate_copy(ctx, recvbuf, sendbuf)
    if P == 1:
        return
    trees = trees_of(P)
    _, path_bytes, depth = _meters(ctx)
    depth.set_max(max(t.depth() for t in trees))
    me = ctx.rank
    half_chunks = _block_chunks(sendbuf.nbytes, 2, chunk)

    def tag_of(phase: int, t: int, c: int) -> int:
        return tags.tag((phase * 2 + t) * C + c)

    # Reduce-up: children's chunks land in per-child scratches (posted
    # up front), get folded into recvbuf in child order, then forwarded.
    scratches = [ctx.scratch_like(recvbuf, f"nccl.tree.rx{i}")
                 for i in range(max((len(t.children[me]) for t in trees),
                                    default=0))]
    try:
        rx: Dict[Tuple[int, int], List] = {}
        for t, tree in enumerate(trees):
            for i, child in enumerate(tree.children[me]):
                rx[t, i] = [ctx.irecv(child, scratches[i],
                                      tag=tag_of(0, t, c), offset=off,
                                      nbytes=n)
                            for c, (off, n) in enumerate(half_chunks[t])]
        up: List = []
        for c in range(C):
            for t, tree in enumerate(trees):
                if c >= len(half_chunks[t]):
                    continue
                off, n = half_chunks[t][c]
                for i in range(len(tree.children[me])):
                    yield rx[t, i][c].wait()
                    yield from apply_reduction(ctx, recvbuf, scratches[i],
                                               n, offset=off)
                if tree.parent[me] != -1:
                    up.append(ctx.isend(tree.parent[me], recvbuf,
                                        tag=tag_of(0, t, c), offset=off,
                                        nbytes=n))
                    path_bytes.inc(n, path="tree")
        for req in up:
            yield req.wait()
    finally:
        for s in scratches:
            s.free()

    # Bcast-down: the tree roots now hold the fully-reduced halves.
    rx2: List[List] = [[], []]
    for t, tree in enumerate(trees):
        if tree.parent[me] != -1 and half_chunks[t]:
            rx2[t] = [ctx.irecv(tree.parent[me], recvbuf,
                                tag=tag_of(1, t, c), offset=off, nbytes=n)
                      for c, (off, n) in enumerate(half_chunks[t])]
    down: List = []
    for c in range(C):
        for t, tree in enumerate(trees):
            if c >= len(half_chunks[t]):
                continue
            if tree.parent[me] != -1:
                yield rx2[t][c].wait()
            off, n = half_chunks[t][c]
            for child in tree.children[me]:
                down.append(ctx.isend(child, recvbuf, tag=tag_of(1, t, c),
                                      offset=off, nbytes=n))
                path_bytes.inc(n, path="tree")
    for req in down:
        yield req.wait()


# -- size-based selection -----------------------------------------------------

def _tree_threshold(ctx: RankContext) -> int:
    return getattr(ctx.profile, "tree_threshold", NCCL.tree_threshold)


def _table_knobs(ctx: RankContext, collective: str,
                 nbytes: int) -> Optional[Dict[str, Any]]:
    """Committed tuning-table consult for the size-based dispatchers.

    Applies only to *stock* profiles: a hand-tuned profile (any CVAR
    write goes through ``derive`` and breaks registry equality) always
    wins over the offline table; the gate runs on every call, so CVAR
    writes and :func:`~repro.tune.tables.tables_disabled` take effect
    immediately.
    """
    if not tables.enabled() or not is_stock_profile(ctx.profile):
        return None
    return tables.lookup(ctx.profile.name, collective,
                         tables.comm_topology(ctx.comm), ctx.size, nbytes)


def nccl_allreduce(ctx: RankContext, sendbuf: DeviceBuffer,
                   recvbuf: DeviceBuffer, *,
                   chunk_bytes: Optional[int] = None,
                   algorithm: Optional[str] = None,
                   ) -> Generator[Event, Any, None]:
    """NCCL allreduce with size-based ring/tree selection: payloads at
    or below ``tree_threshold`` take the latency-optimal trees, larger
    ones the bandwidth-optimal ring.

    When neither ``algorithm`` nor ``chunk_bytes`` is given and the
    profile is stock, a committed tuning table (``repro tune``) may
    override the threshold decision for this (topology, P, size) point.
    """
    if algorithm is None and chunk_bytes is None:
        knobs = _table_knobs(ctx, "allreduce", sendbuf.nbytes)
        if knobs is not None:
            algorithm = knobs.get("algorithm")
            chunk_bytes = knobs.get("chunk_bytes")
    if algorithm is None:
        algorithm = ("tree" if sendbuf.nbytes <= _tree_threshold(ctx)
                     else "ring")
    if algorithm == "ring":
        yield from nccl_allreduce_ring(ctx, sendbuf, recvbuf,
                                       chunk_bytes=chunk_bytes)
    elif algorithm == "tree":
        yield from nccl_allreduce_tree(ctx, sendbuf, recvbuf,
                                       chunk_bytes=chunk_bytes)
    else:
        raise KeyError(f"unknown nccl allreduce algorithm {algorithm!r}")


def nccl_bcast(ctx: RankContext, buf: DeviceBuffer, root: int = 0, *,
               chunk_bytes: Optional[int] = None,
               algorithm: Optional[str] = None,
               ) -> Generator[Event, Any, None]:
    """NCCL broadcast with size-based ring/tree selection (tuning-table
    aware, same contract as :func:`nccl_allreduce`)."""
    if algorithm is None and chunk_bytes is None:
        knobs = _table_knobs(ctx, "bcast", buf.nbytes)
        if knobs is not None:
            algorithm = knobs.get("algorithm")
            chunk_bytes = knobs.get("chunk_bytes")
    if algorithm is None:
        algorithm = ("tree" if buf.nbytes <= _tree_threshold(ctx)
                     else "ring")
    if algorithm == "ring":
        yield from nccl_bcast_ring(ctx, buf, root, chunk_bytes=chunk_bytes)
    elif algorithm == "tree":
        yield from nccl_bcast_tree(ctx, buf, root, chunk_bytes=chunk_bytes)
    else:
        raise KeyError(f"unknown nccl bcast algorithm {algorithm!r}")
