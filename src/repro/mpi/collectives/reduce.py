"""Flat reduction algorithms: binomial tree and chunked chain.

These are the two building blocks of the paper's Section-5 analysis:

- **Binomial tree** (``reduce_binomial``): log2(P) rounds; each round an
  internal node receives a full buffer and reduces it.  Cost model
  T(Bin) = log(P) * t(b)   — equation (1).
- **Chunked chain** (``reduce_chain``): the buffer is cut into n chunks
  which flow along a directed chain toward the root; each hop overlaps
  the communication and reduction of successive chunks.  Cost model
  T(CC) = (n + P - 2) * t(c), c = b/n   — equation (2).

The reduction operator is SUM (gradient aggregation); when buffers carry
real payloads the arithmetic is actually performed, so correctness tests
can verify byte-exact results through either algorithm.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Union

from ...cuda import DeviceBuffer
from ...sim import Event
from ..communicator import RankContext
from ..request import Request
from .base import TagBlock, apply_reduction, as_tag_block, coll_tags, \
    local_accumulate_copy, segments, traced, validate_knob

__all__ = ["reduce_binomial", "reduce_chain", "reduce", "ireduce"]


@traced("reduce.binomial")
def reduce_binomial(ctx: RankContext, sendbuf: DeviceBuffer,
                    recvbuf: Optional[DeviceBuffer], root: int = 0,
                    *, tag_base: Union[int, TagBlock, None] = None,
                    ) -> Generator[Event, Any, None]:
    """Binomial-tree MPI_Reduce (SUM) with per-profile segmentation.

    ``recvbuf`` is required at the root and ignored elsewhere.  Internal
    tree nodes allocate a scratch accumulator and a receive buffer on
    their GPU for the duration of the call.
    """
    P = ctx.size
    me = ctx.rank
    if me == root and recvbuf is None:
        raise ValueError("root must supply recvbuf")
    segs = segments(sendbuf.nbytes, ctx.profile.reduce_segment)
    # Reservation sized by the actual segment count: a fine-grained
    # segmentation of a big buffer may need more than one TAG_BLOCK unit.
    tags = (coll_tags(ctx, len(segs), "reduce.binomial")
            if tag_base is None
            else as_tag_block(tag_base, len(segs), "reduce.binomial"))

    if P == 1:
        if recvbuf is not None and recvbuf is not sendbuf:
            yield from local_accumulate_copy(ctx, recvbuf, sendbuf)
        return

    vrank = (me - root) % P

    # Accumulator: the root reduces straight into recvbuf; interior nodes
    # use device scratch.  Leaves send their sendbuf directly.
    acc: Optional[DeviceBuffer] = None
    scratch: Optional[DeviceBuffer] = None

    def ensure_acc():
        nonlocal acc, scratch
        if acc is None:
            acc = recvbuf if me == root else ctx.scratch_like(
                sendbuf, name="binred.acc")
            scratch = ctx.scratch_like(sendbuf, name="binred.rx")

    try:
        mask = 1
        received_any = False
        while mask < P:
            if vrank & mask:
                # Send the accumulated value to the parent and stop.
                parent = ((vrank & ~mask) + root) % P
                outbuf = acc if received_any else sendbuf
                send_reqs = [
                    ctx.isend(parent, outbuf, tag=tags.tag(k),
                              offset=off, nbytes=n)
                    for k, (off, n) in enumerate(segs)]
                for r in send_reqs:
                    yield r.wait()
                break
            child_v = vrank | mask
            if child_v < P:
                child = (child_v + root) % P
                ensure_acc()
                if not received_any:
                    yield from local_accumulate_copy(ctx, acc, sendbuf)
                    received_any = True
                yield from _segmented_recv_reduce(
                    ctx, acc, scratch, child, tags, segs)
            mask <<= 1
        else:
            # Loop completed without break -> this rank is the root.
            if not received_any:
                ensure_acc()
                yield from local_accumulate_copy(ctx, acc, sendbuf)
    finally:
        if scratch is not None:
            scratch.free()
        if acc is not None and acc is not recvbuf:
            acc.free()


def _segmented_recv_reduce(ctx: RankContext, acc: DeviceBuffer,
                           scratch: DeviceBuffer, child: int, tags: TagBlock,
                           segs) -> Generator[Event, Any, None]:
    """Receive a contribution segment-by-segment and fold it into ``acc``.

    With ``segment_pipelining`` all receives are pre-posted so segment
    k+1 arrives while segment k is being reduced; otherwise (OpenMPI
    profile) each segment completes — receive, reduce, synchronize —
    before the next starts.
    """
    if ctx.profile.segment_pipelining:
        reqs = [ctx.irecv(child, scratch, tag=tags.tag(k), offset=off,
                          nbytes=n)
                for k, (off, n) in enumerate(segs)]
        for req, (off, n) in zip(reqs, segs):
            yield req.wait()
            yield from apply_reduction(ctx, acc, scratch, n, offset=off)
    else:
        for k, (off, n) in enumerate(segs):
            yield from ctx.recv(child, scratch, tag=tags.tag(k),
                                offset=off, nbytes=n)
            yield from apply_reduction(ctx, acc, scratch, n, offset=off)
            sync = ctx.profile.segment_sync_time(n)
            if sync:
                yield ctx.sim.timeout(sync)


@traced("reduce.chain")
def reduce_chain(ctx: RankContext, sendbuf: DeviceBuffer,
                 recvbuf: Optional[DeviceBuffer], root: int = 0,
                 *, chunk_bytes: Optional[int] = None,
                 tag_base: Union[int, TagBlock, None] = None,
                 window: Optional[int] = None,
                 ) -> Generator[Event, Any, None]:
    """Chunked-chain MPI_Reduce (SUM).

    The chain is ordered root, root+1, ..., root+P-1 (mod P).  The last
    process streams its buffer chunk-by-chunk to its left neighbour; each
    interior process receives chunk k, folds in its own chunk k, and
    forwards — a single-sided pipeline terminating at the root
    (Section 5).

    ``window`` bounds the number of pre-posted receives per hop
    (rendezvous flow control).  ``None`` pre-posts everything — infinite
    buffering, which absorbs skew; small windows model real runtimes'
    bounded RNDV buffers, through which pipeline bubbles propagate.
    """
    P = ctx.size
    me = ctx.rank
    if me == root and recvbuf is None:
        raise ValueError("root must supply recvbuf")
    validate_knob(chunk_bytes, "chunk_bytes")
    validate_knob(window, "window")
    chunk = ctx.profile.reduce_segment if chunk_bytes is None else chunk_bytes
    chunks = segments(sendbuf.nbytes, chunk)
    # Sized by chunk count: the chain's whole point is many small chunks,
    # so a large buffer over a tiny chunk_bytes easily exceeds one unit.
    tags = (coll_tags(ctx, len(chunks), "reduce.chain")
            if tag_base is None
            else as_tag_block(tag_base, len(chunks), "reduce.chain"))
    if P == 1:
        if recvbuf is not None and recvbuf is not sendbuf:
            yield from local_accumulate_copy(ctx, recvbuf, sendbuf)
        return

    pos = (me - root) % P            # 0 = root ... P-1 = chain tail
    right = ((pos + 1) + root) % P   # upstream neighbour
    left = ((pos - 1) + root) % P    # downstream neighbour

    if pos == P - 1:
        # Tail: stream own chunks downstream.
        reqs = [ctx.isend(left, sendbuf, tag=tags.tag(k), offset=off,
                          nbytes=n)
                for k, (off, n) in enumerate(chunks)]
        for r in reqs:
            yield r.wait()
        return

    # Interior / root: fold the upstream stream into an accumulator.
    # Receives target a scratch buffer (receiving into ``acc`` directly
    # would overwrite this rank's own contribution before the add).
    acc = recvbuf if pos == 0 else ctx.scratch_like(sendbuf, "chain.acc")
    scratch = ctx.scratch_like(sendbuf, "chain.rx")
    send_reqs = []
    try:
        yield from local_accumulate_copy(ctx, acc, sendbuf)
        if ctx.profile.segment_pipelining:
            if window is None and ctx.profile.pipeline_window:
                # Profile default (MPI_T cvar coll.pipeline_window);
                # 0 keeps the historical all-preposted behaviour.
                window = ctx.profile.pipeline_window
            W = len(chunks) if window is None else window
            rx = [ctx.irecv(right, scratch, tag=tags.tag(k), offset=off,
                            nbytes=n)
                  for k, (off, n) in enumerate(chunks[:W])]
            for k, (off, n) in enumerate(chunks):
                yield rx[k].wait()
                if k + W < len(chunks):
                    off2, n2 = chunks[k + W]
                    rx.append(ctx.irecv(right, scratch, tag=tags.tag(k + W),
                                        offset=off2, nbytes=n2))
                yield from apply_reduction(ctx, acc, scratch, n, offset=off)
                if pos != 0:
                    send_reqs.append(ctx.isend(left, acc, tag=tags.tag(k),
                                               offset=off, nbytes=n))
        else:
            for k, (off, n) in enumerate(chunks):
                yield from ctx.recv(right, scratch, tag=tags.tag(k),
                                    offset=off, nbytes=n)
                yield from apply_reduction(ctx, acc, scratch, n, offset=off)
                if pos != 0:
                    yield from ctx.send(left, acc, tag=tags.tag(k),
                                        offset=off, nbytes=n)
                sync = ctx.profile.segment_sync_time(n)
                if sync:
                    yield ctx.sim.timeout(sync)
        for r in send_reqs:
            yield r.wait()
    finally:
        scratch.free()
        if acc is not recvbuf:
            acc.free()


_ALGORITHMS = {"binomial": reduce_binomial, "chain": reduce_chain}


def reduce(ctx: RankContext, sendbuf: DeviceBuffer,
           recvbuf: Optional[DeviceBuffer], root: int = 0, *,
           algorithm: Optional[str] = None,
           **kwargs) -> Generator[Event, Any, None]:
    """Blocking MPI_Reduce with a selectable flat algorithm."""
    name = algorithm or ctx.profile.flat_reduce_algorithm
    try:
        algo = _ALGORITHMS[name]
    except KeyError:
        raise KeyError(f"unknown reduce algorithm {name!r}")
    yield from algo(ctx, sendbuf, recvbuf, root, **kwargs)


def ireduce(ctx: RankContext, sendbuf: DeviceBuffer,
            recvbuf: Optional[DeviceBuffer], root: int = 0, *,
            algorithm: Optional[str] = None) -> Request:
    """Non-blocking MPI_Ireduce.

    Regardless of profile, the reduction's *computation* does not
    progress asynchronously — MPI runtimes rely on the CPU inside
    MPI_Wait for reduction arithmetic (Section 4.2: "MPI runtimes do not
    provide efficient NBC reduction primitives ... which clearly
    nullifies the overlap potential").  Hence the entire operation is
    deferred to the first ``wait()`` call.  This is precisely why S-Caffe
    needs the helper-thread co-design (SC-OBR) instead of Ireduce.
    """
    req = Request(ctx.sim, label=("ireduce", root, ctx.rank))

    def deferred():
        def run():
            try:
                yield from reduce(ctx, sendbuf, recvbuf, root,
                                  algorithm=algorithm)
            except Exception as exc:
                # Deliver failures (revocation, dead peer, transport
                # timeout) through the request; an unwaited failed
                # process would crash the simulation instead.
                req.fail(exc)
                return
            req.complete(None)
        ctx.sim.process(run(), name=f"ireduce.r{ctx.rank}", eager=True)

    req._on_wait = deferred
    return req
