"""Communicators, rank contexts, and the point-to-point engine.

Rank programs are SPMD generators: the runtime runs one sim process per
rank, and each process calls ``yield from`` on collective/pt2pt
sub-protocols with its own :class:`RankContext`.  Matching follows MPI
semantics — per-communicator FIFO matching on ``(source, tag)`` with
``ANY_SOURCE``/``ANY_TAG`` wildcards, eager completion for small messages
and rendezvous for large ones.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Dict, Generator, List, NamedTuple, Optional, Tuple

import numpy as np

from ..cuda import CudaRuntime, DeviceBuffer
from ..hardware.gpu import GPUDevice
from ..hardware.topology import acquisition_order, hold_time
from ..sim import Barrier, Event, Interrupt, Simulator
from .failure import CommRevoked, RankFailure
from .profiles import MPIProfile
from .request import ANY_SOURCE, ANY_TAG, Request
from .transport import CutThrough, TransportTimeout

__all__ = ["Communicator", "RankContext", "MessageStatus"]


class MessageStatus(NamedTuple):
    """Receive-completion status (matched envelope)."""

    source: int
    tag: int
    nbytes: int


class _PendingSend:
    __slots__ = ("src_rank", "tag", "buf", "offset", "nbytes", "request",
                 "eager", "snapshot")

    def __init__(self, src_rank: int, tag: int, buf: DeviceBuffer,
                 offset: int, nbytes: int, request: Request, eager: bool,
                 snapshot: Optional[np.ndarray] = None):
        self.src_rank = src_rank
        self.tag = tag
        self.buf = buf
        self.offset = offset
        self.nbytes = nbytes
        self.request = request
        self.eager = eager
        # Eager sends complete locally before the transfer runs, so the
        # payload must be captured at send time (the caller may legally
        # reuse the buffer once the request completes).
        self.snapshot = snapshot


class _PostedRecv:
    __slots__ = ("source", "tag", "buf", "offset", "max_nbytes", "request")

    def __init__(self, source: int, tag: int, buf: DeviceBuffer,
                 offset: int, max_nbytes: int, request: Request):
        self.source = source
        self.tag = tag
        self.buf = buf
        self.offset = offset
        self.max_nbytes = max_nbytes
        self.request = request


class _DirectTransfer:
    """A matched message on a cut-through path, driven by callbacks.

    The process-free twin of :meth:`Communicator._start_transfer`'s
    mover, for the paths :meth:`DeviceTransport.direct_route` admits.
    It requests the links in :func:`multi_link_transfer`'s order (an
    inline grant continues at once, a queued one from a callback on the
    request event), posts the one hold timeout, and at expiry releases,
    delivers and completes both requests — the mover's event sequence,
    minus the generator stack.  Like a mover it sits in ``_inflight``
    and answers ``is_alive``/``interrupt`` for :meth:`Communicator.revoke`.
    """

    __slots__ = ("comm", "send", "recv", "links", "grants", "duration",
                 "_wait")

    def __init__(self, comm: "Communicator", send: _PendingSend,
                 recv: _PostedRecv, path: CutThrough):
        self.comm = comm
        self.send = send
        self.recv = recv
        comm.runtime.transport.note_path(path, send.nbytes)
        self.links = acquisition_order(path.links)
        self.grants: List[int] = []
        self.duration = hold_time(comm.sim, path.links, send.nbytes,
                                  path.extra)
        #: The event whose callback drives the next step: the queued
        #: link request, then the hold timeout; None once finished.
        self._wait: Optional[Event] = None
        self._acquire()

    @property
    def is_alive(self) -> bool:
        return self._wait is not None

    def _acquire(self) -> None:
        links = self.links
        grants = self.grants
        n = self.send.nbytes
        while len(grants) < len(links):
            link = links[len(grants)]
            req = link._res.request()
            if req.callbacks is not None:
                self._wait = req
                req.callbacks.append(self._granted)
                return
            grants.append(req._value)
            link.messages += 1
            link.bytes_moved += n
        self._wait = hold = self.comm.sim.timeout(self.duration)
        hold.callbacks.append(self._expire)

    def _granted(self, req: Event) -> None:
        link = self.links[len(self.grants)]
        self.grants.append(req._value)
        link.messages += 1
        link.bytes_moved += self.send.nbytes
        self._acquire()

    def _release(self) -> None:
        for link, grant in zip(self.links, self.grants):
            link._res.release(grant)

    def _expire(self, _hold: Event) -> None:
        self._wait = None
        self._release()
        send, recv = self.send, self.recv
        comm = self.comm
        comm.runtime.transport.deliver(
            send.buf, recv.buf, send.nbytes, send.offset, recv.offset,
            send.snapshot)
        comm._inflight.pop(self, None)
        status = MessageStatus(send.src_rank, send.tag, send.nbytes)
        if not send.eager and not send.request.completed:
            send.request.complete(status)
        if not recv.request.completed:
            recv.request.complete(status)

    def interrupt(self, cause: Any = None) -> None:
        """Abort, as :meth:`Process.interrupt` aborts a mover: stop
        waiting now, clean up from one urgent event."""
        wait = self._wait
        cbs = wait.callbacks
        if cbs is not None:
            cbs.remove(self._granted if len(self.grants) < len(self.links)
                       else self._expire)
        ev = self.comm.sim.event()
        ev.callbacks.append(self._abort)
        ev.succeed()

    def _abort(self, _ev: Event) -> None:
        if len(self.grants) < len(self.links):
            # Withdraw the queued request (or hand back a grant issued
            # to it since the interrupt).
            self.links[len(self.grants)]._res.cancel(self._wait)
        self._release()
        self._wait = None


class Communicator:
    """A group of ranks mapped onto GPUs, with its own matching space.

    Sub-communicators created by :meth:`split` translate their local rank
    numbering onto the parent's GPUs; the HR designs build their
    multi-level communicators this way (Section 5).
    """

    _ids = itertools.count()

    def __init__(self, runtime: "MPIRuntime", gpus: List[GPUDevice],
                 name: str = "world"):
        if not gpus:
            raise ValueError("communicator needs at least one rank")
        self.runtime = runtime
        self.sim: Simulator = runtime.sim
        self.gpus = list(gpus)
        self.name = name
        self.id = next(self._ids)
        # Per-destination-rank matching state.
        self._unexpected: Dict[int, deque] = {
            r: deque() for r in range(len(gpus))}
        self._posted: Dict[int, deque] = {
            r: deque() for r in range(len(gpus))}
        self._barrier = Barrier(self.sim, len(gpus))
        # Collective sequence numbers (tag reservations); pre-created so
        # the per-collective hot path skips the lazy-init hasattr.
        self._coll_seq = [0] * len(gpus)
        self._revoked: Optional[BaseException] = None
        self._shrunk: Dict[Tuple[int, ...], "Communicator"] = {}
        # Matched pairs whose transfer is in flight (mover process or
        # _DirectTransfer handle -> (send, recv)).  Queued operations
        # live in _posted/_unexpected; once matched they exist only
        # here, and revoke() must fail them too — a transfer parked on
        # a stalled link never completes on its own, and ULFM
        # revocation promises *every* pending operation errors out.
        self._inflight: Dict[Any, Tuple[_PendingSend, _PostedRecv]] = {}
        runtime.failure_detector.register_comm(self)

    @property
    def size(self) -> int:
        return len(self.gpus)

    @property
    def revoked(self) -> bool:
        return self._revoked is not None

    # -- fault tolerance (ULFM flavour) ------------------------------------
    def revoke(self, exc: BaseException) -> None:
        """Invalidate the communicator after a rank failure.

        Every posted receive and pending (non-eager) send fails with
        :class:`CommRevoked`, the barrier is broken, and all future
        pt2pt entry calls fail fast — survivors blocked on a dead peer
        unwind into their recovery path instead of deadlocking.
        Idempotent.
        """
        if self._revoked is not None:
            return
        wrapped = CommRevoked(f"communicator {self.name} revoked ({exc})")
        wrapped.__cause__ = exc
        self._revoked = wrapped
        for q in self._posted.values():
            for recv in q:
                if not recv.request.completed:
                    recv.request.fail(wrapped)
            q.clear()
        for q in self._unexpected.values():
            for send in q:
                if not send.eager and not send.request.completed:
                    send.request.fail(wrapped)
            q.clear()
        # Matched pairs mid-transfer: fail their requests and interrupt
        # the mover or direct handle — a transfer parked on a stalled
        # link would otherwise hold its receiver hostage forever,
        # invisible to the queue sweeps above.
        for proc, (send, recv) in list(self._inflight.items()):
            if not send.eager and not send.request.completed:
                send.request.fail(wrapped)
            if not recv.request.completed:
                recv.request.fail(wrapped)
            if proc.is_alive:
                proc.interrupt(wrapped)
        self._inflight.clear()
        self._barrier.abort(wrapped)

    def shrink(self) -> "Communicator":
        """A communicator over the surviving ranks (MPIX_Comm_shrink).

        Survivor order follows this communicator's rank order, so every
        caller derives the same numbering.  Results are cached by
        membership: concurrent recovery on all survivors agrees on one
        replacement communicator.  Returns ``self`` when nothing died
        and the communicator is not revoked.
        """
        det = self.runtime.failure_detector
        alive = [r for r, g in enumerate(self.gpus) if not det.is_dead(g)]
        if len(alive) == self.size and self._revoked is None:
            return self
        if not alive:
            raise RankFailure(f"communicator {self.name}: no survivors")
        key = tuple(alive)
        cached = self._shrunk.get(key)
        if cached is not None and not cached.revoked:
            return cached
        sub = self.split(alive, name=f"{self.name}~{len(alive)}")
        self._shrunk[key] = sub
        return sub

    def gpu_of(self, rank: int) -> GPUDevice:
        return self.gpus[rank]

    def context(self, rank: int) -> "RankContext":
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range for size {self.size}")
        return RankContext(self, rank)

    def split(self, members: List[int], name: str = "") -> "Communicator":
        """Sub-communicator over ``members`` (parent rank ids, ordered).

        The member at position *i* becomes rank *i* of the new
        communicator (MPI_Comm_split with explicit ordering).
        """
        if len(set(members)) != len(members):
            raise ValueError("duplicate ranks in split")
        gpus = [self.gpus[r] for r in members]
        return Communicator(self.runtime, gpus,
                            name=name or f"{self.name}.split{len(members)}")

    # -- matching engine ------------------------------------------------------
    def _match_recv(self, dst: int, recv: _PostedRecv) -> Optional[_PendingSend]:
        q = self._unexpected[dst]
        for i, send in enumerate(q):
            if ((recv.source in (ANY_SOURCE, send.src_rank))
                    and (recv.tag in (ANY_TAG, send.tag))):
                del q[i]
                return send
        return None

    def _match_send(self, dst: int, send: _PendingSend) -> Optional[_PostedRecv]:
        q = self._posted[dst]
        for i, recv in enumerate(q):
            if ((recv.source in (ANY_SOURCE, send.src_rank))
                    and (recv.tag in (ANY_TAG, send.tag))):
                del q[i]
                return recv
        return None

    def _start_transfer(self, send: _PendingSend, recv: _PostedRecv,
                        dst_rank: int) -> None:
        if send.nbytes > recv.max_nbytes:
            exc = RuntimeError(
                f"message truncation: {send.nbytes} > {recv.max_nbytes} "
                f"(comm {self.name}, {send.src_rank}->{dst_rank}, "
                f"tag {send.tag})")
            recv.request.fail(exc)
            if not send.eager:
                send.request.fail(exc)
            return

        transport = self.runtime.transport
        path = transport.direct_route(send.buf, recv.buf, send.nbytes,
                                      send.offset, recv.offset)
        if path is not None:
            direct = _DirectTransfer(self, send, recv, path)
            self._inflight[direct] = (send, recv)
            return

        # Registration cell: filled after the (eager) spawn returns, so
        # a mover that somehow finishes inline deregisters a no-op.
        hold: List[Any] = []

        def mover():
            try:
                # The eager-send snapshot rides down as the transfer's
                # payload so delivery (and the integrity verify) happen
                # in one place, inside the transport.
                yield from transport.transfer(
                    send.buf, recv.buf, send.nbytes,
                    src_offset=send.offset, dst_offset=recv.offset,
                    payload=send.snapshot)
            except TransportTimeout as exc:
                # Deliver through the requests instead of crashing the
                # simulation from an unwaited mover process.
                if not send.eager and not send.request.completed:
                    send.request.fail(exc)
                if not recv.request.completed:
                    recv.request.fail(exc)
                return
            except Interrupt:
                # Revocation killed this in-flight transfer (it may be
                # parked on a stalled link and would never finish on its
                # own); revoke() already failed both requests.
                return
            finally:
                if hold:
                    self._inflight.pop(hold[0], None)
            status = MessageStatus(send.src_rank, send.tag, send.nbytes)
            # Revocation may have failed the requests while the bytes
            # were in flight; completion is then a no-op.
            if not send.eager and not send.request.completed:
                send.request.complete(status)
            if not recv.request.completed:
                recv.request.complete(status)

        # Eager: the mover runs inline to its first link hold / wire
        # timeout, skipping the spawn kick (it touches only the
        # transfer's own links, and completion always crosses at least
        # one timeout, so the caller never observes a finished request
        # out of thin air).
        proc = self.sim.process(mover(), name=f"{self.name}.xfer",
                                eager=True)
        if proc.is_alive:
            hold.append(proc)
            self._inflight[proc] = (send, recv)

    # -- pt2pt entry points ------------------------------------------------------
    def isend(self, src_rank: int, dst_rank: int, buf: DeviceBuffer,
              *, tag: int = 0, offset: int = 0,
              nbytes: Optional[int] = None) -> Request:
        if not 0 <= dst_rank < self.size:
            raise ValueError(f"bad destination rank {dst_rank}")
        if tag < 0:
            raise ValueError("send tag must be >= 0")
        n = buf.nbytes - offset if nbytes is None else nbytes
        chk = self.sim.checker
        if chk is not None:
            chk.on_send(self, src_rank, dst_rank, tag, n)
        tel = self.sim.telemetry
        if tel is not None:
            tel.on_send(self, tag, n)
        # Tuple label: formatted only if an error message needs it.
        req = Request(self.sim, label=("isend", src_rank, dst_rank, tag))
        if self._revoked is not None:
            req.fail(self._revoked)
            return req
        det = self.runtime.failure_detector
        if det.any_dead() and det.is_dead(self.gpus[dst_rank]):
            req.fail(RankFailure(
                f"send to dead rank {dst_rank} on {self.name}"))
            return req
        profile = self.runtime.profile
        eager = n <= profile.eager_threshold
        snapshot = None
        if eager and buf.has_data:
            snapshot = buf.data.view(np.uint8)[offset:offset + n].copy()
        send = _PendingSend(src_rank, tag, buf, offset, n, req, eager,
                            snapshot)
        if eager:
            # Sender-side completion is local: inject-and-forget.  A bare
            # timeout callback (no process) keeps this off the scheduler's
            # hot path — one event instead of a kick + resume pair.
            def eager_complete(_t):
                if not req.completed:  # revocation may beat us here
                    req.complete(MessageStatus(src_rank, tag, n))
            self.sim.timeout(
                self.runtime.cal.mpi_message_overhead
            ).add_callback(eager_complete)
        recv = self._match_send(dst_rank, send)
        if recv is not None:
            self._start_transfer(send, recv, dst_rank)
        else:
            self._unexpected[dst_rank].append(send)
            if tel is not None:
                tel.on_queue_depth("unexpected",
                                   len(self._unexpected[dst_rank]))
        return req

    def irecv(self, dst_rank: int, source: int, buf: DeviceBuffer,
              *, tag: int = ANY_TAG, offset: int = 0,
              nbytes: Optional[int] = None) -> Request:
        if source != ANY_SOURCE and not 0 <= source < self.size:
            raise ValueError(f"bad source rank {source}")
        n = buf.nbytes - offset if nbytes is None else nbytes
        chk = self.sim.checker
        if chk is not None:
            chk.on_recv_post(self, dst_rank, source, tag, n)
        req = Request(self.sim, label=("irecv", source, dst_rank, tag))
        if self._revoked is not None:
            req.fail(self._revoked)
            return req
        det = self.runtime.failure_detector
        if (source != ANY_SOURCE and det.any_dead()
                and det.is_dead(self.gpus[source])):
            req.fail(RankFailure(
                f"recv from dead rank {source} on {self.name}"))
            return req
        recv = _PostedRecv(source, tag, buf, offset, n, req)
        send = self._match_recv(dst_rank, recv)
        if send is not None:
            self._start_transfer(send, recv, dst_rank)
        else:
            self._posted[dst_rank].append(recv)
            tel = self.sim.telemetry
            if tel is not None:
                tel.on_queue_depth("posted", len(self._posted[dst_rank]))
        return req


class RankContext:
    """Everything a rank program needs: identity, pt2pt, scratch memory."""

    def __init__(self, comm: Communicator, rank: int):
        self.comm = comm
        self.rank = rank
        self.sim: Simulator = comm.sim
        self.gpu: GPUDevice = comm.gpu_of(rank)
        self.runtime: "MPIRuntime" = comm.runtime
        self.cuda: CudaRuntime = comm.runtime.cuda
        self.profile: MPIProfile = comm.runtime.profile

    @property
    def size(self) -> int:
        return self.comm.size

    # -- pt2pt (bound to this rank) --------------------------------------------
    def isend(self, dst: int, buf: DeviceBuffer, **kw) -> Request:
        return self.comm.isend(self.rank, dst, buf, **kw)

    def irecv(self, source: int, buf: DeviceBuffer, **kw) -> Request:
        return self.comm.irecv(self.rank, source, buf, **kw)

    def send(self, dst: int, buf: DeviceBuffer, **kw
             ) -> Generator[Event, Any, Any]:
        req = self.isend(dst, buf, **kw)
        result = yield req.wait()
        return result

    def recv(self, source: int, buf: DeviceBuffer, **kw
             ) -> Generator[Event, Any, Any]:
        req = self.irecv(source, buf, **kw)
        result = yield req.wait()
        return result

    def barrier(self) -> Generator[Event, Any, None]:
        """Synchronize all ranks of the communicator.

        Charged a dissemination-style latency of ceil(log2(P)) network
        hops on top of the rendezvous.
        """
        import math
        hops = max(1, math.ceil(math.log2(max(2, self.size))))
        rec = self.sim.recorder
        if rec is None:
            yield self.sim.timeout(hops * self.runtime.cal.ib_latency)
            yield self.comm._barrier.arrive()
            return
        sid = rec.open("overhead", label=f"{self.comm.name}.barrier.hops")
        yield self.sim.timeout(hops * self.runtime.cal.ib_latency)
        rec.close(sid)
        # The wait-for-last-arrival interval is attributed explicitly so
        # barrier skew shows up as "barrier", not an anonymous gap.
        sid = rec.open("barrier", label=self.comm.name)
        try:
            yield self.comm._barrier.arrive()
        finally:
            rec.close(sid)

    # -- scratch device memory -----------------------------------------------------
    def scratch_like(self, buf: DeviceBuffer, name: str = "scratch"
                     ) -> DeviceBuffer:
        """Temporary device buffer shaped like ``buf`` (payload iff buf has
        payload), on this rank's GPU."""
        if buf.has_data:
            out = DeviceBuffer(self.gpu, buf.nbytes,
                               np.zeros_like(buf.data), name=name)
        else:
            out = DeviceBuffer(self.gpu, buf.nbytes, name=name)
        chk = self.sim.checker
        if chk is not None:
            # Scratch must be freed by the collective that allocated it;
            # user buffers (allocated directly) may legitimately outlive
            # the run, so only these are leak-checked.
            chk.on_scratch(out)
        return out

    def sub_context(self, comm: Communicator) -> Optional["RankContext"]:
        """This rank's context in a sub-communicator (None if not a member).

        Membership is by GPU identity, which is unambiguous because a GPU
        hosts exactly one rank in this runtime.
        """
        for r, g in enumerate(comm.gpus):
            if g is self.gpu:
                return comm.context(r)
        return None
