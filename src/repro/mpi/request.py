"""MPI request objects (handles for non-blocking operations)."""

from __future__ import annotations

from typing import Any, Generator, Iterable, List, Optional

from ..sim import Event, Simulator

__all__ = ["Request", "RequestTimeout", "waitall", "waitany",
           "ANY_SOURCE", "ANY_TAG"]

#: Wildcards for receive matching (mirror MPI_ANY_SOURCE / MPI_ANY_TAG).
ANY_SOURCE = -1
ANY_TAG = -1


class RequestTimeout(RuntimeError):
    """A ``wait(timeout=...)`` deadline expired before completion."""


class Request:
    """Handle for an in-flight non-blocking operation.

    ``yield req.wait()`` blocks the calling process until completion;
    ``req.test()`` polls.  Completion may carry a status payload (e.g. the
    matched source/tag for receives).
    """

    __slots__ = ("sim", "_done", "label", "_on_wait")

    def __init__(self, sim: Simulator, label: Any = ""):
        # ``label`` may be any cheap debug token (hot paths pass tuples
        # to avoid f-string formatting); it is only rendered in errors.
        self.sim = sim
        self.label = label
        self._done = sim.event()
        # Request failures are delivered through wait(); the internal
        # event must not trip the kernel's unhandled-failure check when
        # the failure lands before any waiter registers.
        self._done._defused = True
        #: Optional hook invoked at the first wait() call — used to model
        #: operations that only progress *inside* MPI_Wait (e.g. Ireduce
        #: under runtimes with no asynchronous reduction progress).
        self._on_wait = None
        chk = sim.checker
        if chk is not None:
            chk.on_request(self)

    # -- completion (runtime side) ------------------------------------------
    def complete(self, status: Any = None) -> None:
        self._done.succeed(status)

    def fail(self, exc: BaseException) -> None:
        self._done.fail(exc)

    # -- caller side -----------------------------------------------------------
    @property
    def completed(self) -> bool:
        return self._done.triggered

    def test(self) -> bool:
        """Non-blocking completion check (MPI_Test flavour)."""
        return self._done.triggered

    @property
    def status(self) -> Any:
        return self._done.value

    def wait(self, timeout: Optional[float] = None) -> Event:
        """Event the caller yields to block until completion.

        With ``timeout`` (simulated seconds), the event instead fails
        with :class:`RequestTimeout` if the operation has not completed
        by the deadline; the underlying operation is *not* cancelled
        (MPI semantics: the request stays matchable).  The default path
        (``timeout=None``) schedules no extra simulator events: it hands
        back the completion event itself, so an already-completed
        request is consumed inline by the waiter's trampoline and a
        pending one wakes the waiter directly, with no relay hop.
        """
        if self._on_wait is not None:
            hook, self._on_wait = self._on_wait, None
            hook()
        if timeout is None:
            return self._done
        ev = self.sim.event()
        # The waiter may die (rank crash) between registering and the
        # failure landing; a failed wait-event with no waiter must not
        # trip the kernel's unhandled-failure check.
        ev._defused = True

        def relay(done: Event) -> None:
            if ev.triggered:
                return
            # Relays run in callback context (no active process): carry
            # the completing operation's span context through by hand.
            ev._ctx_span = done._ctx_span
            if done.ok:
                ev.succeed(done._value)
            else:
                ev.fail(done._value)

        self._done.add_callback(relay)
        deadline = self.sim.timeout(timeout)

        def expire(_t: Event) -> None:
            if not ev.triggered:
                ev.fail(RequestTimeout(
                    f"request {self.label or hex(id(self))} timed out "
                    f"after {timeout} s"))

        deadline.add_callback(expire)
        return ev

    def __repr__(self) -> str:  # pragma: no cover
        state = "done" if self.completed else "pending"
        return f"<Request {self.label or id(self):#x} {state}>"


def waitall(sim: Simulator, requests: Iterable[Request]
            ) -> Generator[Event, Any, List[Any]]:
    """Sub-protocol: wait for every request; returns their statuses."""
    reqs = list(requests)
    yield sim.all_of([r.wait() for r in reqs])
    return [r.status for r in reqs]


def waitany(sim: Simulator, requests: Iterable[Request]
            ) -> Generator[Event, Any, int]:
    """Sub-protocol: wait until at least one request completes; returns
    the index of a completed request (MPI_Waitany flavour)."""
    reqs = list(requests)
    if not reqs:
        raise ValueError("waitany needs at least one request")
    for i, r in enumerate(reqs):
        if r.completed:
            return i
    yield sim.any_of([r.wait() for r in reqs])
    for i, r in enumerate(reqs):
        if r.completed:
            return i
    raise RuntimeError("any_of fired with no completed request")
