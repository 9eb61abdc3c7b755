"""Causal span recording for the simulator.

A *span* is an interval of simulated time during which a unit of work
held a resource (a kernel on an SM array, a message on a link, a chunk
on the host-memcpy engine) or simply elapsed (a barrier wait, a fixed
software overhead).  Each span carries *causal predecessors* — the spans
whose completion allowed it to start:

- **program order**: the previous span recorded by the same sim process;
- **resource order**: the last span that held each resource the new span
  occupies (FIFO queues make this the true grant predecessor);
- **wake-up edges**: when an event triggered by process A resumes
  process B, A's latest span is noted and attached to B's next span
  (this is how a helper thread's backward kernel becomes a predecessor
  of the main thread's reduce, and how a mover's wire transfer becomes
  a predecessor of the waiter's next step).

Recording is strictly passive: it never creates simulator events, so a
run with a recorder installed reaches bit-for-bit identical simulated
times.  Its presence does change two runtime paths, both without moving
any timestamp: a process spawned with ``eager=True`` starts through a
kick event instead of inline (so the event count grows by one per such
spawn), and matched point-to-point messages on IPC/GDR paths run as
mover processes instead of process-free callbacks.

The recorder is installed by constructing it on a simulator
(``SpanRecorder(sim)`` sets ``sim.recorder``); every instrumentation
site in ``repro.sim``/``repro.cuda``/``repro.mpi`` checks
``sim.recorder is None`` first, so the disabled path costs one attribute
load.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..sim.core import Process, Simulator

__all__ = ["Span", "SpanRecorder"]


class Span:
    """One closed (or still-open) interval of attributed simulated work."""

    __slots__ = ("sid", "kind", "resources", "nbytes", "label", "actor",
                 "phase", "op", "start", "end", "deps")

    def __init__(self, sid: int, kind: str, resources: Tuple[str, ...],
                 nbytes: int, label: str, actor: str, phase: str, op: str,
                 start: float, deps: Tuple[int, ...]):
        self.sid = sid
        self.kind = kind
        self.resources = resources
        self.nbytes = nbytes
        self.label = label
        self.actor = actor
        self.phase = phase
        self.op = op
        self.start = start
        self.end: Optional[float] = None   # None while the span is open
        self.deps = deps

    @property
    def resource(self) -> str:
        """Primary resource name ('' for resource-less spans)."""
        return self.resources[0] if self.resources else ""

    @property
    def duration(self) -> float:
        if self.end is None:
            raise RuntimeError(f"span {self.sid} is still open")
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.end:.6f}" if self.end is not None else "open"
        return (f"<Span {self.sid} {self.kind} {self.actor} "
                f"[{self.start:.6f}, {state}]>")


class SpanRecorder:
    """Captures spans + causal edges from an instrumented simulation.

    Constructing a recorder installs it on the simulator.  All public
    mutators are O(1); nothing here schedules simulator events.
    """

    #: Wake-up notes kept per process between spans (bounds memory for
    #: processes that resume many times without recording work).
    MAX_WAKE_NOTES = 8

    def __init__(self, sim: Simulator, install: bool = True):
        self.sim = sim
        self.spans: List[Span] = []
        #: (src_gpu_index, dst_gpu_index) -> [messages, bytes]
        self.comm: Dict[Tuple[int, int], List[int]] = {}
        #: gpu_index -> (device name, node index)
        self.devices: Dict[int, Tuple[str, int]] = {}
        self._last_by_proc: Dict[Process, int] = {}
        self._last_by_res: Dict[str, int] = {}
        self._wake: Dict[Process, List[int]] = {}
        self._phase: Dict[Optional[Process], List[str]] = {}
        self._op: Dict[Optional[Process], List[str]] = {}
        self._owner: Dict[Process, str] = {}
        #: Optional :class:`~repro.obs.FlightRecorder` ring fed from
        #: :meth:`open`/:meth:`close` (one attribute check when unset).
        self.flight = None
        if install:
            sim.recorder = self

    def uninstall(self) -> None:
        if self.sim.recorder is self:
            self.sim.recorder = None

    # -- span lifecycle ----------------------------------------------------
    def open(self, kind: str, *, resource: str = "",
             resources: Tuple[str, ...] = (), nbytes: int = 0,
             label: str = "") -> int:
        """Open a span at the current simulated time; returns its id.

        Dependencies are collected here: program-order predecessor,
        pending wake-up notes, and the last holder of each resource.
        Only *closed* predecessors are linked, which keeps every edge
        consistent (``dep.end <= span.start``) even for capacity>1
        resources with overlapping holds.
        """
        sim = self.sim
        spans = self.spans
        p = sim._active_process
        sid = len(spans)
        deps: List[int] = []
        if p is not None:
            prev = self._last_by_proc.get(p)
            if prev is not None:
                deps.append(prev)
            wakes = self._wake.pop(p, None)
            if wakes:
                for w in wakes:
                    if w not in deps and spans[w].end is not None:
                        deps.append(w)
        keys = resources if resources else (
            (resource,) if resource else ())
        for r in keys:
            lr = self._last_by_res.get(r)
            if lr is not None and lr not in deps and spans[lr].end is not None:
                deps.append(lr)
        if p is not None:
            actor = self._owner.get(p) or p.name
            st = self._phase.get(p)
            phase = st[-1] if st else ""
            so = self._op.get(p)
            op = so[-1] if so else ""
        else:
            actor, phase, op = "(global)", "", ""
        spans.append(Span(sid, kind, tuple(keys), nbytes, label, actor,
                          phase, op, sim._now, tuple(deps)))
        if p is not None:
            self._last_by_proc[p] = sid
        for r in keys:
            self._last_by_res[r] = sid
        if self.flight is not None:
            self.flight.on_open(spans[sid])
        return sid

    def close(self, sid: int) -> None:
        span = self.spans[sid]
        span.end = self.sim._now
        if self.flight is not None:
            self.flight.on_close(span)

    # -- kernel hooks (called from repro.sim.core) --------------------------
    def note_wakeup(self, proc: Process, sid: int) -> None:
        """A triggered event carrying span context resumed ``proc``."""
        lst = self._wake.get(proc)
        if lst is None:
            self._wake[proc] = [sid]
            return
        if not lst or lst[-1] != sid:
            lst.append(sid)
            if len(lst) > self.MAX_WAKE_NOTES:
                del lst[0]

    def last_span_of(self, proc: Process) -> Optional[int]:
        return self._last_by_proc.get(proc)

    def on_spawn(self, child: Process, parent: Optional[Process]) -> None:
        """Inherit attribution context from the spawning process.

        Mover/chunk/helper processes spawned mid-phase should attribute
        their spans to the rank (and phase/op) that spawned them.
        """
        if parent is not None:
            owner = self._owner.get(parent)
            if owner:
                self._owner[child] = owner
            elif parent.name:
                self._owner[child] = parent.name
            ph = self._phase.get(parent)
            if ph:
                self._phase[child] = [ph[-1]]
            op = self._op.get(parent)
            if op:
                self._op[child] = [op[-1]]
        if child.name and child not in self._owner:
            self._owner[child] = child.name

    def on_exit(self, proc: Process) -> None:
        """Drop per-process state once a process terminates."""
        self._last_by_proc.pop(proc, None)
        self._wake.pop(proc, None)
        self._phase.pop(proc, None)
        self._op.pop(proc, None)
        self._owner.pop(proc, None)

    # -- attribution scopes -------------------------------------------------
    def phase_push(self, phase: str) -> None:
        p = self.sim._active_process
        self._phase.setdefault(p, []).append(phase)

    def phase_pop(self, phase: str) -> None:
        st = self._phase.get(self.sim._active_process)
        if st and st[-1] == phase:
            st.pop()

    def phase_clear(self) -> None:
        """Drop the active process's phase stack (fault unwind path)."""
        self._phase.pop(self.sim._active_process, None)

    def op_push(self, op: str) -> Optional[Process]:
        """Tag subsequent spans of the active process with ``op``;
        returns the process key to pass back to :meth:`op_pop`."""
        p = self.sim._active_process
        self._op.setdefault(p, []).append(op)
        return p

    def op_pop(self, proc: Optional[Process]) -> None:
        st = self._op.get(proc)
        if st:
            st.pop()

    # -- communication matrix ----------------------------------------------
    def message(self, src_device, dst_device, nbytes: int) -> None:
        """Count one logical pt2pt message between two GPUs."""
        si, di = src_device.global_index, dst_device.global_index
        ent = self.comm.get((si, di))
        if ent is None:
            self.comm[(si, di)] = [1, nbytes]
        else:
            ent[0] += 1
            ent[1] += nbytes
        if si not in self.devices:
            self.devices[si] = (src_device.name, src_device.node_index)
        if di not in self.devices:
            self.devices[di] = (dst_device.name, dst_device.node_index)

    # -- convenience -------------------------------------------------------
    @property
    def n_spans(self) -> int:
        return len(self.spans)

    def closed_spans(self) -> List[Span]:
        return [s for s in self.spans if s.end is not None]
