"""Runtime invariant checkers for the simulated MPI stack.

An :class:`InvariantChecker` installs itself as ``sim.checker`` (and as
the :data:`repro.cuda.memory.buffer_tracker`) and passively observes the
run through the hook points the runtime exposes:

- ``coll_tags`` reports every collective tag reservation
  (:meth:`on_collective`) — feeding the **SPMD lockstep** validator
  (all ranks of a communicator must invoke the same collective sequence
  with the same tag footprint) and the reservation ledger the
  **tag-space auditor** checks sends/receives against;
- ``Communicator.isend`` / ``irecv`` report every message envelope
  (:meth:`on_send` / :meth:`on_recv_post`) — audited against the ledger
  so a message outside its collective's reserved block is flagged at the
  call site, not discovered as cross-matched payloads;
- ``Request`` reports creation and waits — feeding the **end-of-run
  leak check** (a request still incomplete when the event heap drains is
  a lost message or protocol skew);
- ``DeviceBuffer`` alloc/free and ``RankContext.scratch_like`` feed the
  **scratch-leak check** (collectives must free what they allocate);
- ``TransportMetrics.stagings_live`` must return to zero.

Checkers are strictly passive: they never schedule events, so a checked
run is event-for-event identical to an unchecked one, and ``sim.checker
= None`` (the default) costs one attribute load per hook site.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..cuda import memory
from ..mpi.collectives.base import COLL_TAG_BASE, TAG_BLOCK, TagBlock

__all__ = ["Violation", "InvariantChecker"]


@dataclass(frozen=True)
class Violation:
    """One detected invariant breach.

    ``kind`` is one of: ``lockstep``, ``tag-audit``, ``request-leak``,
    ``queue-residue``, ``buffer-leak``, ``staging-leak``.
    """

    kind: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover
        return f"[{self.kind}] {self.detail}"


@dataclass
class _CommLedger:
    """Per-communicator reservation state."""

    name: str
    #: seq -> (collective name, tag count, first registering rank).
    seqs: Dict[int, Tuple[str, int, int]] = field(default_factory=dict)
    #: TAG_BLOCK unit index -> owning TagBlock (spans may cover several
    #: units for jumbo reservations).
    units: Dict[int, TagBlock] = field(default_factory=dict)


class InvariantChecker:
    """Collects :class:`Violation`\\ s over one simulated run.

    Usage::

        chk = InvariantChecker()
        chk.install(sim)
        try:
            ... run the workload ...
        finally:
            chk.uninstall()
        chk.end_of_run(transport=runtime.transport)
        assert not chk.violations
    """

    def __init__(self) -> None:
        self.violations: List[Violation] = []
        #: Collective name -> payload bytes sent under its tag blocks.
        #: Independent tally the telemetry layer's ``mpi.coll.bytes``
        #: PVAR is cross-validated against (same ledger, separate code).
        self.coll_bytes: Dict[str, int] = {}
        self._ledgers: Dict[int, _CommLedger] = {}
        self._comms: Dict[int, object] = {}
        self._requests: list = []
        self._live_buffers: Dict[int, object] = {}
        self._scratch_ids: set = set()
        self._sim = None
        self._prev_tracker = None

    # -- lifecycle -------------------------------------------------------------
    def install(self, sim) -> None:
        if sim.checker is not None:
            raise RuntimeError("simulator already has a checker installed")
        self._sim = sim
        sim.checker = self
        self._prev_tracker = memory.buffer_tracker
        memory.buffer_tracker = self

    def uninstall(self) -> None:
        if self._sim is not None:
            self._sim.checker = None
            self._sim = None
        memory.buffer_tracker = self._prev_tracker
        self._prev_tracker = None

    def _flag(self, kind: str, detail: str) -> None:
        self.violations.append(Violation(kind, detail))

    # -- collective lockstep + reservation ledger ---------------------------
    def on_collective(self, comm, rank: int, seq: int,
                      block: TagBlock) -> None:
        led = self._ledgers.get(comm.id)
        if led is None:
            led = self._ledgers[comm.id] = _CommLedger(comm.name)
            self._comms[comm.id] = comm
        prior = led.seqs.get(seq)
        if prior is None:
            led.seqs[seq] = (block.name, block.count, rank)
            units = -(-block.count // TAG_BLOCK)
            first = (block.base - COLL_TAG_BASE) // TAG_BLOCK
            for u in range(first, first + units):
                led.units[u] = block
        elif prior[0] != block.name or prior[1] != block.count:
            self._flag(
                "lockstep",
                f"comm {led.name} seq {seq}: rank {rank} invoked "
                f"{block.name or '?'} ({block.count} tags) but rank "
                f"{prior[2]} invoked {prior[0] or '?'} ({prior[1]} tags)")

    # -- tag-space audit ----------------------------------------------------------
    def _audit_tag(self, comm, who: str, tag: int) -> None:
        if tag < COLL_TAG_BASE:
            return  # user pt2pt space: no reservation discipline
        led = self._ledgers.get(comm.id)
        block = None
        if led is not None:
            block = led.units.get((tag - COLL_TAG_BASE) // TAG_BLOCK)
        if block is None:
            self._flag(
                "tag-audit",
                f"comm {comm.name}: {who} tag {tag:#x} is in collective "
                f"space but inside no reserved block")
        elif not block.base <= tag < block.base + block.count:
            self._flag(
                "tag-audit",
                f"comm {comm.name}: {who} tag {tag:#x} outside "
                f"{block.name or 'collective'}'s reservation "
                f"[{block.base:#x}, {block.base + block.count:#x})")

    def on_send(self, comm, src_rank: int, dst_rank: int, tag: int,
                nbytes: int) -> None:
        self._comms.setdefault(comm.id, comm)
        self._audit_tag(comm, f"send {src_rank}->{dst_rank}", tag)
        if tag >= COLL_TAG_BASE:
            led = self._ledgers.get(comm.id)
            block = (led.units.get((tag - COLL_TAG_BASE) // TAG_BLOCK)
                     if led is not None else None)
            name = (block.name or "unnamed") if block is not None \
                else "unknown"
            self.coll_bytes[name] = self.coll_bytes.get(name, 0) + nbytes

    def on_recv_post(self, comm, dst_rank: int, source: int, tag: int,
                     nbytes: int) -> None:
        self._comms.setdefault(comm.id, comm)
        if tag >= 0:  # ANY_TAG posts match anything; nothing to audit
            self._audit_tag(comm, f"recv {source}->{dst_rank}", tag)

    # -- request tracking ---------------------------------------------------------
    def on_request(self, req) -> None:
        self._requests.append(req)

    # -- buffer tracking (memory.buffer_tracker protocol) --------------------
    def on_alloc(self, buf) -> None:
        self._live_buffers[id(buf)] = buf

    def on_free(self, buf) -> None:
        self._live_buffers.pop(id(buf), None)
        self._scratch_ids.discard(id(buf))

    def on_scratch(self, buf) -> None:
        self._scratch_ids.add(id(buf))

    # -- end of run ------------------------------------------------------------
    def end_of_run(self, transport=None) -> List[Violation]:
        """Run the leak checks after the simulator drains; returns all
        violations accumulated over the run."""
        for req in self._requests:
            if not req.completed:
                self._flag(
                    "request-leak",
                    f"request {req.label or hex(id(req))} still incomplete "
                    f"at end of run")
        for cid, comm in self._comms.items():
            for r, q in comm._unexpected.items():
                if q:
                    self._flag(
                        "queue-residue",
                        f"comm {comm.name}: {len(q)} unconsumed unexpected "
                        f"message(s) for rank {r} "
                        f"(tags {[s.tag for s in q][:4]})")
            for r, q in comm._posted.items():
                if q:
                    self._flag(
                        "queue-residue",
                        f"comm {comm.name}: {len(q)} never-matched posted "
                        f"receive(s) on rank {r} "
                        f"(tags {[p.tag for p in q][:4]})")
        for bid in self._scratch_ids:
            buf = self._live_buffers.get(bid)
            if buf is not None:
                self._flag(
                    "buffer-leak",
                    f"scratch buffer {buf.name or hex(bid)} "
                    f"({buf.nbytes} B on {buf.device.name}) never freed")
        if transport is not None and transport.metrics.stagings_live:
            self._flag(
                "staging-leak",
                f"{transport.metrics.stagings_live} host staging "
                f"buffer(s) still live (peak {transport.metrics.stagings_peak})")
        return self.violations

    def report(self) -> str:
        if not self.violations:
            return "no invariant violations"
        return "\n".join(str(v) for v in self.violations)
