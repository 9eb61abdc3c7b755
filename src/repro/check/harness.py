"""Conformance harness for the collective suite (``repro check``).

Every :class:`Case` runs one collective over real NumPy payloads on a
freshly built simulated cluster, optionally under a seeded fault plan,
with an :class:`~repro.check.invariants.InvariantChecker` and a
telemetry session installed, and ends in exactly one outcome:

- ``exact``     — byte-exact result, no recovery machinery engaged;
- ``recovered`` — byte-exact result after transparent bounded retry /
                  checksum-triggered retransmit;
- ``error``     — a clean *typed* error (:class:`TransportTimeout`,
                  :class:`IntegrityError`, :class:`RankFailure`,
                  :class:`CommRevoked`, :class:`RequestTimeout`,
                  :class:`CollectiveTimeout`, or an
                  :class:`~repro.sim.Interrupt` carrying one of those /
                  a :class:`~repro.faults.CrashRank`);
- ``silent``    — wrong bytes with no error raised, or a corrupted
                  delivery passed the checksum verify;
- ``hang``      — ranks still parked after the event schedule drained
                  (deadlock), or an *untyped* exception escaped.

Each fault kind in :data:`FAULTS` declares its plan and the outcomes it
may end in: a fault-free case must be ``exact``, ``drops`` exact or
recovered, and the chaos kinds may also end in a typed error; ``silent``
and ``hang`` never pass.  A run that drains cleanly must further be
byte-exact against :mod:`repro.check.reference`, leave no invariant
violation (lockstep break, tag outside its reservation, leaked
request/scratch/staging buffer, queue residue), and its telemetry
per-collective bytes must match the checker's independent tally.

A case ending neither exact nor recovered is replayed once under a
:class:`~repro.prof.SpanRecorder` and flight ring; the replay must
reproduce the outcome and simulated time, and its last-N-events
timeline ships with the result.

Cases are plain frozen dataclasses with a stable one-line ``spec()``
encoding, so any failure is reproducible from its printed spec alone:
``repro check --case '<spec>'``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..cuda import DeviceBuffer
from ..faults import (
    CorruptMessages, DropMessages, FaultInjector, FaultPlan, LinkDegrade,
    LinkFlap, StallLink,
)
from ..faults.plan import CrashRank
from ..hardware import cluster_a
from ..mpi import (
    CollectiveTimeout, CommRevoked, MPIRuntime, RankFailure, RequestTimeout,
    TransportTimeout,
)
from ..mpi.collectives import (
    allgather_ring, allreduce_reduce_bcast, allreduce_ring, bcast_binomial,
    bcast_flat, bcast_scatter_allgather, block_partition, gather_binomial,
    hierarchical_reduce, reduce_binomial, reduce_chain, reduce_scatter_ring,
    scatter_binomial,
)
from ..nccl import (
    nccl_allgather, nccl_allreduce_ring, nccl_allreduce_tree,
    nccl_bcast_ring, nccl_bcast_tree, nccl_reduce_scatter, ring_order,
)
from ..sim import Interrupt, Simulator
from .invariants import InvariantChecker
from .reference import (
    allgather_reference, gather_reference, rank_payload, reduce_reference,
    scatter_reference,
)

__all__ = ["Case", "CaseResult", "COLLECTIVES", "FAULTS", "FAULT_KINDS",
           "OUTCOMES", "run_case", "parse_case", "generate_matrix",
           "generate_chaos_matrix", "run_matrix", "outcome_tally"]

#: Collectives the harness can drive, in canonical order.  The
#: ``nccl_*`` entries are the NCCL backend's suite; like the MPI ones
#: they run under every profile on the backend axis (the algorithms are
#: substrate-generic — only ``nccl`` makes them the *native* choice).
COLLECTIVES = (
    "reduce_binomial", "reduce_chain", "hierarchical_reduce",
    "allreduce_ring", "allreduce_reduce_bcast",
    "bcast_binomial", "bcast_flat", "bcast_scatter_allgather",
    "gather_binomial", "scatter_binomial",
    "allgather_ring", "reduce_scatter_ring",
    "nccl_allreduce_ring", "nccl_allreduce_tree",
    "nccl_bcast_ring", "nccl_bcast_tree",
    "nccl_allgather", "nccl_reduce_scatter",
)

#: Collectives whose result ignores ``root``.
_ROOTLESS = {"allreduce_ring", "allgather_ring", "reduce_scatter_ring",
             "nccl_allreduce_ring", "nccl_allreduce_tree",
             "nccl_allgather", "nccl_reduce_scatter"}


@dataclass(frozen=True)
class Case:
    """One conformance-matrix entry (fully determines a run)."""

    collective: str
    P: int
    nbytes: int
    root: int = 0
    chunk_bytes: Optional[int] = None
    window: Optional[int] = None
    profile: str = "mv2gdr"
    hr_config: Optional[str] = None
    seed: int = 0
    fault: Optional[str] = None

    def spec(self) -> str:
        """Stable one-line encoding, accepted by :func:`parse_case`."""
        parts = [f"collective={self.collective}", f"P={self.P}",
                 f"nbytes={self.nbytes}", f"root={self.root}",
                 f"profile={self.profile}", f"seed={self.seed}"]
        if self.chunk_bytes is not None:
            parts.append(f"chunk_bytes={self.chunk_bytes}")
        if self.window is not None:
            parts.append(f"window={self.window}")
        if self.hr_config is not None:
            parts.append(f"hr_config={self.hr_config}")
        if self.fault is not None:
            parts.append(f"fault={self.fault}")
        return ",".join(parts)

    def repro_command(self) -> str:
        return f"PYTHONPATH=src python -m repro.cli check --case '{self.spec()}'"

    @property
    def victim(self) -> int:
        """The rank whose PCIe lanes a chaos fault targets (never rank 0,
        the root of every chaos cell)."""
        return 1 + self.seed % max(1, self.P - 1)


def parse_case(spec: str) -> Case:
    """Inverse of :meth:`Case.spec`."""
    kv: Dict[str, str] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            k, v = part.split("=", 1)
        except ValueError:
            raise ValueError(f"bad case field {part!r} (expected key=value)")
        kv[k.strip()] = v.strip()
    ints = {"P", "nbytes", "root", "chunk_bytes", "window", "seed"}
    kwargs: Dict[str, object] = {}
    for k, v in kv.items():
        if k in ints:
            kwargs[k] = int(v)
        elif k in ("collective", "profile", "hr_config", "fault"):
            kwargs[k] = v
        else:
            raise ValueError(f"unknown case field {k!r}")
    if "collective" not in kwargs:
        raise ValueError("case spec needs collective=...")
    case = Case(**kwargs)
    problem = _invalid(case)
    if problem is not None:
        raise ValueError(problem)
    return case


def _invalid(case: Case) -> Optional[str]:
    """Why ``case`` cannot run, or None."""
    if case.collective not in COLLECTIVES:
        return f"unknown collective {case.collective!r}"
    if case.fault is not None and case.fault not in FAULTS:
        return f"unknown fault kind {case.fault!r} (have {tuple(FAULTS)})"
    if not 0 <= case.root < case.P:
        return f"root {case.root} out of range for P={case.P}"
    if case.nbytes % 4:
        return "nbytes must be 4-byte aligned (float32)"
    return None


#: Every outcome a case can end in; the first three are the good ones.
OUTCOMES = ("exact", "recovered", "error", "silent", "hang")


@dataclass
class CaseResult:
    case: Case
    failures: List[str] = field(default_factory=list)
    sim_time: float = 0.0
    n_events: int = 0
    #: Telemetry PVAR snapshot at end of run (cross-validated against
    #: the checker's independent tally before being stored).
    pvars: Dict[str, object] = field(default_factory=dict)
    #: One of :data:`OUTCOMES` ("" when the case was invalid).
    outcome: str = ""
    #: The typed error (or rank exceptions) behind an ``error`` outcome.
    detail: str = ""
    #: Integrity / recovery counters at end of run.
    counters: Dict[str, int] = field(default_factory=dict)
    #: Flight-recorder timeline (last-N span events) from the recorded
    #: replay of any case that did not end exact or recovered.
    flight: List[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        head = (f"{'PASS' if self.ok else 'FAIL'} "
                f"[{self.outcome:>9}] {self.case.spec()}")
        if self.ok:
            return head
        lines = [head] + [f"    {f}" for f in self.failures]
        lines.append(f"    repro: {self.case.repro_command()}")
        return "\n".join(lines)


def _root_for_rank(case: Case, rank: int) -> int:
    """Seam for the mutation self-test: the root a given rank *believes*
    in.  Correct SPMD code returns ``case.root`` for every rank; the
    wrong-root mutant patches this to desynchronize one rank."""
    return case.root


def _program(case: Case, payloads: List[np.ndarray]):
    """Build the SPMD rank program for ``case``.

    Each program returns the rank's checked output array (or None for
    ranks with no checked output, e.g. non-roots of a plain reduce).
    """
    coll = case.collective
    n_elem = case.nbytes // 4

    def reduce_like(algo):
        def program(ctx):
            root = _root_for_rank(case, ctx.rank)
            sendbuf = DeviceBuffer.from_array(ctx.gpu, payloads[ctx.rank])
            recvbuf = (DeviceBuffer.zeros(ctx.gpu, n_elem)
                       if ctx.rank == root else None)
            yield from algo(ctx, sendbuf, recvbuf, root)
            return recvbuf.data.copy() if recvbuf is not None else None
        return program

    if coll == "reduce_binomial":
        return reduce_like(reduce_binomial)
    if coll == "reduce_chain":
        def chain(ctx, sendbuf, recvbuf, root):
            yield from reduce_chain(ctx, sendbuf, recvbuf, root,
                                    chunk_bytes=case.chunk_bytes,
                                    window=case.window)
        return reduce_like(chain)
    if coll == "hierarchical_reduce":
        def hr(ctx, sendbuf, recvbuf, root):
            yield from hierarchical_reduce(ctx, sendbuf, recvbuf, root,
                                           config=case.hr_config or "CB-4",
                                           chunk_bytes=case.chunk_bytes)
        return reduce_like(hr)

    if coll in ("allreduce_ring", "allreduce_reduce_bcast"):
        def program(ctx):
            sendbuf = DeviceBuffer.from_array(ctx.gpu, payloads[ctx.rank])
            recvbuf = DeviceBuffer.zeros(ctx.gpu, n_elem)
            if coll == "allreduce_ring":
                yield from allreduce_ring(ctx, sendbuf, recvbuf)
            else:
                yield from allreduce_reduce_bcast(
                    ctx, sendbuf, recvbuf,
                    root=_root_for_rank(case, ctx.rank))
            return recvbuf.data.copy()
        return program

    if coll in ("bcast_binomial", "bcast_flat", "bcast_scatter_allgather"):
        algo = {"bcast_binomial": bcast_binomial, "bcast_flat": bcast_flat,
                "bcast_scatter_allgather": bcast_scatter_allgather}[coll]
        def program(ctx):
            root = _root_for_rank(case, ctx.rank)
            buf = (DeviceBuffer.from_array(ctx.gpu, payloads[root])
                   if ctx.rank == root
                   else DeviceBuffer.zeros(ctx.gpu, n_elem))
            yield from algo(ctx, buf, root)
            return buf.data.copy()
        return program

    if coll in ("gather_binomial", "scatter_binomial"):
        def program(ctx):
            root = _root_for_rank(case, ctx.rank)
            if coll == "gather_binomial" or ctx.rank == root:
                buf = DeviceBuffer.from_array(ctx.gpu, payloads[ctx.rank])
            else:
                buf = DeviceBuffer.zeros(ctx.gpu, n_elem)
            if coll == "gather_binomial":
                yield from gather_binomial(ctx, buf, root)
            else:
                yield from scatter_binomial(ctx, buf, root)
            return buf.data.copy()
        return program

    if coll == "allgather_ring":
        def program(ctx):
            buf = DeviceBuffer.from_array(ctx.gpu, payloads[ctx.rank])
            yield from allgather_ring(ctx, buf)
            return buf.data.copy()
        return program

    if coll == "reduce_scatter_ring":
        def program(ctx):
            sendbuf = DeviceBuffer.from_array(ctx.gpu, payloads[ctx.rank])
            recvbuf = DeviceBuffer.zeros(ctx.gpu, n_elem)
            yield from reduce_scatter_ring(ctx, sendbuf, recvbuf)
            return recvbuf.data.copy()
        return program

    if coll in ("nccl_allreduce_ring", "nccl_allreduce_tree",
                "nccl_reduce_scatter"):
        algo = {"nccl_allreduce_ring": nccl_allreduce_ring,
                "nccl_allreduce_tree": nccl_allreduce_tree,
                "nccl_reduce_scatter": nccl_reduce_scatter}[coll]
        def program(ctx):
            sendbuf = DeviceBuffer.from_array(ctx.gpu, payloads[ctx.rank])
            recvbuf = DeviceBuffer.zeros(ctx.gpu, n_elem)
            yield from algo(ctx, sendbuf, recvbuf,
                            chunk_bytes=case.chunk_bytes)
            return recvbuf.data.copy()
        return program

    if coll in ("nccl_bcast_ring", "nccl_bcast_tree"):
        algo = (nccl_bcast_ring if coll == "nccl_bcast_ring"
                else nccl_bcast_tree)
        def program(ctx):
            root = _root_for_rank(case, ctx.rank)
            buf = (DeviceBuffer.from_array(ctx.gpu, payloads[root])
                   if ctx.rank == root
                   else DeviceBuffer.zeros(ctx.gpu, n_elem))
            yield from algo(ctx, buf, root, chunk_bytes=case.chunk_bytes)
            return buf.data.copy()
        return program

    if coll == "nccl_allgather":
        def program(ctx):
            buf = DeviceBuffer.from_array(ctx.gpu, payloads[ctx.rank])
            yield from nccl_allgather(ctx, buf,
                                      chunk_bytes=case.chunk_bytes)
            return buf.data.copy()
        return program

    raise ValueError(f"unknown collective {coll!r}")


def _verify(case: Case, payloads: List[np.ndarray],
            results: List[Optional[np.ndarray]], failures: List[str]) -> None:
    """Byte-exact comparison of per-rank outputs against the reference."""
    coll = case.collective
    root = case.root

    def check(rank: int, got: Optional[np.ndarray], want: np.ndarray,
              what: str) -> None:
        if got is None:
            failures.append(f"rank {rank}: no {what} output")
            return
        if got.shape != want.shape or not np.array_equal(
                got.view(np.uint8), want.view(np.uint8)):
            bad = int(np.sum(got != want)) if got.shape == want.shape else -1
            failures.append(
                f"rank {rank}: {what} deviates from reference "
                f"({bad if bad >= 0 else 'shape'} wrong element(s))")

    if coll in ("reduce_binomial", "reduce_chain", "hierarchical_reduce"):
        check(root, results[root], reduce_reference(payloads), "reduce")
    elif coll in ("allreduce_ring", "allreduce_reduce_bcast",
                  "nccl_allreduce_ring", "nccl_allreduce_tree"):
        want = reduce_reference(payloads)
        for r, got in enumerate(results):
            check(r, got, want, "allreduce")
    elif coll.startswith("bcast") or coll.startswith("nccl_bcast"):
        want = payloads[root]
        for r, got in enumerate(results):
            check(r, got, want, "bcast")
    elif coll == "gather_binomial":
        check(root, results[root], gather_reference(payloads), "gather")
    elif coll == "scatter_binomial":
        blocks = block_partition(case.nbytes, case.P)
        for r, got in enumerate(results):
            want = scatter_reference(payloads[root], r, case.P)
            off, n = blocks[r]
            check(r, got[off // 4:(off + n) // 4], want, "scatter")
    elif coll in ("allgather_ring", "nccl_allgather"):
        want = allgather_reference(payloads)
        for r, got in enumerate(results):
            check(r, got, want, "allgather")
    elif coll == "reduce_scatter_ring":
        # The ring rotation leaves block (r+1) mod P fully reduced on
        # rank r (``reduce_scatter_reference``); reduce all P payloads
        # once per case, not once per rank.
        full = reduce_reference(payloads)
        blocks = block_partition(case.nbytes, case.P)
        for r, got in enumerate(results):
            off, n = blocks[(r + 1) % case.P]
            lo, hi = off // 4, (off + n) // 4
            check(r, got[lo:hi], full[lo:hi], "reduce_scatter")
    elif coll == "nccl_reduce_scatter":
        # Blocks are indexed by ring *position*: the rank at position i
        # ends holding fully-reduced block (i+1) mod P.  Recompute the
        # topology ring from the case geometry (cluster_a block
        # placement: 16 GPUs per node, ranks in global order).
        full = reduce_reference(payloads)
        order = ring_order([r // 16 for r in range(case.P)])
        blocks = block_partition(case.nbytes, case.P)
        for i, r in enumerate(order):
            off, n = blocks[(i + 1) % case.P]
            check(r, results[r][off // 4:(off + n) // 4]
                  if results[r] is not None else None,
                  full[off // 4:(off + n) // 4], "reduce_scatter")


class FaultKind(NamedTuple):
    """One value of :attr:`Case.fault`."""

    #: Builds the seeded fault plan for a case.
    plan: Callable[[Case], FaultPlan]
    #: The outcomes a case under this fault may end in.
    outcomes: Tuple[str, ...]
    #: Arm the collective watchdog (stalls fail no attempt, so the
    #: retry loop never sees them; only the watchdog converts them).
    watchdog: bool = False


def _drops_plan(case: Case) -> FaultPlan:
    # Two messages lost on rank 0's PCIe uplink right as the collective
    # starts: the transport retries transparently, so the result must
    # still be byte-exact.
    return FaultPlan("conformance.drops", (
        DropMessages(time=1e-6, target=("pcie", 0, "up"), count=2),))


def _both_lanes(make) -> Callable[[Case], FaultPlan]:
    """A chaos plan: ``make(case, target)`` on both PCIe directions of
    the case's victim rank, so every traffic pattern (send-heavy roots,
    receive-heavy leaves, rings) crosses a faulted lane.

    Collectives at these sizes complete within microseconds and many
    ranks touch a given link exactly once, in the very first round — so
    every chaos fault arms at t=0 (and the injector is armed before the
    rank programs spawn) to guarantee the faulted lane sees traffic.
    """
    def plan(case: Case) -> FaultPlan:
        return FaultPlan(name=f"chaos.{case.fault}", events=tuple(
            make(case, ("pcie", case.victim, lane))
            for lane in ("up", "down")))
    return plan


_CLEAN = ("exact", "recovered")
_TYPED = _CLEAN + ("error",)

#: Fault kinds by :attr:`Case.fault` name.  ``drops`` is the byte-exact
#: matrix's transparent-retry fault; the rest are the chaos kinds.
FAULTS: Dict[str, FaultKind] = {
    "drops": FaultKind(_drops_plan, _CLEAN),
    # A couple of bit-flipped deliveries: the checksum layer must detect
    # and retransmit within the retry budget.
    "corrupt": FaultKind(_both_lanes(lambda c, t: CorruptMessages(
        time=0.0, target=t, count=2)), _TYPED),
    # More corruptions than the retransmit budget can absorb on one
    # transfer: a persistent corruptor, which must surface as a typed
    # IntegrityError rather than wrong bytes.
    "corrupt-storm": FaultKind(_both_lanes(lambda c, t: CorruptMessages(
        time=0.0, target=t, count=64)), _TYPED),
    "stall": FaultKind(_both_lanes(lambda c, t: StallLink(
        start=0.0, target=t)), _TYPED, watchdog=True),
    "drop": FaultKind(_both_lanes(lambda c, t: DropMessages(
        time=0.0, target=t, count=2)), _TYPED),
    # Even seeds flap briefly (retries bridge it: recovered); odd seeds
    # outlast the whole backoff budget (typed timeout).
    "flap": FaultKind(_both_lanes(lambda c, t: LinkFlap(
        start=0.0, duration=0.004 if c.seed % 2 == 0 else 0.05,
        target=t)), _TYPED),
    "degrade": FaultKind(_both_lanes(lambda c, t: LinkDegrade(
        start=0.0, duration=0.01, target=t, factor=8.0)), _TYPED),
}

#: The chaos matrix's fault kinds, in canonical order.
FAULT_KINDS = tuple(k for k in FAULTS if k != "drops")

#: Exception types that count as a *clean typed error* outcome.
TYPED_ERRORS = (TransportTimeout, RankFailure, CommRevoked, RequestTimeout,
                CollectiveTimeout)


def _typed(exc: BaseException) -> bool:
    if isinstance(exc, TYPED_ERRORS):
        return True
    if isinstance(exc, Interrupt):
        return isinstance(exc.cause, (CrashRank,) + TYPED_ERRORS)
    return False


def run_case(case: Case) -> CaseResult:
    """Run one case and classify its outcome; never raises for in-run
    failures.  A case ending neither exact nor recovered is replayed
    once under a span recorder, which must reproduce it and supplies the
    flight ring."""
    problem = _invalid(case)
    if problem is not None:
        return CaseResult(case, failures=[problem])
    res = _execute(case)
    if res.outcome not in _CLEAN:
        replay = _execute(case, record=True)
        if (replay.outcome, replay.sim_time) != (res.outcome, res.sim_time):
            res.failures.append(
                f"recorded replay diverged: {replay.outcome} at "
                f"t={replay.sim_time!r}")
        res.flight = replay.flight
    return res


def _execute(case: Case, record: bool = False) -> CaseResult:
    res = CaseResult(case)
    sim = Simulator(seed=case.seed)
    cluster = cluster_a(sim, n_nodes=max(1, (case.P + 15) // 16))
    runtime = MPIRuntime(cluster, case.profile)
    comm = runtime.world(case.P)
    payloads = [rank_payload(case.seed, r, case.nbytes)
                for r in range(case.P)]
    program = _program(case, payloads)

    flight = None
    if record:
        from ..obs import FlightRecorder
        from ..prof import SpanRecorder
        flight = FlightRecorder(SpanRecorder(sim), capacity=256)
    kind = FAULTS.get(case.fault)
    injector = None
    if kind is not None:
        # Armed BEFORE the ranks spawn: its t=0 drivers are then
        # scheduled ahead of the rank programs, so fault state is in
        # place before the first transfer attempt of the first round.
        injector = FaultInjector(cluster, kind.plan(case))
        injector.arm(runtime=runtime)

    chk = InvariantChecker()
    chk.install(sim)
    # Telemetry rides along on every case: its per-collective byte
    # attribution is cross-validated against the checker's independent
    # tally below, so the two ledgers keep each other honest.
    from ..telemetry import TelemetrySession
    tel = TelemetrySession()
    tel.attach(sim)
    tel.install()
    error: Optional[BaseException] = None
    try:
        procs = runtime.spawn(comm, program)
        if kind is not None and kind.watchdog:
            wd = runtime.ensure_watchdog()
            wd.flight = flight
            wd.arm(procs, comm.gpus, nbytes=case.nbytes)
        try:
            sim.run()
        except Exception as exc:
            error = exc
    finally:
        tel.uninstall()
        chk.uninstall()

    res.sim_time = sim.now
    res.n_events = sim.event_count
    res.pvars = tel.pvar_snapshot()
    tm = runtime.transport.metrics
    res.counters = {
        "injected": injector.total_injected if injector else 0,
        "retries": tm.retries,
        "timeouts": tm.timeouts,
        "corrupt_detected": tm.corrupt_detected,
        "retransmits": tm.retransmits,
        "integrity_failures": tm.integrity_failures,
        "silent_corruptions": tm.silent_corruptions,
    }
    wd = runtime.watchdog
    if wd is not None:
        res.counters["watchdog_timeouts"] = wd.timeouts
        res.counters["watchdog_escalations"] = wd.escalations

    drained = False
    if tm.silent_corruptions:
        res.outcome = "silent"
        res.failures.append(
            f"{tm.silent_corruptions} corrupted deliveries passed "
            f"verification (checksum layer broken)")
    elif error is not None:
        res.detail = f"{type(error).__name__}: {error}"
        res.outcome = "error" if _typed(error) else "hang"
        if res.outcome == "hang":
            res.failures.append(f"untyped error escaped: {error!r}")
    elif any(p.is_alive for p in procs):
        res.outcome = "hang"
        res.failures.append(
            f"deadlock: ranks {[i for i, p in enumerate(procs) if p.is_alive]}"
            f" never finished")
    else:
        drained = True
        failed = [(i, p.value) for i, p in enumerate(procs) if not p.ok]
        if failed:
            res.detail = "; ".join(f"rank {i} raised {e!r}"
                                   for i, e in failed)
            res.outcome = ("error" if all(_typed(e) for _, e in failed)
                           else "hang")
            if res.outcome == "hang":
                res.failures.append(res.detail)
        else:
            _verify(case, payloads, [p.value for p in procs], res.failures)
            if res.failures:
                res.outcome = "silent"
                res.failures.append("wrong bytes with no error raised")
            elif (tm.retries or tm.retransmits or tm.corrupt_detected
                  or tm.drops_detected or tm.link_down_detected):
                res.outcome = "recovered"
            else:
                res.outcome = "exact"

    # silent and hang carry their own failure lines; a good outcome
    # the fault kind does not allow (a typed error on a fault-free
    # case, say) fails here.
    allowed = kind.outcomes if kind is not None else ("exact",)
    if res.outcome in _TYPED and res.outcome not in allowed:
        res.failures.insert(0, f"{res.outcome} outcome not allowed under "
                               f"fault={case.fault}"
                            + (f": {res.detail}" if res.detail else ""))
    if drained:
        res.failures.extend(str(v) for v in
                            chk.end_of_run(transport=runtime.transport))
        got = {k: int(v)
               for k, v in tel.pvar_read("mpi.coll.bytes").items()}
        want = {k: int(v) for k, v in chk.coll_bytes.items()}
        if got != want:
            res.failures.append(
                f"telemetry coll-bytes mismatch: pvar {got} "
                f"vs checker tally {want}")
    else:
        # A run that did not drain cleanly leaves queues/requests in
        # arbitrary states: only the checks made during the run count.
        res.failures.extend(str(v) for v in chk.violations)
    if flight is not None:
        res.flight = flight.snapshot()
    return res


# -- matrix generation ---------------------------------------------------------

#: Regression configurations for the two fixed tag-space bugs: a chain
#: reduce with >4096 chunks (historically spilled past its TAG_BLOCK
#: into the next collective's space) and rings with P > 513 ranks
#: (historically the allgather phase's hardcoded ``tag0 + 512`` offset
#: collided with reduce-scatter tags).
BOUNDARY_CASES = (
    Case("reduce_chain", P=3, nbytes=4 * 4160, chunk_bytes=4),
    Case("reduce_binomial", P=2, nbytes=4 * 4100, profile="openmpi"),
    Case("allreduce_ring", P=514, nbytes=4),
    Case("allgather_ring", P=515, nbytes=4),
    Case("reduce_scatter_ring", P=515, nbytes=4),
    # NCCL boundary cells: multi-node rings with empty tail blocks, a
    # tiny-chunk ring allreduce whose tag reservation spans multiple
    # TAG_BLOCK units, and the P=3 tree special case.
    Case("nccl_allreduce_ring", P=514, nbytes=4, profile="nccl"),
    Case("nccl_reduce_scatter", P=33, nbytes=4, profile="nccl"),
    Case("nccl_allreduce_ring", P=3, nbytes=4 * 4160, chunk_bytes=4,
         profile="nccl"),
    Case("nccl_allreduce_tree", P=3, nbytes=4096, profile="nccl"),
    Case("nccl_bcast_tree", P=3, nbytes=4096, root=2, profile="nccl"),
)

#: The backend axis of the matrix — derived from the profile registry
#: so a newly registered backend is swept automatically.
from ..mpi.profiles import profile_names as _profile_names  # noqa: E402

_PROFILES = tuple(_profile_names())


def generate_matrix(seed: int = 0, *, quick: bool = False,
                    max_p: Optional[int] = None) -> List[Case]:
    """The randomized-but-seeded conformance matrix.

    Always includes one case per (collective, profile) pair plus the
    :data:`BOUNDARY_CASES`; non-quick mode adds randomized sweeps over
    (P, root, nbytes, chunk_bytes, window) and fault-injected runs.
    """
    rng = np.random.default_rng(seed)
    cases: List[Case] = []

    def rand_p() -> int:
        return int(rng.integers(2, 17))

    def rand_nbytes() -> int:
        return 4 * int(rng.integers(1, 1 << int(rng.integers(1, 13))))

    # Coverage floor: every collective under every profile.
    for profile in _PROFILES:
        for coll in COLLECTIVES:
            P = rand_p()
            kw: Dict[str, object] = {}
            if coll not in _ROOTLESS:
                kw["root"] = int(rng.integers(0, P))
            if coll == "reduce_chain":
                kw["chunk_bytes"] = int(
                    rng.choice([64, 256, 1024]))
                kw["window"] = int(rng.choice([1, 2, 8]))
            if coll == "hierarchical_reduce":
                kw["hr_config"] = str(rng.choice(
                    ["CB-4", "CC-4", "CCB-4", "CB-8"]))
                P = max(P, 8)
                kw["root"] = int(rng.integers(0, P))
            if coll.startswith("nccl_"):
                kw["chunk_bytes"] = int(rng.choice([64, 256, 4096]))
            cases.append(Case(coll, P=P, nbytes=rand_nbytes(),
                              profile=profile, seed=seed, **kw))

    rounds = 1 if quick else 4
    for _ in range(rounds):
        for coll in COLLECTIVES:
            P = rand_p()
            kw = {}
            if coll not in _ROOTLESS:
                kw["root"] = int(rng.integers(0, P))
            if coll == "reduce_chain":
                kw["chunk_bytes"] = int(rng.choice([4, 64, 4096]))
                kw["window"] = (None if rng.integers(0, 2)
                                else int(rng.integers(1, 9)))
            if coll == "hierarchical_reduce":
                kw["hr_config"] = str(rng.choice(
                    ["CB-2", "CB-4", "CC-4", "CCB-2", "CCB-4"]))
                P = max(P, 6)
                kw["root"] = int(rng.integers(0, P))
            if coll.startswith("nccl_"):
                kw["chunk_bytes"] = (None if rng.integers(0, 2)
                                     else int(rng.choice([4, 64, 4096])))
            fault = "drops" if rng.integers(0, 4) == 0 else None
            cases.append(Case(coll, P=P, nbytes=rand_nbytes(),
                              profile=str(rng.choice(_PROFILES)),
                              seed=int(rng.integers(0, 1 << 16)),
                              fault=fault, **kw))

    cases.extend(BOUNDARY_CASES)
    if max_p is not None:
        cases = [c for c in cases if c.P <= max_p]
    # Quick mode keeps the big-P boundary rings but drops the heaviest
    # random payloads to stay CI-friendly.
    if quick:
        cases = [c if c.nbytes <= 1 << 14 else replace(c, nbytes=1 << 14)
                 for c in cases]
    return cases


def generate_chaos_matrix(seed: int = 0, *,
                          quick: bool = False) -> List[Case]:
    """The seeded chaos matrix: collective x profile x chaos fault kind,
    rooted at rank 0 on a single node.

    Full mode sweeps every registered profile; quick mode keeps one MPI
    profile plus the nccl backend for CI.
    """
    rng = np.random.default_rng(seed)
    profiles = (_PROFILES[0], "nccl") if quick else _PROFILES
    cases: List[Case] = []
    for profile in profiles:
        for coll in COLLECTIVES:
            for kind in FAULT_KINDS:
                P = int(rng.integers(2, 9))
                if coll == "hierarchical_reduce":
                    P = max(P, 8)
                nbytes = 4 * int(rng.integers(8, 1 << 10))
                cases.append(Case(
                    coll, P=P, nbytes=nbytes, profile=profile,
                    seed=int(rng.integers(0, 1 << 16)), fault=kind))
    return cases


def run_matrix(cases: List[Case], *, stop_on_fail: bool = False,
               progress=None) -> List[CaseResult]:
    results = []
    for case in cases:
        r = run_case(case)
        results.append(r)
        if progress is not None:
            progress(r)
        if stop_on_fail and not r.ok:
            break
    return results


def outcome_tally(results: List[CaseResult]) -> Dict[str, int]:
    """Outcome -> count over a result set (every bucket present)."""
    tally = {k: 0 for k in OUTCOMES}
    for r in results:
        tally[r.outcome] = tally.get(r.outcome, 0) + 1
    return tally
