"""Process-free point-to-point messages on cut-through (IPC/GDR) paths.

A matched message whose path is one cut-through hold runs as a callback
state machine (``_DirectTransfer``) instead of a mover process.  The
oracle is the mover itself, forced two ways:

- by overriding the transport's eligibility predicate on one runtime,
  which changes nothing else, so the runs must agree event for event;
- by installing a :class:`SpanRecorder`, which the predicate refuses.
  A recorder also keeps spawned processes off the eager start, so each
  mover pays one kick event; apart from that the runs must agree.
"""

import numpy as np
import pytest

from repro.cuda import DeviceBuffer
from repro.faults import CrashRank, FaultInjector, FaultPlan
from repro.hardware import cluster_a
from repro.mpi import CommRevoked, MPIRuntime
from repro.mpi.communicator import _DirectTransfer
from repro.prof import SpanRecorder
from repro.sim import Interrupt, Process, Simulator

#: Rank -> cluster GPU index: ranks 0-3 on one node for IPC; ranks 0-1
#: on node 0 and 2-3 on node 1 for GDR.
GPUS = {"ipc": (0, 1, 2, 3), "gdr": (0, 1, 16, 17)}
#: (eager snapshot, rendezvous payload) sizes; GDR stays under the
#: 128 KiB mv2gdr GDR threshold, eager sends under 16 KiB.
SIZES = {"ipc": (8 << 10, 1 << 20), "gdr": (8 << 10, 64 << 10)}
#: (src, dst) pairs posted at t=0.  "contended" shares rank 0's PCIe
#: uplink between two messages and rank 2's downlink between two more.
PATTERNS = {"free": ((0, 2),),
            "contended": ((0, 2), (0, 3), (1, 2))}


def build(kind, force="direct"):
    sim = Simulator()
    cluster = cluster_a(sim, n_nodes=2)
    rt = MPIRuntime(cluster, "mv2gdr")
    comm = rt.world([cluster.gpus[i] for i in GPUS[kind]])
    if force == "mover":
        rt.transport.direct_route = lambda *args: None
    elif force == "recorder":
        SpanRecorder(sim)
    return sim, cluster, rt, comm


def links_of(cluster):
    for gpu in cluster.gpus:
        yield gpu.pcie_up
        yield gpu.pcie_down
    for node in cluster.nodes:
        yield node.host_memcpy
        for nic in node.nics:
            yield nic.tx
            yield nic.rx


def link_state(cluster):
    return [(l.name, l.busy_time, l.messages, l.bytes_moved)
            for l in links_of(cluster)]


def links_idle(cluster):
    return all(l._res.in_use == 0 and l._res.queue_len == 0
               for l in links_of(cluster))


def exchange(kind, pattern, eager, force="direct"):
    """Post every message of ``pattern`` at t=0; each sender scribbles
    over its buffer right after an eager send, so only the snapshot can
    deliver the original bytes."""
    sim, cluster, rt, comm = build(kind, force)
    nbytes = SIZES[kind][0 if eager else 1]
    pairs = PATTERNS[pattern]
    sent = {}
    for i, (src, _dst) in enumerate(pairs):
        sent[i] = (np.arange(nbytes // 4, dtype=np.float32) + 1000 * i)

    def program(ctx):
        reqs, recv_bufs = [], {}
        for i, (src, dst) in enumerate(pairs):
            if ctx.rank == dst:
                buf = DeviceBuffer.zeros(ctx.gpu, nbytes // 4)
                recv_bufs[i] = buf
                reqs.append(("recv", i, ctx.irecv(src, buf, tag=i)))
        for i, (src, dst) in enumerate(pairs):
            if ctx.rank == src:
                buf = DeviceBuffer.from_array(ctx.gpu, sent[i].copy())
                reqs.append(("send", i, ctx.isend(dst, buf, tag=i)))
                if eager:
                    buf.data[:] = -1.0
        out = []
        for op, i, req in reqs:
            status = yield req.wait()
            out.append((op, i, ctx.sim.now, tuple(status)))
        return out, {i: b.data.tobytes() for i, b in recv_bufs.items()}

    results = rt.execute(comm, program)
    return {
        "now": sim.now,
        "events": sim.event_count,
        "links": link_state(cluster),
        "requests": [r[0] for r in results],
        "delivered": {i: d for r in results for i, d in r[1].items()},
        "expected": {i: a.tobytes() for i, a in sent.items()},
        "idle": links_idle(cluster),
        "messages": len(pairs),
    }


CASES = [(kind, pattern, eager) for kind in ("ipc", "gdr")
         for pattern in ("free", "contended") for eager in (True, False)]


@pytest.mark.parametrize("kind,pattern,eager", CASES)
class TestDirectMatchesMover:
    def test_forced_mover_is_event_for_event_identical(
            self, kind, pattern, eager):
        direct = exchange(kind, pattern, eager)
        mover = exchange(kind, pattern, eager, force="mover")
        assert direct == mover
        assert direct["delivered"] == direct["expected"]
        assert direct["idle"]

    def test_recorder_run_differs_only_by_spawn_kicks(
            self, kind, pattern, eager):
        direct = exchange(kind, pattern, eager)
        recorded = exchange(kind, pattern, eager, force="recorder")
        # The only event-level effect of a recorder here: each mover
        # starts through a kick event instead of inline.
        assert recorded["events"] == direct["events"] + direct["messages"]
        recorded["events"] = direct["events"]
        assert recorded == direct


class TestRouting:
    def test_cut_through_paths(self):
        sim, cluster, rt, comm = build("ipc")
        tp = rt.transport
        g = cluster.gpus
        assert tp.cut_through(g[0], g[0], 64) is None
        ipc = tp.cut_through(g[0], g[1], 1 << 20)
        assert (ipc.kind, ipc.span, ipc.moved) == ("ipc", "p2p", True)
        assert ipc.links == (g[0].pcie_up, g[1].pcie_down)
        gdr = tp.cut_through(g[0], g[16], 64 << 10)
        assert (gdr.kind, gdr.span, gdr.moved) == ("gdr", "rdma", False)
        assert gdr.links[0] is g[0].pcie_up and gdr.links[-1] is g[16].pcie_down
        # Above the GDR threshold the message is staged through the host.
        assert tp.cut_through(g[0], g[16], 1 << 20) is None

    def test_no_cut_through_without_ipc_or_gdr(self):
        sim = Simulator()
        cluster = cluster_a(sim, n_nodes=2)
        tp = MPIRuntime(cluster, "openmpi").transport
        g = cluster.gpus
        assert tp.cut_through(g[0], g[1], 64) is None
        assert tp.cut_through(g[0], g[16], 64) is None

    def test_eligibility_refuses_observed_or_armed_runs(self):
        sim, cluster, rt, comm = build("ipc")
        tp = rt.transport
        a = DeviceBuffer(cluster.gpus[0], 4096)
        b = DeviceBuffer(cluster.gpus[1], 4096)
        assert tp.direct_route(a, b, 4096, 0, 0) is not None
        assert tp.direct_route(a, b, 4096, 8, 0) is None  # over-read
        cluster.fault_links_armed = True
        assert tp.direct_route(a, b, 4096, 0, 0) is None
        cluster.fault_links_armed = False
        SpanRecorder(sim)
        assert tp.direct_route(a, b, 4096, 0, 0) is None


def crash_run(kind, revoke_at, force="direct"):
    """Ranks 0 and 1 send to rank 2 at t=0, contending for its
    downlink; idle rank 3 crashes at t=0 and is detected at
    ``revoke_at``, which revokes the communicator."""
    sim, cluster, rt, comm = build(kind, force)
    nbytes = SIZES[kind][1]
    seen = {}

    def program(ctx):
        if ctx.rank == 3:
            try:
                yield ctx.sim.timeout(1.0)
            except Interrupt:
                return "crashed"
        reqs = []
        if ctx.rank == 2:
            for src in (0, 1):
                buf = DeviceBuffer(ctx.gpu, nbytes)
                reqs.append(ctx.irecv(src, buf, tag=src))
        elif ctx.rank in (0, 1):
            buf = DeviceBuffer(ctx.gpu, nbytes)
            reqs.append(ctx.isend(2, buf, tag=ctx.rank))
        out = []
        for req in reqs:
            try:
                yield req.wait()
                out.append(("ok", ctx.sim.now))
            except CommRevoked:
                out.append(("revoked", ctx.sim.now))
        return out

    def probe():
        # Just before the revoke: what is in flight, and in which phase.
        yield sim.timeout(revoke_at * (1 - 1e-9))
        seen["inflight"] = sorted(
            ("mover", "-") if isinstance(h, Process) else
            ("direct", "holding" if len(h.grants) == len(h.links)
             else "queued")
            for h in comm._inflight)

    procs = rt.spawn(comm, program)
    if revoke_at is not None:
        sim.process(probe())
        plan = FaultPlan("crash3", (CrashRank(time=0.0, rank=3),))
        FaultInjector(cluster, plan).arm(
            runtime=rt, procs=procs, gpus=comm.gpus,
            detect_latency=revoke_at)
    sim.run()
    return {
        "now": sim.now,
        "events": sim.event_count,
        "links": link_state(cluster),
        "results": [p.value for p in procs],
        "idle": links_idle(cluster),
        "inflight_left": len(comm._inflight),
    }, seen


@pytest.mark.parametrize("kind", ["ipc", "gdr"])
class TestRevokeDirectTransfer:
    def completion_times(self, kind):
        quiet, _ = crash_run(kind, None)
        ends = sorted(t for _status, t in quiet["results"][2])
        return ends

    def test_revoke_while_queued_and_holding(self, kind):
        first, _second = self.completion_times(kind)
        revoke_at = first / 2
        direct, seen = crash_run(kind, revoke_at)
        mover, mseen = crash_run(kind, revoke_at, force="mover")
        assert seen["inflight"] == [("direct", "holding"),
                                    ("direct", "queued")]
        assert mseen["inflight"] == [("mover", "-")] * 2
        # Both messages die: all four requests fail with CommRevoked.
        res = direct["results"]
        assert [s for s, _t in res[0] + res[1] + res[2]] == ["revoked"] * 4
        assert res[3] == "crashed"
        assert direct["idle"] and direct["inflight_left"] == 0
        assert direct == mover

    def test_revoke_while_holding_after_first_delivery(self, kind):
        first, second = self.completion_times(kind)
        revoke_at = (first + second) / 2
        direct, seen = crash_run(kind, revoke_at)
        mover, _ = crash_run(kind, revoke_at, force="mover")
        assert seen["inflight"] == [("direct", "holding")]
        statuses = sorted(s for r in direct["results"][:3] for s, _t in r)
        assert statuses == ["ok", "ok", "revoked", "revoked"]
        assert direct["idle"] and direct["inflight_left"] == 0
        assert direct == mover


class TestEdges:
    def test_truncation_fails_both_requests(self):
        for force in ("direct", "mover"):
            sim, cluster, rt, comm = build("ipc", force)

            def program(ctx):
                buf = DeviceBuffer(ctx.gpu, 1 << 20)
                if ctx.rank == 0:
                    req = ctx.isend(1, buf)
                elif ctx.rank == 1:
                    req = ctx.irecv(0, buf, nbytes=1 << 19)
                else:
                    return None
                try:
                    yield req.wait()
                except RuntimeError as exc:
                    return str(exc)
                return "completed"

            out = rt.execute(comm, program)
            assert "truncation" in out[0] and "truncation" in out[1]
            assert links_idle(cluster) and not comm._inflight

    @pytest.mark.parametrize("force", ["direct", "mover"])
    def test_bad_offset_still_raises(self, force):
        sim, cluster, rt, comm = build("ipc", force)

        def program(ctx):
            buf = DeviceBuffer(ctx.gpu, 4096)
            if ctx.rank == 0:
                req = ctx.isend(1, buf, offset=4096 + 64, nbytes=64)
            elif ctx.rank == 1:
                req = ctx.irecv(0, buf)
            else:
                return
            yield req.wait()

        with pytest.raises(ValueError, match="offset beyond buffer"):
            rt.execute(comm, program)

    def test_direct_handle_is_used_and_deregistered(self):
        sim, cluster, rt, comm = build("gdr")
        seen = []

        def program(ctx):
            buf = DeviceBuffer(ctx.gpu, 64 << 10)
            if ctx.rank == 0:
                req = ctx.isend(2, buf)
            elif ctx.rank == 2:
                req = ctx.irecv(0, buf)  # matches: the transfer starts
                seen.extend(type(h) for h in comm._inflight)
            else:
                return
            yield req.wait()

        rt.execute(comm, program)
        assert seen == [_DirectTransfer]
        assert not comm._inflight and links_idle(cluster)
