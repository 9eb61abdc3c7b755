"""Tests for collective algorithms: numerical correctness and shape.

Every reduction algorithm is validated by pushing *real* NumPy payloads
through the simulated transport and checking byte-exact sums — the same
arithmetic the gradient-aggregation phase of S-Caffe depends on.
"""

import numpy as np
import pytest

from repro.cuda import DeviceBuffer
from repro.hardware import cluster_a, cluster_b
from repro.mpi import MPIRuntime, MV2, MV2GDR, OPENMPI
from repro.mpi.collectives import (
    HRConfig, allreduce_ring, allreduce_reduce_bcast, bcast_binomial,
    bcast_flat, hierarchical_reduce, hr_plan, ibcast, ireduce,
    parse_hr_config, reduce_binomial, reduce_chain, reduce_design,
    select_reduce_plan, tuned_reduce,
)
from repro.sim import Simulator


def runtime_for(n_gpus, profile=MV2GDR, kind="a"):
    sim = Simulator()
    if kind == "a":
        nodes = max(1, (n_gpus + 15) // 16)
        cluster = cluster_a(sim, n_nodes=nodes)
    else:
        cluster = cluster_b(sim, n_nodes=max(2, (n_gpus + 1) // 2))
    rt = MPIRuntime(cluster, profile)
    return rt, rt.world(n_gpus)


def rank_payload(rank, n=64):
    rng = np.random.default_rng(1000 + rank)
    return rng.standard_normal(n).astype(np.float32)


class TestBcast:
    @pytest.mark.parametrize("P", [1, 2, 3, 4, 7, 8, 13])
    @pytest.mark.parametrize("root", [0, 1])
    def test_binomial_delivers_to_all(self, P, root):
        if root >= P:
            pytest.skip("root out of range")
        rt, comm = runtime_for(P)
        data = np.arange(32, dtype=np.float32)

        def program(ctx):
            if ctx.rank == root:
                buf = DeviceBuffer.from_array(ctx.gpu, data)
            else:
                buf = DeviceBuffer.zeros(ctx.gpu, 32)
            yield from bcast_binomial(ctx, buf, root)
            return buf.data.copy()

        results = rt.execute(comm, program)
        for r in results:
            np.testing.assert_array_equal(r, data)

    def test_flat_bcast_delivers(self):
        rt, comm = runtime_for(4)
        data = np.ones(16, dtype=np.float32) * 5

        def program(ctx):
            buf = (DeviceBuffer.from_array(ctx.gpu, data) if ctx.rank == 0
                   else DeviceBuffer.zeros(ctx.gpu, 16))
            yield from bcast_flat(ctx, buf, 0)
            return float(buf.data.sum())

        results = rt.execute(comm, program)
        assert all(r == pytest.approx(80.0) for r in results)

    def test_binomial_faster_than_flat_at_scale(self):
        """log(P) rounds beat the root's P-1 serialized sends."""
        times = {}
        for name, algo in (("binomial", bcast_binomial), ("flat", bcast_flat)):
            rt, comm = runtime_for(16)

            def program(ctx):
                buf = DeviceBuffer(ctx.gpu, 32 << 20)
                yield from algo(ctx, buf, 0)
                return ctx.sim.now

            times[name] = max(rt.execute(comm, program))
        assert times["flat"] > times["binomial"] * 1.3

    def test_ibcast_async_progress_overlaps(self):
        """With async progression the broadcast completes during unrelated
        compute, so the post-compute Wait is nearly free (SC-OB's
        enabling property)."""
        rt, comm = runtime_for(8)

        def program(ctx):
            buf = DeviceBuffer(ctx.gpu, 32 << 20)
            req = ibcast(ctx, buf, 0)
            yield ctx.sim.timeout(10.0)  # "forward pass" on other data
            before = ctx.sim.now
            yield req.wait()
            return ctx.sim.now - before

        waits = rt.execute(comm, program)
        assert max(waits) < 0.05

    def test_ibcast_without_async_progress_pays_at_wait(self):
        rt, comm = runtime_for(8, profile=OPENMPI)

        def program(ctx):
            buf = DeviceBuffer(ctx.gpu, 32 << 20)
            req = ibcast(ctx, buf, 0)
            yield ctx.sim.timeout(10.0)
            before = ctx.sim.now
            yield req.wait()
            return ctx.sim.now - before

        waits = rt.execute(comm, program)
        assert max(waits) > 0.01  # communication happened inside Wait


def run_reduce(rt, comm, algo_fn, n_elems=256, root=0):
    """Run a reduction program; returns (root_result, expected)."""
    payloads = [rank_payload(r, n_elems) for r in range(comm.size)]
    expected = np.sum(payloads, axis=0, dtype=np.float32)

    def program(ctx):
        sendbuf = DeviceBuffer.from_array(ctx.gpu, payloads[ctx.rank])
        recvbuf = (DeviceBuffer.zeros(ctx.gpu, n_elems)
                   if ctx.rank == root else None)
        yield from algo_fn(ctx, sendbuf, recvbuf, root)
        if ctx.rank == root:
            return recvbuf.data.copy()

    results = rt.execute(comm, program)
    return results[root], expected


class TestReduceBinomial:
    @pytest.mark.parametrize("P", [1, 2, 3, 4, 5, 8, 13, 16])
    def test_sum_correct(self, P):
        rt, comm = runtime_for(P)
        got, expected = run_reduce(rt, comm, reduce_binomial)
        np.testing.assert_allclose(got, expected, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("root", [0, 1, 3])
    def test_nonzero_root(self, root):
        rt, comm = runtime_for(4)
        got, expected = run_reduce(rt, comm, reduce_binomial, root=root)
        np.testing.assert_allclose(got, expected, rtol=1e-4, atol=1e-5)

    def test_root_requires_recvbuf(self):
        rt, comm = runtime_for(2)

        def program(ctx):
            buf = DeviceBuffer(ctx.gpu, 64)
            yield from reduce_binomial(ctx, buf, None, 0)

        with pytest.raises(ValueError, match="recvbuf"):
            rt.execute(comm, program)

    @pytest.mark.parametrize("profile", [MV2, OPENMPI])
    def test_sum_correct_under_host_reduce_profiles(self, profile):
        rt, comm = runtime_for(4, profile=profile)
        got, expected = run_reduce(rt, comm, reduce_binomial)
        np.testing.assert_allclose(got, expected, rtol=1e-4, atol=1e-5)

    def test_scratch_memory_released(self):
        rt, comm = runtime_for(8)
        before = [g.allocated_bytes for g in comm.gpus]

        def program(ctx):
            sendbuf = DeviceBuffer(ctx.gpu, 1 << 20)
            recvbuf = DeviceBuffer(ctx.gpu, 1 << 20) if ctx.rank == 0 else None
            yield from reduce_binomial(ctx, sendbuf, recvbuf, 0)
            sendbuf.free()
            if recvbuf:
                recvbuf.free()

        rt.execute(comm, program)
        after = [g.allocated_bytes for g in comm.gpus]
        assert after == before


class TestReduceChain:
    @pytest.mark.parametrize("P", [1, 2, 3, 4, 8])
    def test_sum_correct(self, P):
        rt, comm = runtime_for(P)
        got, expected = run_reduce(rt, comm, reduce_chain)
        np.testing.assert_allclose(got, expected, rtol=1e-4, atol=1e-5)

    def test_nonzero_root(self):
        rt, comm = runtime_for(4)
        got, expected = run_reduce(rt, comm, reduce_chain, root=2)
        np.testing.assert_allclose(got, expected, rtol=1e-4, atol=1e-5)

    def test_chunking_respects_chunk_bytes(self):
        rt, comm = runtime_for(3)
        payloads = [rank_payload(r, 1024) for r in range(3)]
        expected = np.sum(payloads, axis=0, dtype=np.float32)

        def program(ctx):
            sendbuf = DeviceBuffer.from_array(ctx.gpu, payloads[ctx.rank])
            recvbuf = (DeviceBuffer.zeros(ctx.gpu, 1024)
                       if ctx.rank == 0 else None)
            yield from reduce_chain(ctx, sendbuf, recvbuf, 0,
                                    chunk_bytes=256)
            if ctx.rank == 0:
                return recvbuf.data.copy()

        results = rt.execute(comm, program)
        np.testing.assert_allclose(results[0], expected, rtol=1e-4, atol=1e-5)

    def test_chain_beats_binomial_for_large_buffers_small_P(self):
        """Section 5: for small P and large b, T(CC) << T(Bin)."""
        times = {}
        for name, algo in (("chain", reduce_chain),
                           ("binomial", reduce_binomial)):
            rt, comm = runtime_for(8)

            def program(ctx):
                sendbuf = DeviceBuffer(ctx.gpu, 64 << 20)
                recvbuf = (DeviceBuffer(ctx.gpu, 64 << 20)
                           if ctx.rank == 0 else None)
                yield from algo(ctx, sendbuf, recvbuf, 0)
                return ctx.sim.now

            times[name] = max(rt.execute(comm, program))
        assert times["chain"] < times["binomial"]

    def test_binomial_beats_chain_for_small_buffers_large_P(self):
        """Section 5: for large P and small b, T(CC) >> T(Bin)."""
        times = {}
        for name, algo in (("chain", reduce_chain),
                           ("binomial", reduce_binomial)):
            rt, comm = runtime_for(32)

            def program(ctx):
                sendbuf = DeviceBuffer(ctx.gpu, 8 << 10)
                recvbuf = (DeviceBuffer(ctx.gpu, 8 << 10)
                           if ctx.rank == 0 else None)
                yield from algo(ctx, sendbuf, recvbuf, 0)
                return ctx.sim.now

            times[name] = max(rt.execute(comm, program))
        assert times["binomial"] < times["chain"]


class TestHierarchicalReduce:
    @pytest.mark.parametrize("label", ["CB-4", "CC-4", "CB-8", "CC-8"])
    @pytest.mark.parametrize("P", [8, 12, 16])
    def test_sum_correct(self, label, P):
        rt, comm = runtime_for(P)
        algo = lambda ctx, s, r, root: hierarchical_reduce(
            ctx, s, r, root, config=label)
        got, expected = run_reduce(rt, comm, algo)
        np.testing.assert_allclose(got, expected, rtol=1e-4, atol=1e-5)

    def test_nonzero_root(self):
        rt, comm = runtime_for(12)
        algo = lambda ctx, s, r, root: hierarchical_reduce(
            ctx, s, r, root, config="CB-4")
        got, expected = run_reduce(rt, comm, algo, root=5)
        np.testing.assert_allclose(got, expected, rtol=1e-4, atol=1e-5)

    def test_degenerate_small_comm(self):
        rt, comm = runtime_for(3)
        algo = lambda ctx, s, r, root: hierarchical_reduce(
            ctx, s, r, root, config="CB-8")
        got, expected = run_reduce(rt, comm, algo)
        np.testing.assert_allclose(got, expected, rtol=1e-4, atol=1e-5)

    def test_hr_plan_structure(self):
        rt, comm = runtime_for(16)
        lowers, upper, leaders = hr_plan(comm, root=0, chain_size=8)
        assert [lc.size for lc in lowers] == [8, 8]
        assert upper.size == 2
        assert leaders == [0, 8]

    def test_hr_plan_cached(self):
        rt, comm = runtime_for(16)
        p1 = hr_plan(comm, 0, 8)
        p2 = hr_plan(comm, 0, 8)
        assert p1 is p2

    def test_hr_plan_rotation_for_root(self):
        rt, comm = runtime_for(8)
        lowers, upper, leaders = hr_plan(comm, root=3, chain_size=4)
        assert leaders[0] == 3
        assert lowers[0].gpu_of(0) is comm.gpu_of(3)

    def test_parse_labels(self):
        cfg = parse_hr_config("CB-8")
        assert (cfg.lower, cfg.upper, cfg.chain_size) == ("chain",
                                                          "binomial", 8)
        assert cfg.label == "CB-8"
        assert parse_hr_config("cc-4").label == "CC-4"
        with pytest.raises(ValueError):
            parse_hr_config("XY-8")
        with pytest.raises(ValueError):
            parse_hr_config("CB8")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HRConfig(("chain", "binomial"), 1)
        with pytest.raises(ValueError):
            HRConfig(("ring", "binomial"), 8)

    def test_hr_beats_flat_binomial_large_message(self):
        """The headline property: HR beats the flat binomial for
        DL-scale buffers at scale (Fig. 11)."""
        times = {}

        def run(label):
            rt, comm = runtime_for(32)

            def program(ctx):
                sendbuf = DeviceBuffer(ctx.gpu, 64 << 20)
                recvbuf = (DeviceBuffer(ctx.gpu, 64 << 20)
                           if ctx.rank == 0 else None)
                if label == "flat":
                    yield from reduce_binomial(ctx, sendbuf, recvbuf, 0)
                else:
                    yield from hierarchical_reduce(ctx, sendbuf, recvbuf,
                                                   0, config=label)
                return ctx.sim.now

            return max(rt.execute(comm, program))

        times["flat"] = run("flat")
        times["CB-8"] = run("CB-8")
        assert times["CB-8"] < times["flat"]


class TestTunedReduce:
    def test_plan_small_message_is_binomial(self):
        assert select_reduce_plan(160, 4 << 10).kind == "binomial"

    def test_plan_large_message_small_P_is_chain(self):
        assert select_reduce_plan(8, 64 << 20).kind == "chain"

    def test_plan_large_message_mid_P_is_cc(self):
        plan = select_reduce_plan(64, 64 << 20)
        assert plan.label == "CC-8"

    def test_plan_large_message_large_P_is_cb(self):
        plan = select_reduce_plan(160, 64 << 20)
        assert plan.label == "CB-8"

    def test_tuned_reduce_correct(self):
        rt, comm = runtime_for(16)
        got, expected = run_reduce(rt, comm, lambda c, s, r, root:
                                   tuned_reduce(c, s, r, root))
        np.testing.assert_allclose(got, expected, rtol=1e-4, atol=1e-5)

    def test_tuned_reduce_falls_back_without_hr(self):
        rt, comm = runtime_for(8, profile=MV2)
        got, expected = run_reduce(rt, comm, lambda c, s, r, root:
                                   tuned_reduce(c, s, r, root))
        np.testing.assert_allclose(got, expected, rtol=1e-4, atol=1e-5)


class TestReduceDesign:
    @pytest.mark.parametrize("design", ["tuned", "flat", "binomial", "chain",
                                        "CB-4", "CC-4", "CCB-2"])
    @pytest.mark.parametrize("root", [0, 5])
    def test_every_design_sums(self, design, root):
        rt, comm = runtime_for(16)
        got, expected = run_reduce(
            rt, comm, lambda c, s, r, rt_: reduce_design(c, s, r, rt_, design),
            root=root)
        np.testing.assert_allclose(got, expected, rtol=1e-4, atol=1e-5)

    def test_chunk_bytes_reaches_explicit_design(self):
        def latency(design, chunk_bytes):
            rt, comm = runtime_for(8)

            def program(ctx):
                sendbuf = DeviceBuffer(ctx.gpu, 8 << 20)
                recvbuf = (DeviceBuffer(ctx.gpu, 8 << 20)
                           if ctx.rank == 0 else None)
                yield from reduce_design(ctx, sendbuf, recvbuf, 0, design,
                                         chunk_bytes=chunk_bytes)
                return ctx.sim.now

            return max(rt.execute(comm, program))

        for design in ("chain", "CC-4"):
            assert latency(design, 256 << 10) != latency(design, None)
        # "tuned" resolves its own chunk: an explicit one is ignored.
        assert latency("tuned", 256 << 10) == latency("tuned", None)

    def test_unknown_design_rejected(self):
        rt, comm = runtime_for(4)
        with pytest.raises(ValueError):
            run_reduce(rt, comm, lambda c, s, r, root:
                       reduce_design(c, s, r, root, "CB8"))


class TestIreduce:
    def test_ireduce_defers_to_wait(self):
        """Ireduce must not progress asynchronously (Section 4.2) — the
        motivation for the helper-thread co-design."""
        rt, comm = runtime_for(8)

        def program(ctx):
            sendbuf = DeviceBuffer(ctx.gpu, 32 << 20)
            recvbuf = (DeviceBuffer(ctx.gpu, 32 << 20)
                       if ctx.rank == 0 else None)
            req = ireduce(ctx, sendbuf, recvbuf, 0)
            yield ctx.sim.timeout(10.0)  # plenty of overlap window
            before = ctx.sim.now
            yield req.wait()
            return ctx.sim.now - before

        waits = rt.execute(comm, program)
        assert max(waits) > 0.001  # the work happened inside Wait

    def test_ireduce_result_correct(self):
        rt, comm = runtime_for(4)
        payloads = [rank_payload(r, 128) for r in range(4)]
        expected = np.sum(payloads, axis=0, dtype=np.float32)

        def program(ctx):
            sendbuf = DeviceBuffer.from_array(ctx.gpu, payloads[ctx.rank])
            recvbuf = (DeviceBuffer.zeros(ctx.gpu, 128)
                       if ctx.rank == 0 else None)
            req = ireduce(ctx, sendbuf, recvbuf, 0)
            yield req.wait()
            if ctx.rank == 0:
                return recvbuf.data.copy()

        results = rt.execute(comm, program)
        np.testing.assert_allclose(results[0], expected, rtol=1e-4, atol=1e-5)


class TestAllreduce:
    @pytest.mark.parametrize("P", [2, 3, 4, 8])
    def test_ring_sum_on_all_ranks(self, P):
        rt, comm = runtime_for(P)
        payloads = [rank_payload(r, 128) for r in range(P)]
        expected = np.sum(payloads, axis=0, dtype=np.float32)

        def program(ctx):
            sendbuf = DeviceBuffer.from_array(ctx.gpu, payloads[ctx.rank])
            recvbuf = DeviceBuffer.zeros(ctx.gpu, 128)
            yield from allreduce_ring(ctx, sendbuf, recvbuf)
            return recvbuf.data.copy()

        for r in rt.execute(comm, program):
            np.testing.assert_allclose(r, expected, rtol=1e-4)

    def test_reduce_bcast_variant(self):
        rt, comm = runtime_for(4)
        payloads = [rank_payload(r, 64) for r in range(4)]
        expected = np.sum(payloads, axis=0, dtype=np.float32)

        def program(ctx):
            sendbuf = DeviceBuffer.from_array(ctx.gpu, payloads[ctx.rank])
            recvbuf = DeviceBuffer.zeros(ctx.gpu, 64)
            yield from allreduce_reduce_bcast(ctx, sendbuf, recvbuf)
            return recvbuf.data.copy()

        for r in rt.execute(comm, program):
            np.testing.assert_allclose(r, expected, rtol=1e-4)

    def test_single_rank(self):
        rt, comm = runtime_for(1)
        data = rank_payload(0, 32)

        def program(ctx):
            sendbuf = DeviceBuffer.from_array(ctx.gpu, data)
            recvbuf = DeviceBuffer.zeros(ctx.gpu, 32)
            yield from allreduce_ring(ctx, sendbuf, recvbuf)
            return recvbuf.data.copy()

        np.testing.assert_allclose(rt.execute(comm, program)[0], data)


class TestAllreduceRingUnalignedTail:
    """The ring moves every byte of a buffer whose size is not a
    multiple of 4: the last non-empty block owns the tail.  CNTK's 1-bit
    wire buffers hit this (GoogLeNet's is 874,827 B)."""

    @pytest.mark.parametrize("P", [2, 3, 5])
    @pytest.mark.parametrize("nbytes", [1, 3, 10, 4097, 874827])
    def test_size_only_run_delivers_every_byte(self, P, nbytes):
        from repro.check import InvariantChecker
        rt, comm = runtime_for(P)
        chk = InvariantChecker()
        chk.install(rt.sim)

        def program(ctx):
            sendbuf = DeviceBuffer(ctx.gpu, nbytes)
            recvbuf = DeviceBuffer(ctx.gpu, nbytes)
            yield from allreduce_ring(ctx, sendbuf, recvbuf)

        try:
            rt.execute(comm, program)
        finally:
            chk.uninstall()
        # Both phases cross each block over P-1 ring links.
        assert chk.coll_bytes == {"allreduce.ring": 2 * (P - 1) * nbytes}

    @pytest.mark.parametrize("P", [2, 3, 5])
    @pytest.mark.parametrize("n", [1, 3, 31])
    def test_odd_length_byte_payload_is_exact(self, P, n):
        payloads = [np.random.default_rng(r).integers(0, 8, n, dtype=np.uint8)
                    for r in range(P)]
        want = np.sum(payloads, axis=0, dtype=np.uint8)
        rt, comm = runtime_for(P)

        def program(ctx):
            sendbuf = DeviceBuffer.from_array(ctx.gpu, payloads[ctx.rank])
            recvbuf = DeviceBuffer.zeros(ctx.gpu, n, dtype=np.uint8)
            yield from allreduce_ring(ctx, sendbuf, recvbuf)
            return recvbuf.data.copy()

        for got in rt.execute(comm, program):
            np.testing.assert_array_equal(got, want)


class TestProfileReduceGap:
    def test_mv2gdr_beats_mv2_beats_openmpi(self):
        """The Fig. 12 ordering at a DL-scale message size."""
        times = {}
        for profile in (MV2GDR, MV2, OPENMPI):
            rt, comm = runtime_for(16, profile=profile)

            def program(ctx):
                sendbuf = DeviceBuffer(ctx.gpu, 32 << 20)
                recvbuf = (DeviceBuffer(ctx.gpu, 32 << 20)
                           if ctx.rank == 0 else None)
                yield from tuned_reduce(ctx, sendbuf, recvbuf, 0)
                return ctx.sim.now

            times[profile.name] = max(rt.execute(comm, program))
        assert times["mv2gdr"] < times["mv2"] < times["openmpi"]
        assert times["openmpi"] / times["mv2gdr"] > 10


class TestChainFlowControl:
    """Bounded rendezvous windows on the chain (real runtimes' RNDV
    buffer limits).  In this link-serialized fabric the window barely
    changes timing (the link FIFO is itself the buffer) — correctness
    must hold for any window."""

    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_windowed_chain_correct(self, window):
        rt, comm = runtime_for(4)
        payloads = [rank_payload(r, 512) for r in range(4)]
        expected = np.sum(payloads, axis=0, dtype=np.float32)

        def program(ctx):
            sendbuf = DeviceBuffer.from_array(ctx.gpu, payloads[ctx.rank])
            recvbuf = (DeviceBuffer.zeros(ctx.gpu, 512)
                       if ctx.rank == 0 else None)
            yield from reduce_chain(ctx, sendbuf, recvbuf, 0,
                                    chunk_bytes=128, window=window)
            if ctx.rank == 0:
                return recvbuf.data.copy()

        results = rt.execute(comm, program)
        np.testing.assert_allclose(results[0], expected, rtol=1e-4,
                                   atol=1e-5)

    def test_window_one_not_faster_than_unbounded(self):
        def timed(window):
            rt, comm = runtime_for(8)

            def program(ctx):
                sendbuf = DeviceBuffer(ctx.gpu, 32 << 20)
                recvbuf = (DeviceBuffer(ctx.gpu, 32 << 20)
                           if ctx.rank == 0 else None)
                yield from reduce_chain(ctx, sendbuf, recvbuf, 0,
                                        window=window)
                return ctx.sim.now

            return max(rt.execute(comm, program))

        assert timed(None) <= timed(1) * 1.001
