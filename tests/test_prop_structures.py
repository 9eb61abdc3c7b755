"""Property-based tests for structural invariants: HR plans, stage
partitions, block partitions, workload folding."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mpi_caffe import partition_groups
from repro.core.workload import Workload
from repro.dnn.specs import (
    NetworkSpec, activation_spec, conv_spec, dense_spec,
)
from repro.hardware import cluster_a
from repro.mpi import MPIRuntime, MV2GDR
from repro.mpi.collectives import block_partition, block_plan, hr_plan
from repro.sim import Simulator


class TestHRPlanProperties:
    @given(st.integers(min_value=2, max_value=48),
           st.integers(min_value=2, max_value=16),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_groups_partition_the_ranks(self, P, chain_size, data):
        root = data.draw(st.integers(min_value=0, max_value=P - 1))
        sim = Simulator()
        cluster = cluster_a(sim, n_nodes=max(1, (P + 15) // 16))
        rt = MPIRuntime(cluster, MV2GDR)
        comm = rt.world(P)
        lowers, upper, leaders = hr_plan(comm, root, chain_size)

        # Every GPU appears in exactly one lower communicator.
        seen = []
        for lc in lowers:
            seen.extend(id(g) for g in lc.gpus)
        assert sorted(seen) == sorted(id(g) for g in comm.gpus)
        # Group sizes: all chain_size except possibly the last.
        sizes = [lc.size for lc in lowers]
        assert all(s == chain_size for s in sizes[:-1])
        assert 1 <= sizes[-1] <= chain_size
        # Leaders are each group's rank 0; the global root leads group 0
        # and sits at upper rank 0.
        assert leaders[0] == root
        assert upper.gpus[0] is comm.gpus[root]
        assert upper.size == len(lowers)
        for lc, leader in zip(lowers, leaders):
            assert lc.gpus[0] is comm.gpus[leader]


class TestPartitionGroupsProperties:
    @given(st.integers(min_value=1, max_value=128),
           st.integers(min_value=1, max_value=128))
    @settings(max_examples=100, deadline=None)
    def test_partition_invariants(self, n_groups, n_stages):
        if n_stages > n_groups:
            with pytest.raises(ValueError):
                partition_groups(n_groups, n_stages)
            return
        parts = partition_groups(n_groups, n_stages)
        assert len(parts) == n_stages
        flat = [i for p in parts for i in p]
        assert flat == list(range(n_groups))
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1  # balanced


class TestBlockPartitionProperties:
    @given(st.integers(min_value=0, max_value=1 << 22).map(
        lambda n: n - n % 4),
        st.integers(min_value=1, max_value=64))
    @settings(max_examples=100, deadline=None)
    def test_block_invariants(self, nbytes, P):
        blocks = block_partition(nbytes, P)
        assert len(blocks) == P
        assert sum(n for _, n in blocks) == nbytes
        pos = 0
        for off, n in blocks:
            if n:
                assert off == pos
                pos += n
            assert off % 4 == 0 and n % 4 == 0


class TestBlockPlanProperties:
    @staticmethod
    def _brute_steps(plan, pos, shift, order):
        P = plan.P
        steps = []
        for s in range(P - 1):
            sb = order[(pos + shift - s) % P]
            rb = order[(pos + shift - s - 1) % P]
            if plan.blocks[sb][1] or plan.blocks[rb][1]:
                steps.append((s, sb, rb))
        return steps

    @given(st.integers(min_value=0, max_value=1 << 16),
           st.integers(min_value=1, max_value=64),
           st.integers(min_value=0, max_value=63),
           st.integers(min_value=0, max_value=2))
    @settings(max_examples=200, deadline=None)
    def test_steps_are_exactly_the_live_steps(self, nbytes, P, position,
                                              shift):
        plan = block_plan(nbytes, P)
        pos = position % P
        assert plan.ring_steps(pos, shift) == self._brute_steps(
            plan, pos, shift, range(P))
        # Blocks tile [0, nbytes): the first ``live`` are non-empty and
        # aligned except for the last, which owns the unaligned tail.
        assert len(plan.blocks) == P
        end = 0
        for i, (off, n) in enumerate(plan.blocks):
            assert (n > 0) == (i < plan.live)
            if n:
                assert off == end
                end += n
                if i < plan.live - 1:
                    assert off % 4 == 0 and n % 4 == 0
        assert end == nbytes
        assert plan.longest == max(n for _, n in plan.blocks)

    @given(st.data(), st.integers(min_value=0, max_value=1 << 12),
           st.integers(min_value=1, max_value=24))
    @settings(max_examples=100, deadline=None)
    def test_steps_follow_a_ring_order(self, data, nbytes, P):
        order = tuple(data.draw(st.permutations(range(P))))
        pos = data.draw(st.integers(min_value=0, max_value=P - 1))
        plan = block_plan(nbytes, P)
        assert plan.ring_steps(pos, order=order) == self._brute_steps(
            plan, pos, 0, order)

    @given(st.integers(min_value=0, max_value=1 << 16).map(
        lambda n: n - n % 4),
        st.integers(min_value=1, max_value=64))
    @settings(max_examples=100, deadline=None)
    def test_aligned_plans_keep_the_historical_partition(self, nbytes, P):
        """For aligned sizes the shared plan cuts exactly the blocks the
        per-rank arithmetic used to, so no schedule moves."""
        per = (nbytes // 4 + P - 1) // P * 4
        want = []
        for i in range(P):
            off = min(i * per, nbytes)
            want.append((off, max(0, min(per, nbytes - off))))
        assert list(block_plan(nbytes, P).blocks) == want
        assert block_partition(nbytes, P) == block_plan(nbytes, P).blocks
        assert block_plan(nbytes, P) is block_plan(nbytes, P)


def _random_spec(rng_draw, n_layers):
    layers = []
    cin, hw = 3, 16
    for i in range(n_layers):
        kind = rng_draw(st.sampled_from(["conv", "relu", "pool",
                                         "dense"]))
        if kind == "conv":
            cout = rng_draw(st.integers(min_value=1, max_value=16))
            layers.append(conv_spec(f"c{i}", cin, cout, 3, hw, hw))
            cin = cout
        elif kind == "dense":
            nout = rng_draw(st.integers(min_value=1, max_value=32))
            layers.append(dense_spec(f"d{i}", cin * hw * hw, nout))
            cin, hw = nout, 1
        else:
            layers.append(activation_spec(f"{kind}{i}", kind,
                                          cin * hw * hw))
    if not layers:
        layers.append(activation_spec("only", "relu", 16))
    return NetworkSpec("rand", tuple(layers), 3 * 16 * 16 * 4)


class TestWorkloadFoldingProperties:
    @given(st.data(), st.integers(min_value=1, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_folding_preserves_totals(self, data, n_layers):
        spec = _random_spec(data.draw, n_layers)
        wl = Workload.from_spec(spec)
        assert wl.param_bytes == spec.param_bytes
        assert wl.fwd_flops_per_sample == pytest.approx(
            spec.fwd_flops_per_sample)
        assert wl.bwd_flops_per_sample == pytest.approx(
            spec.bwd_flops_per_sample)
        # Group count: one per weighted layer (or a single catch-all).
        weighted = len(spec.parametrized_layers())
        assert len(wl.groups) == max(1, weighted)
        # Offsets partition the packed buffer exactly.
        offs = wl.group_offsets()
        assert offs[0][0] == 0
        assert sum(n for _, n in offs) == wl.param_bytes
