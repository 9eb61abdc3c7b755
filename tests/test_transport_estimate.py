"""Cross-validation of the transport's closed-form estimate (satellite
of ISSUE 9): ``DeviceTransport.estimate`` is what the auto-tuner uses to
prune candidates before paying for full simulations, so it must track
the actually-simulated transfer times.  A lone cut-through transfer
(CUDA IPC, GPUDirect RDMA) is one jitter-free hold, so its estimate must
equal the simulated time exactly; the staged paths must land within 25%,
on both the batched-train and per-chunk pipelines.

The estimate is *uncontended* (single transfer, idle links), so each
measurement runs one transfer on a fresh simulator.
"""

import pytest

from repro.cuda import DeviceBuffer
from repro.hardware import cluster_a
from repro.mpi import MPIRuntime
from repro.prof import SpanRecorder
from repro.sim import Simulator

#: Relative tolerance for estimate vs simulation on the staged paths.
#: Their closed form approximates the pipeline's ramp and chunk
#: synchronization, so it is a ranking model, not a clock — 25% holds
#: across the staged paths at these sizes.
TOL = 0.25


def simulate_transfer(nbytes, src_idx, dst_idx, *, profile="mv2gdr",
                      record=False):
    """One transfer on a fresh cluster; returns (simulated, estimate)."""
    sim = Simulator(seed=0)
    cluster = cluster_a(sim, n_nodes=2)
    rt = MPIRuntime(cluster, profile)
    if record:
        # A recorder's spans make the staged links train-ineligible,
        # forcing the per-chunk pipeline instead of the batched train.
        SpanRecorder(sim)
    src_gpu, dst_gpu = cluster.gpus[src_idx], cluster.gpus[dst_idx]
    src = DeviceBuffer(src_gpu, nbytes)
    dst = DeviceBuffer(dst_gpu, nbytes)

    done = {}

    def run():
        yield from rt.transport.transfer(src, dst, nbytes)
        done["t"] = sim.now

    sim.process(run(), name="xfer")
    sim.run()
    return done["t"], rt.transport.estimate(src_gpu, dst_gpu, nbytes)


def assert_close(simulated, estimate):
    assert simulated > 0 and estimate > 0
    assert abs(estimate - simulated) <= TOL * simulated, (
        f"estimate {estimate * 1e6:.1f}us vs simulated "
        f"{simulated * 1e6:.1f}us ({abs(estimate - simulated) / simulated:.1%} off)")


class TestCutThroughEstimateIsExact:
    """IPC and GDR are priced from the path's ``CutThrough`` — latency
    sum, bottleneck bandwidth and ``extra`` — exactly as the hold is
    simulated, so a lone transfer's estimate is its simulated time."""

    @pytest.mark.parametrize("nbytes", [1 << 10, 64 << 10, 128 << 10,
                                        16 << 20])
    def test_intra_node_ipc(self, nbytes):
        simulated, estimate = simulate_transfer(nbytes, 0, 1)
        assert estimate == simulated

    @pytest.mark.parametrize("nbytes", [1 << 10, 64 << 10, 128 << 10])
    def test_inter_node_gdr(self, nbytes):
        simulated, estimate = simulate_transfer(nbytes, 0, 16)
        assert estimate == simulated


class TestEstimateVsSimulation:
    @pytest.mark.parametrize("nbytes", [64 << 10, 4 << 20])
    def test_same_device(self, nbytes):
        simulated, estimate = simulate_transfer(nbytes, 0, 0)
        assert_close(simulated, estimate)

    @pytest.mark.parametrize("nbytes", [64 << 10, 1 << 20, 16 << 20])
    def test_intra_node_ipc(self, nbytes):
        simulated, estimate = simulate_transfer(nbytes, 0, 1)
        assert_close(simulated, estimate)

    @pytest.mark.parametrize("nbytes", [4 << 10, 64 << 10])
    def test_inter_node_gdr(self, nbytes):
        # mv2gdr default gdr_threshold covers these sizes.
        simulated, estimate = simulate_transfer(nbytes, 0, 16)
        assert_close(simulated, estimate)

    @pytest.mark.parametrize("nbytes", [1 << 20, 16 << 20])
    def test_inter_node_staged_train(self, nbytes):
        """Large messages go host-staged; with idle links the batched
        train fast path computes the pipeline schedule in one shot."""
        simulated, estimate = simulate_transfer(nbytes, 0, 16)
        assert_close(simulated, estimate)

    @pytest.mark.parametrize("nbytes", [1 << 20, 16 << 20])
    def test_inter_node_staged_per_chunk(self, nbytes):
        """The same staged transfer with a profiler attached takes the
        per-chunk path — same timing contract, so the closed form must
        hold there too."""
        simulated, estimate = simulate_transfer(nbytes, 0, 16,
                                                record=True)
        assert_close(simulated, estimate)

    def test_train_and_per_chunk_agree(self):
        """The two staged implementations are timing-identical — the
        estimate validates against one schedule, not two."""
        for nbytes in (1 << 20, 16 << 20):
            train, _ = simulate_transfer(nbytes, 0, 16)
            chunked, _ = simulate_transfer(nbytes, 0, 16, record=True)
            assert train == pytest.approx(chunked, rel=1e-12)

    def test_intra_node_staged_without_ipc(self):
        """openmpi profile: no IPC, intra-node goes through the host."""
        simulated, estimate = simulate_transfer(4 << 20, 0, 1,
                                                profile="openmpi")
        assert_close(simulated, estimate)
