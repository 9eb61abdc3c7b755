"""Golden pins for the named reduce designs.

Every literal below was captured from a seeded run and is compared
exactly: the OMB reduce driver for each design label, and end-to-end
S-Caffe training for each ``reduce_design``.  A refactor of the design
dispatch must leave all of them bit-identical.
"""

import pytest

from repro import TrainConfig, train
from repro.hardware import make_cluster
from repro.mpi.omb import osu_reduce
from repro.sim import Simulator

KiB, MiB = 1 << 10, 1 << 20
DESIGNS = ("tuned", "flat", "chain", "CB-8", "CC-4", "CCB-4")

#: (profile, P, nbytes) -> design -> osu_reduce latency (s), Cluster-A.
OSU = {
    ("mv2gdr", 16, 64 * KiB): {
        "tuned": 0.00014952512, "flat": 0.00014952512,
        "chain": 0.0005320177066666667, "CB-8": 0.00029905024,
        "CC-4": 0.00022950613333333331, "CCB-4": 0.00022950613333333331},
    ("mv2gdr", 16, 16 * MiB): {
        "tuned": 0.006152139519999999, "flat": 0.006401797759999999,
        "chain": 0.008151595306666665, "CB-8": 0.006152139519999999,
        "CC-4": 0.005229316693333333, "CCB-4": 0.005229316693333333},
    ("mv2gdr", 32, 64 * KiB): {
        "tuned": 0.00018425850666666665, "flat": 0.00018425850666666665,
        "chain": 0.001088331893333334, "CB-8": 0.0003337836266666667,
        "CC-4": 0.00036855567999999995, "CCB-4": 0.00027467642666666664},
    ("mv2gdr", 32, 16 * MiB): {
        "tuned": 0.008325479993725479, "flat": 0.009222302820392157,
        "chain": 0.01678469556705884, "CB-8": 0.008972644580392155,
        "CC-4": 0.008325479993725479, "CCB-4": 0.008171669860392148},
    ("mv2", 16, 64 * KiB): {
        "tuned": 0.00028821717333333337, "flat": 0.00028821717333333337,
        "chain": 0.0008275809066666665, "CB-8": 0.00045668394666666676,
        "CC-4": 0.0003648386133333334, "CCB-4": 0.0003648386133333334},
    ("mv2", 16, 16 * MiB): {
        "tuned": 0.029973308373333375, "flat": 0.029973308373333375,
        "chain": 0.027877871573333372, "CB-8": 0.03002721344000004,
        "CC-4": 0.02794591904000004, "CCB-4": 0.02794591904000004},
    ("mv2", 32, 64 * KiB): {
        "tuned": 0.0003426547733333334, "flat": 0.0003426547733333334,
        "chain": 0.0016991625066666704, "CB-8": 0.0005111215466666668,
        "CC-4": 0.0005827050133333334, "CCB-4": 0.0004297131200000001},
    ("mv2", 32, 16 * MiB): {
        "tuned": 0.03464413378509807, "flat": 0.03464413378509807,
        "chain": 0.05037915707921549, "CB-8": 0.03429827618509807,
        "CC-4": 0.03357389361254906, "CCB-4": 0.033088842585098074},
}

#: reduce_design -> (total_time, sim.event_count) of S-Caffe SC-OBR
#: training cifar10_quick on 4 GPUs of Cluster-A.
TRAIN = {
    "flat": (0.09548618194285714, 1357),
    "tuned": (0.09497088658285716, 1371),
    "CB-2": (0.09580733607619045, 1382),
    "CC-2": (0.09580733607619045, 1382),
}


@pytest.mark.parametrize("point", sorted(OSU), ids=str)
@pytest.mark.parametrize("design", DESIGNS)
def test_osu_reduce_pinned(point, design):
    profile, P, nbytes = point
    t = osu_reduce(lambda: make_cluster(Simulator(), "A"), nbytes, P,
                   profile=profile, design=design)
    assert t == OSU[point][design]


@pytest.mark.parametrize("design", sorted(TRAIN))
def test_scaffe_training_pinned(design):
    cluster = make_cluster(Simulator(), "A")
    cfg = TrainConfig(network="cifar10_quick", dataset="cifar10",
                      batch_size=256, iterations=10, reduce_design=design)
    report = train("scaffe", n_gpus=4, cluster=cluster, config=cfg)
    assert (report.total_time, cluster.sim.event_count) == TRAIN[design]
