"""One reduce-design vocabulary: every name ``repro osu`` runs is a
valid ``TrainConfig.reduce_design``, and bad names fail up front."""

import pytest

from repro import TrainConfig, train
from repro.hardware import make_cluster
from repro.mpi.collectives import validate_reduce_design
from repro.mpi.omb import osu_reduce
from repro.sim import Simulator

ACCEPTED = ("tuned", "flat", "binomial", "chain", "CB-8", "CC-4", "CCB-8")


def scaffe_total(design):
    cfg = TrainConfig(network="cifar10_quick", dataset="cifar10",
                      batch_size=256, iterations=10, reduce_design=design)
    return train("scaffe", n_gpus=4, cluster="A", config=cfg).total_time


class TestValidator:
    @pytest.mark.parametrize("design", ACCEPTED)
    def test_accepts(self, design):
        assert validate_reduce_design(design) == design

    @pytest.mark.parametrize("design", ["", "CB8", "chian", "CB-1", "CX-4",
                                        None])
    def test_rejects_naming_accepted_forms(self, design):
        with pytest.raises(ValueError,
                           match="tuned, flat, binomial, chain"):
            validate_reduce_design(design)


class TestTrainConfig:
    def test_bad_design_fails_at_construction(self):
        with pytest.raises(ValueError, match="unknown reduce design"):
            TrainConfig(reduce_design="chian")


class TestSCaffeDesigns:
    def test_binomial_is_flat(self):
        assert scaffe_total("binomial") == scaffe_total("flat")

    def test_binomial_is_flat_in_omb(self):
        def t(design):
            return osu_reduce(lambda: make_cluster(Simulator(), "A"),
                              1 << 20, 16, design=design)
        assert t("binomial") == t("flat")
