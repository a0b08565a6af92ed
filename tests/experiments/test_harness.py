"""Tests for the experiment harness."""

import numpy as np
import pytest

from repro.experiments import (
    PARTITIONS,
    SCALES,
    ExperimentSetting,
    compare_algorithms,
    federation_for,
    format_table,
    make_bundle,
    model_roles,
    run_algorithm,
)

FAST = dict(scale="tiny", scale_overrides={
    "n_train": 240, "n_test": 80, "n_public": 60,
    "num_clients": 3, "rounds": 1, "epoch_scale": 0.05,
})


class TestScales:
    def test_presets_exist(self):
        assert {"tiny", "small", "paper"} <= set(SCALES)

    def test_cifar100_gets_more_data(self):
        sc = SCALES["tiny"]
        assert sc.sized_for("cifar100").n_train > sc.n_train
        assert sc.sized_for("cifar10").n_train == sc.n_train

    def test_scale_overrides(self):
        setting = ExperimentSetting(scale="tiny", scale_overrides={"rounds": 99})
        assert setting.scale_config().rounds == 99


class TestModelRoles:
    def test_mlp_homogeneous(self):
        roles = model_roles("mlp", heterogeneous=False)
        assert roles["client_models"] == roles["peer_server"]

    def test_resnet_heterogeneous(self):
        roles = model_roles("resnet", heterogeneous=True)
        assert isinstance(roles["client_models"], list)
        assert roles["peer_server"] is None

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            model_roles("transformer", False)


class TestFederationFor:
    def test_fedmd_gets_no_server(self):
        setting = ExperimentSetting(**FAST)
        fed = federation_for(setting, "fedmd")
        assert not fed.server.has_model

    def test_fedavg_gets_peer_server(self):
        setting = ExperimentSetting(**FAST)
        fed = federation_for(setting, "fedavg")
        assert (
            fed.server.model.num_parameters()
            == fed.clients[0].model.num_parameters()
        )

    def test_fedpkd_gets_big_server(self):
        setting = ExperimentSetting(**FAST)
        fed = federation_for(setting, "fedpkd")
        assert (
            fed.server.model.num_parameters()
            > fed.clients[0].model.num_parameters()
        )

    def test_hetero_rejects_fedavg(self):
        setting = ExperimentSetting(heterogeneous=True, **FAST)
        with pytest.raises(ValueError):
            federation_for(setting, "fedavg")


class TestRunners:
    def test_run_algorithm_history(self):
        setting = ExperimentSetting(**FAST)
        history = run_algorithm(setting, "fedpkd")
        assert len(history) == 1
        assert history.config["partition"] == setting.partition

    def test_compare_shares_bundle(self):
        setting = ExperimentSetting(**FAST)
        order = ("fedpkd", "fedavg", "fedproto")  # not alphabetical
        results = compare_algorithms(setting, order)
        assert list(results) == list(order)
        assert [h.algorithm for h in results.values()] == list(order)

    def test_partition_shorthand_complete(self):
        for key in ("iid", "dir0.1", "dir0.5", "shards3", "shards30"):
            assert key in PARTITIONS


class TestFormatTable:
    def test_alignment_and_na(self):
        table = format_table(
            ["name", "value"],
            [["a", 0.5], ["b", None], ["c", float("nan")]],
            title="T",
        )
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "N/A" in table
        assert "0.500" in table
