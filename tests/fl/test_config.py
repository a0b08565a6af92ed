"""Tests for configuration validation."""

import pytest

from repro.fl import FederationConfig, TrainingConfig, build_federation


class TestTrainingConfig:
    def test_defaults_valid(self):
        cfg = TrainingConfig()
        assert cfg.optimizer == "adam"

    def test_negative_epochs(self):
        with pytest.raises(ValueError):
            TrainingConfig(epochs=-1)

    def test_bad_batch(self):
        with pytest.raises(ValueError):
            TrainingConfig(batch_size=0)

    def test_bad_optimizer(self):
        with pytest.raises(ValueError):
            TrainingConfig(optimizer="lbfgs")


def _client_model_names(bundle, **overrides):
    """The per-client model names ``build_federation`` derives."""
    fed = build_federation(bundle, FederationConfig(server_model=None, **overrides))
    return [fed.clients.model_name(cid) for cid in range(fed.num_clients)]


class TestFederationConfig:
    def test_defaults(self, tiny_bundle):
        names = _client_model_names(tiny_bundle)
        assert names == ["resnet20"] * FederationConfig().num_clients

    def test_heterogeneous_cycling(self, tiny_bundle):
        names = _client_model_names(
            tiny_bundle, num_clients=5, client_models=["a", "b"]
        )
        assert names == ["a", "b", "a", "b", "a"]

    def test_empty_model_list(self, tiny_bundle):
        with pytest.raises(ValueError, match="client_models list is empty"):
            _client_model_names(tiny_bundle, client_models=[])

    def test_bad_partition_kind(self):
        with pytest.raises(ValueError):
            FederationConfig(partition=("zipf", {}))

    def test_bad_num_clients(self):
        with pytest.raises(ValueError):
            FederationConfig(num_clients=0)

    def test_bad_dropout(self):
        with pytest.raises(ValueError):
            FederationConfig(dropout_prob=1.0)
