"""Tests for federation construction, participation, and the round engine."""

import numpy as np
import pytest

from repro.fl import (
    FederationConfig,
    ParticipationSampler,
    TrainingConfig,
    build_federation,
)
from repro.fl.checkpoint import load_checkpoint
from repro.fl.simulation import FederatedAlgorithm

from ..conftest import make_tiny_federation


class TestBuildFederation:
    def test_client_count_and_data_split(self, tiny_bundle):
        fed = make_tiny_federation(tiny_bundle, num_clients=4)
        assert fed.num_clients == 4
        total = sum(c.num_samples + len(c.x_test) for c in fed.clients)
        assert total == len(tiny_bundle.train)

    def test_local_test_sets_nonoverlapping_with_train(self, tiny_bundle):
        fed = make_tiny_federation(tiny_bundle)
        for c in fed.clients:
            assert len(c.x_test) > 0
            # train/test are slices of distinct indices: verify disjoint rows
            train_rows = {r.tobytes() for r in c.x_train}
            test_rows = {r.tobytes() for r in c.x_test}
            assert not train_rows & test_rows

    def test_heterogeneous_models(self, tiny_bundle):
        fed = make_tiny_federation(
            tiny_bundle, num_clients=4, client_models=["mlp_small", "mlp_medium"]
        )
        p0 = fed.clients[0].model.num_parameters()
        p1 = fed.clients[1].model.num_parameters()
        p2 = fed.clients[2].model.num_parameters()
        assert p0 != p1 and p0 == p2

    def test_no_server_model(self, tiny_bundle):
        fed = make_tiny_federation(tiny_bundle, server_model=None)
        assert not fed.server.has_model

    def test_public_data_exposed(self, tiny_bundle):
        fed = make_tiny_federation(tiny_bundle)
        assert fed.public_x.shape[0] == 90

    def test_determinism(self, tiny_bundle):
        a = make_tiny_federation(tiny_bundle, seed=5)
        b = make_tiny_federation(tiny_bundle, seed=5)
        np.testing.assert_allclose(a.clients[0].x_train[:], b.clients[0].x_train[:])
        np.testing.assert_allclose(
            a.clients[1].model.classifier.weight.data,
            b.clients[1].model.classifier.weight.data,
        )

    def test_shards_partition_config(self, tiny_bundle):
        fed = make_tiny_federation(
            tiny_bundle,
            partition=("shards", {"classes_per_client": 2, "shard_size": 5}),
        )
        assert all(c.num_samples > 0 for c in fed.clients)


class TestParticipationSampler:
    def test_no_dropout_everyone(self):
        sampler = ParticipationSampler(5, dropout_prob=0.0)
        assert sampler.sample() == [0, 1, 2, 3, 4]

    def test_dropout_removes_some(self):
        sampler = ParticipationSampler(20, dropout_prob=0.5, seed=0)
        sizes = [len(sampler.sample()) for _ in range(20)]
        assert min(sizes) >= 1
        assert np.mean(sizes) < 20

    def test_min_available_enforced(self):
        sampler = ParticipationSampler(4, dropout_prob=0.9, min_available=2, seed=0)
        for _ in range(30):
            assert len(sampler.sample()) >= 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ParticipationSampler(4, dropout_prob=1.0)
        with pytest.raises(ValueError):
            ParticipationSampler(4, min_available=5)

    def test_min_available_topup_unique_ids(self):
        # extreme dropout forces the top-up path every round; the single
        # choice() draw must stay fast and never duplicate a client id
        sampler = ParticipationSampler(
            8, dropout_prob=0.99, min_available=5, seed=3
        )
        for _ in range(200):
            ids = sampler.sample()
            assert len(ids) >= 5
            assert len(ids) == len(set(ids))
            assert ids == sorted(ids)
            assert all(0 <= cid < 8 for cid in ids)


class _CountingAlgorithm(FederatedAlgorithm):
    """Minimal algorithm that counts rounds and meters fake traffic."""

    name = "counting"
    carried_state = ("rounds_run",)

    def __init__(self, federation, seed=0):
        super().__init__(federation, seed=seed)
        self.rounds_run = 0

    def dispatch_state(self):
        return {}

    def client_work(self, participants, snapshot):
        for c in participants:
            self.channel.upload(c.client_id, np.zeros(10))
        return [{} for _ in participants]

    def server_update(self, contributions, client_weights, contributors):
        self.rounds_run += 1
        return {"custom": 1.0}


class TestRoundEngine:
    def test_run_records_history(self, tiny_federation):
        algo = _CountingAlgorithm(tiny_federation)
        history = algo.run(rounds=3)
        assert algo.rounds_run == 3
        assert len(history) == 3
        assert history.records[0].extras == {"custom": 1.0}
        assert history.records[-1].comm_uplink_bytes == 3 * 3 * 40

    def test_eval_every(self, tiny_federation):
        algo = _CountingAlgorithm(tiny_federation)
        history = algo.run(rounds=4, eval_every=2)
        assert [r.round_index for r in history.records] == [2, 4]

    def test_final_round_always_evaluated_once(self, tiny_federation):
        algo = _CountingAlgorithm(tiny_federation)
        history = algo.run(rounds=5, eval_every=2)
        assert [r.round_index for r in history.records] == [2, 4, 5]

    def test_history_continuation(self, tiny_federation):
        algo = _CountingAlgorithm(tiny_federation)
        history = algo.run(rounds=2)
        algo.run(rounds=1, history=history)
        assert [r.round_index for r in history.records] == [1, 2, 3]

    def test_carried_state_round_trips_through_a_checkpoint(
        self, tiny_bundle, tmp_path
    ):
        path = str(tmp_path / "counting.ckpt")
        algo = _CountingAlgorithm(make_tiny_federation(tiny_bundle))
        algo.run(rounds=2, checkpoint_every=1, checkpoint_path=path)
        resumed = _CountingAlgorithm(make_tiny_federation(tiny_bundle))
        assert load_checkpoint(resumed, path) == 2
        assert resumed.rounds_run == 2
        resumed.run(rounds=1)
        assert resumed.rounds_run == 3

    def test_failure_injection_reduces_participants(self, tiny_bundle):
        fed = make_tiny_federation(tiny_bundle, num_clients=6, dropout_prob=0.6, seed=1)
        algo = _CountingAlgorithm(fed)
        algo.run(rounds=5)
        # with 60% dropout some traffic must be below full participation
        assert fed.channel.snapshot().uplink < 5 * 6 * 40

    def test_round_phases_are_abstract(self, tiny_federation):
        with pytest.raises(TypeError, match="abstract"):
            FederatedAlgorithm(tiny_federation)

        class _NoServerUpdate(FederatedAlgorithm):
            def dispatch_state(self):
                return {}

            def client_work(self, participants, snapshot):
                return []

        with pytest.raises(TypeError, match="server_update"):
            _NoServerUpdate(tiny_federation)
