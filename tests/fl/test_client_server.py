"""Tests for FLClient and FLServer behaviour."""

import numpy as np
import pytest

from repro import nn
from repro.fl import FLClient, FLServer, TrainingConfig
from repro.fl.training import evaluate_accuracy

IMG = (3, 6, 6)


def make_client(seed=0, classes=4, n=40, class_subset=None):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, classes, n)
    if class_subset is not None:
        y = rng.choice(class_subset, n)
    x = rng.normal(size=(n, *IMG))
    model = nn.build_model("mlp_small", classes, IMG, feature_dim=8, rng=seed)
    return FLClient(0, model, x, y, x[:10], y[:10], num_classes=classes, seed=seed)


class TestClientDataFacts:
    def test_num_samples(self):
        assert make_client(n=40).num_samples == 40

    def test_class_counts_sum(self):
        client = make_client()
        assert client.class_counts().sum() == client.num_samples

    def test_present_classes(self):
        client = make_client(class_subset=[1, 3])
        assert set(client.present_classes()) <= {1, 3}


class TestClientPrototypes:
    def test_shape_and_nan_rows(self):
        client = make_client(classes=5, class_subset=[0, 2])
        protos = client.compute_prototypes()
        assert protos.shape == (5, 8)
        present = set(client.present_classes())
        for cls in range(5):
            if cls in present:
                assert np.isfinite(protos[cls]).all()
            else:
                assert np.isnan(protos[cls]).all()

    def test_prototype_is_feature_mean(self):
        client = make_client(classes=3)
        protos = client.compute_prototypes()
        feats = client.model.extract_features(client.x_train)
        for cls in client.present_classes():
            np.testing.assert_allclose(
                protos[cls], feats[client.y_train == cls].mean(axis=0), atol=1e-10
            )


class TestClientTraining:
    def test_local_training_improves_fit(self):
        client = make_client(n=60)
        before = evaluate_accuracy(client.model, client.x_train, client.y_train)
        client.train_local(TrainingConfig(epochs=10))
        after = evaluate_accuracy(client.model, client.x_train, client.y_train)
        assert after >= before

    def test_logits_shape(self):
        client = make_client(classes=4)
        x = np.zeros((7, *IMG))
        assert client.logits_on(x).shape == (7, 4)

    def test_evaluate_bounds(self):
        acc = make_client().evaluate()
        assert 0.0 <= acc <= 1.0


class TestServer:
    def test_no_model_evaluate_nan(self):
        server = FLServer(None)
        assert np.isnan(server.evaluate(np.zeros((2, *IMG)), np.zeros(2)))

    def test_no_model_logits_raise(self):
        with pytest.raises(RuntimeError):
            FLServer(None).logits_on(np.zeros((2, *IMG)))

    def test_no_model_distill_raises(self):
        with pytest.raises(RuntimeError):
            FLServer(None).train_distill(
                np.zeros((2, *IMG)), np.zeros((2, 4)), TrainingConfig(epochs=1)
            )

    def test_distill_runs(self):
        model = nn.build_model("mlp_small", 4, IMG, feature_dim=8, rng=0)
        server = FLServer(model, seed=0)
        x = np.random.default_rng(0).normal(size=(20, *IMG))
        teacher = np.random.default_rng(1).normal(size=(20, 4))
        loss = server.train_distill(x, teacher, TrainingConfig(epochs=1))
        assert np.isfinite(loss)

    def test_evaluate_with_model(self):
        model = nn.build_model("mlp_small", 4, IMG, feature_dim=8, rng=0)
        server = FLServer(model)
        x = np.zeros((4, *IMG))
        y = np.zeros(4, dtype=int)
        assert 0.0 <= server.evaluate(x, y) <= 1.0
