"""Tests for the shared training loops."""

import math

import numpy as np
import pytest

from repro import nn
from repro.fl import TrainingConfig, evaluate_accuracy, train_distill, train_supervised
from repro.fl.training import make_optimizer, train_with_loss
from repro.nn import Tensor, losses

IMG = (3, 6, 6)


def fresh_model(seed=0, classes=4):
    return nn.build_model("mlp_small", classes, IMG, feature_dim=8, rng=seed)


def toy_data(n=60, classes=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, *IMG))
    y = rng.integers(0, classes, n)
    return x, y


class TestMakeOptimizer:
    def test_adam(self):
        model = fresh_model()
        opt = make_optimizer(model, TrainingConfig(optimizer="adam", lr=0.01))
        assert isinstance(opt, nn.Adam)

    def test_sgd(self):
        model = fresh_model()
        opt = make_optimizer(model, TrainingConfig(optimizer="sgd", lr=0.01))
        assert isinstance(opt, nn.SGD)


class TestTrainSupervised:
    def test_loss_decreases(self):
        model = fresh_model()
        x, y = toy_data()
        rng = np.random.default_rng(0)
        first = train_supervised(model, x, y, TrainingConfig(epochs=1), rng)
        last = train_supervised(model, x, y, TrainingConfig(epochs=5), rng)
        assert last < first

    def test_empty_data_is_noop(self):
        model = fresh_model()
        before = model.classifier.weight.data.copy()
        loss = train_supervised(
            model, np.zeros((0, *IMG)), np.zeros(0, dtype=int),
            TrainingConfig(epochs=2), np.random.default_rng(0),
        )
        assert loss == 0.0
        np.testing.assert_allclose(model.classifier.weight.data, before)

    def test_zero_epochs_is_noop(self):
        model = fresh_model()
        x, y = toy_data()
        before = model.classifier.weight.data.copy()
        train_supervised(model, x, y, TrainingConfig(epochs=0), np.random.default_rng(0))
        np.testing.assert_allclose(model.classifier.weight.data, before)

    def test_prox_keeps_weights_near_reference(self):
        x, y = toy_data()
        ref_model = fresh_model(seed=1)
        reference = {k: v for k, v in ref_model.state_dict().items()}

        def drift(mu):
            model = fresh_model(seed=1)
            train_supervised(
                model, x, y, TrainingConfig(epochs=3), np.random.default_rng(0),
                prox_mu=mu, prox_reference=reference,
            )
            return sum(
                float(((model.state_dict()[k] - reference[k]) ** 2).sum())
                for k, _ in model.named_parameters()
            )

        assert drift(10.0) < drift(0.0)

    def test_prototype_term_pulls_features(self):
        x, y = toy_data(classes=2)
        prototypes = np.zeros((2, 8))
        prototypes[0] += 1.0

        def feature_distance(weight):
            model = fresh_model(seed=2, classes=2)
            train_supervised(
                model, x, y, TrainingConfig(epochs=4), np.random.default_rng(0),
                prototypes=prototypes, prototype_weight=weight,
            )
            feats = model.extract_features(x)
            return float(np.linalg.norm(feats - prototypes[y], axis=1).mean())

        assert feature_distance(5.0) < feature_distance(0.0)

    def test_nan_prototype_rows_are_skipped(self):
        x, y = toy_data(classes=3)
        prototypes = np.full((3, 8), np.nan)
        model = fresh_model(classes=3)
        # must not raise nor produce NaN weights
        train_supervised(
            model, x, y, TrainingConfig(epochs=1), np.random.default_rng(0),
            prototypes=prototypes, prototype_weight=1.0,
        )
        assert np.isfinite(model.classifier.weight.data).all()


class TestTrainDistill:
    def test_student_approaches_teacher(self):
        x, _ = toy_data(n=80)
        teacher = fresh_model(seed=3)
        teacher_logits = teacher.predict_logits(x)
        student = fresh_model(seed=4)

        def agreement():
            return (student.predict(x) == teacher_logits.argmax(axis=1)).mean()

        before = agreement()
        train_distill(
            student, x, teacher_logits, TrainingConfig(epochs=8),
            np.random.default_rng(0), kd_weight=1.0,
        )
        assert agreement() > before

    def test_pseudo_labels_default_to_argmax(self):
        x, _ = toy_data(n=20)
        teacher_logits = np.random.default_rng(5).normal(size=(20, 4))
        student = fresh_model(seed=5)
        loss = train_distill(
            student, x, teacher_logits, TrainingConfig(epochs=1),
            np.random.default_rng(0), kd_weight=0.5,
        )
        assert np.isfinite(loss)

    def test_prototype_term_applies(self):
        x, _ = toy_data(n=40, classes=2)
        teacher_logits = np.random.default_rng(6).normal(size=(40, 2))
        prototypes = np.ones((2, 8))
        student = fresh_model(seed=6, classes=2)
        loss = train_distill(
            student, x, teacher_logits, TrainingConfig(epochs=2),
            np.random.default_rng(0), kd_weight=0.5,
            prototypes=prototypes, prototype_weight=1.0,
        )
        assert np.isfinite(loss)


class TestEvaluate:
    def test_empty_set_is_nan(self):
        # An empty test set carries no information: NaN, not a fake 0.0
        # that would drag down cohort means (see RoundRecord.mean_client_acc).
        assert math.isnan(evaluate_accuracy(fresh_model(), np.zeros((0, *IMG)), np.zeros(0)))

    def test_perfect_on_memorised(self):
        model = fresh_model()
        x, y = toy_data(n=30)
        train_supervised(
            model, x, y, TrainingConfig(epochs=50), np.random.default_rng(0)
        )
        assert evaluate_accuracy(model, x, y) >= 0.8


class TestTrainWithLoss:
    def test_custom_loss_builder(self):
        model = fresh_model()
        x, y = toy_data()

        def builder(m, batch):
            xb, yb = batch
            return losses.cross_entropy(m(Tensor(xb)), yb)

        out = train_with_loss(
            model, (x, y), builder, TrainingConfig(epochs=1), np.random.default_rng(0)
        )
        assert np.isfinite(out)

    def test_no_gradient_is_held_through_a_forward(self):
        model = fresh_model()
        x, y = toy_data()
        # a stale gradient on entry is dropped before the first forward too
        for p in model.parameters():
            p.grad = np.ones_like(p.data)
        held = []

        def builder(m, batch):
            held.append([i for i, p in enumerate(m.parameters()) if p.grad is not None])
            xb, yb = batch
            return losses.cross_entropy(m(Tensor(xb)), yb)

        train_with_loss(
            model, (x, y), builder, TrainingConfig(epochs=2, batch_size=8),
            np.random.default_rng(0),
        )
        assert len(held) > 2
        assert held == [[]] * len(held)
        assert all(p.grad is None for p in model.parameters())

    def test_grad_clipping_applies(self):
        model = fresh_model()
        x, y = toy_data()

        def builder(m, batch):
            xb, yb = batch
            return losses.cross_entropy(m(Tensor(xb)), yb) * 1e6

        out = train_with_loss(
            model, (x, y), builder,
            TrainingConfig(epochs=1, max_grad_norm=1.0), np.random.default_rng(0),
        )
        assert np.isfinite(model.classifier.weight.data).all()
