"""Tests for loss functions: values, gradients, and distillation properties."""

import numpy as np
import pytest

from repro.nn import Tensor, losses
from repro.nn import functional as F


class TestCrossEntropy:
    def test_matches_manual(self):
        logits = np.array([[2.0, 0.5, -1.0], [0.0, 0.0, 0.0]])
        labels = np.array([0, 2])
        loss = losses.cross_entropy(Tensor(logits), labels)
        log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        expected = -(log_probs[0, 0] + log_probs[1, 2]) / 2
        assert abs(loss.item() - expected) < 1e-10

    def test_perfect_prediction_low_loss(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss = losses.cross_entropy(Tensor(logits), np.array([0, 1]))
        assert loss.item() < 1e-6

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            losses.cross_entropy(Tensor(np.zeros(3)), np.array([0]))
        with pytest.raises(ValueError):
            losses.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0]))

    @pytest.mark.parametrize("labels", [[-1, 0], [3, 0]])
    def test_rejects_out_of_range_labels(self, labels):
        # a -1 label must not train toward the last class
        logits = Tensor(np.array([[0.0, 0.0, 5.0], [1.0, 0.0, 0.0]]))
        with pytest.raises(ValueError, match="labels"):
            losses.cross_entropy(logits, labels)

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        labels = np.array([0, 1, 2, 0])
        losses.cross_entropy(logits, labels).backward()
        probs = F.softmax(Tensor(logits.data)).data
        expected = (probs - F.one_hot(labels, 3)) / 4
        np.testing.assert_allclose(logits.grad, expected, atol=1e-10)


class TestKLDivergence:
    def test_zero_when_identical(self):
        logits = np.random.default_rng(2).normal(size=(6, 5))
        kl = losses.kl_divergence(logits, Tensor(logits.copy(), requires_grad=True))
        assert abs(kl.item()) < 1e-10

    def test_positive_when_different(self):
        rng = np.random.default_rng(3)
        t = rng.normal(size=(4, 5))
        s = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        assert losses.kl_divergence(t, s).item() > 0

    def test_gradient_pulls_student_toward_teacher(self):
        teacher = np.array([[5.0, 0.0, 0.0]])
        student = Tensor(np.zeros((1, 3)), requires_grad=True)
        losses.kl_divergence(teacher, student).backward()
        # reducing loss means raising student logit 0 relative to others
        assert student.grad[0, 0] < 0
        assert student.grad[0, 1] > 0

    def test_temperature_softens(self):
        teacher = np.array([[10.0, 0.0]])
        s = Tensor(np.array([[0.0, 0.0]]), requires_grad=True)
        hot = losses.kl_divergence(teacher, s, temperature=5.0).item()
        cold = losses.kl_divergence(teacher, s, temperature=1.0).item()
        # with T=5 the teacher distribution is softer, so disagreement
        # (scaled by T^2) differs; both must be positive and finite
        assert np.isfinite(hot) and np.isfinite(cold)
        assert hot > 0 and cold > 0

    def test_shape_check(self):
        with pytest.raises(ValueError):
            losses.kl_divergence(np.zeros((2, 3)), Tensor(np.zeros((2, 4))))

    @pytest.mark.parametrize("temperature", [0.0, -1.0])
    def test_rejects_non_positive_temperature(self, temperature):
        student = Tensor(np.array([[1.0, 0.0]]), requires_grad=True)
        with pytest.raises(ValueError, match="temperature"):
            losses.kl_divergence(np.array([[0.0, 1.0]]), student, temperature)


class TestMSE:
    def test_value(self):
        pred = Tensor(np.array([1.0, 3.0]))
        assert abs(losses.mse_loss(pred, np.array([0.0, 0.0])).item() - 5.0) < 1e-12

    def test_accepts_tensor_target(self):
        pred = Tensor(np.ones(3), requires_grad=True)
        loss = losses.mse_loss(pred, Tensor(np.zeros(3)))
        assert abs(loss.item() - 1.0) < 1e-12

    def test_shape_check(self):
        with pytest.raises(ValueError):
            losses.mse_loss(Tensor(np.zeros(3)), np.zeros(4))


class TestProximal:
    def test_zero_mu_returns_none(self):
        from repro import nn

        layer = nn.Linear(2, 2, rng=0)
        ref = layer.state_dict()
        assert losses.proximal_term(layer.named_parameters(), ref, 0.0) is None

    def test_zero_at_reference(self):
        from repro import nn

        layer = nn.Linear(2, 2, rng=0)
        ref = layer.state_dict()
        term = losses.proximal_term(layer.named_parameters(), ref, 1.0)
        assert abs(term.item()) < 1e-12

    def test_quadratic_growth(self):
        from repro import nn

        layer = nn.Linear(2, 2, rng=0)
        ref = {k: v - 1.0 for k, v in layer.state_dict().items() if k in ("weight", "bias")}
        term = losses.proximal_term(layer.named_parameters(), ref, 2.0)
        # mu/2 * sum ||1||^2 over 6 params = 1.0 * 6
        assert abs(term.item() - 6.0) < 1e-12
