"""Tests for SGD/Adam optimisers and gradient clipping."""

import numpy as np
import pytest

from repro.nn import Adam, SGD, Tensor, clip_grad_norm


def quadratic_param():
    return Tensor(np.array([5.0, -3.0]), requires_grad=True)


def step_quadratic(optimizer, param, steps):
    for _ in range(steps):
        loss = (param * param).sum()
        param.zero_grad()
        loss.backward()
        optimizer.step()
    return float((param.data**2).sum())


class TestSGD:
    def test_converges_on_quadratic(self):
        p = quadratic_param()
        final = step_quadratic(SGD([p], lr=0.1), p, 50)
        assert final < 1e-3

    def test_momentum_accelerates(self):
        p1, p2 = quadratic_param(), quadratic_param()
        plain = step_quadratic(SGD([p1], lr=0.02), p1, 20)
        momentum = step_quadratic(SGD([p2], lr=0.02, momentum=0.9), p2, 20)
        assert momentum < plain

    def test_weight_decay_shrinks(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = SGD([p], lr=0.1, weight_decay=1.0)
        p.grad = np.array([0.0])
        opt.step()
        assert p.data[0] < 1.0

    def test_skips_params_without_grad(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [1.0])

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            SGD([quadratic_param()], lr=0.0)

    def test_empty_params(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)


class TestAdam:
    def test_converges_on_quadratic(self):
        p = quadratic_param()
        final = step_quadratic(Adam([p], lr=0.3), p, 100)
        assert final < 1e-2

    def test_first_step_size_is_lr(self):
        # with bias correction, |Δw| of the very first Adam step ≈ lr
        p = Tensor(np.array([10.0]), requires_grad=True)
        opt = Adam([p], lr=0.5)
        p.grad = np.array([123.0])
        opt.step()
        assert abs((10.0 - p.data[0]) - 0.5) < 1e-6

    def test_zero_grad_helper(self):
        p = quadratic_param()
        opt = Adam([p], lr=0.1)
        p.grad = np.ones(2)
        opt.zero_grad()
        assert p.grad is None

    def test_weight_decay(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([p], lr=0.1, weight_decay=1.0)
        p.grad = np.array([0.0])
        opt.step()
        assert p.data[0] < 1.0


class TestClipGradNorm:
    def test_no_clip_below_threshold(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        p.grad = np.ones(4) * 0.1
        norm = clip_grad_norm([p], max_norm=10.0)
        assert abs(norm - 0.2) < 1e-12
        np.testing.assert_allclose(p.grad, np.full(4, 0.1))

    def test_clips_to_max_norm(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        p.grad = np.ones(4) * 10.0
        clip_grad_norm([p], max_norm=1.0)
        assert abs(np.linalg.norm(p.grad) - 1.0) < 1e-9

    def test_handles_missing_grads(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        assert clip_grad_norm([p], max_norm=1.0) == 0.0
