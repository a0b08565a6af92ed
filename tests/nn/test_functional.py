"""Tests for functional ops: softmax family, conv2d vs a naive reference,
pooling, one_hot."""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F


def naive_conv2d(x, w, b, stride, padding):
    """Direct-loop conv reference for correctness checks."""
    if padding:
        x = np.pad(x, [(0, 0), (0, 0), (padding, padding), (padding, padding)])
    n, c_in, h, w_in = x.shape
    c_out, _, kh, kw = w.shape
    out_h = (h - kh) // stride + 1
    out_w = (w_in - kw) // stride + 1
    out = np.zeros((n, c_out, out_h, out_w))
    for ni in range(n):
        for co in range(c_out):
            for i in range(out_h):
                for j in range(out_w):
                    patch = x[ni, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[ni, co, i, j] = (patch * w[co]).sum()
            if b is not None:
                out[ni, co] += b[co]
    return out


class TestSoftmax:
    def test_log_softmax_normalises(self):
        x = Tensor(np.random.default_rng(0).normal(size=(5, 7)) * 10)
        lp = F.log_softmax(x, axis=1)
        np.testing.assert_allclose(np.exp(lp.data).sum(axis=1), np.ones(5), atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(1).normal(size=(4, 3)))
        p = F.softmax(x, axis=1)
        np.testing.assert_allclose(p.data.sum(axis=1), np.ones(4), atol=1e-12)
        assert (p.data >= 0).all()

    def test_softmax_shift_invariance(self):
        x = np.random.default_rng(2).normal(size=(3, 4))
        p1 = F.softmax(Tensor(x)).data
        p2 = F.softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(p1, p2, atol=1e-12)

    def test_softmax_extreme_logits_stable(self):
        x = Tensor(np.array([[1000.0, -1000.0, 0.0]]))
        p = F.softmax(x).data
        assert np.isfinite(p).all()
        np.testing.assert_allclose(p[0, 0], 1.0, atol=1e-9)

    def test_log_softmax_grad_sums_to_zero(self):
        x = Tensor(np.random.default_rng(3).normal(size=(2, 5)), requires_grad=True)
        F.log_softmax(x, axis=1)[0, 2].backward(np.array(1.0))
        np.testing.assert_allclose(x.grad.sum(axis=1), [0.0, 0.0], atol=1e-10)


class TestOneHot:
    def test_basic(self):
        out = F.one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_allclose(out, np.eye(3)[[0, 2, 1]])

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            F.one_hot(np.array([3]), 3)
        with pytest.raises(ValueError):
            F.one_hot(np.array([-1]), 3)

    def test_2d_labels_raise(self):
        with pytest.raises(ValueError):
            F.one_hot(np.zeros((2, 2), dtype=int), 3)


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_matches_naive(self, stride, padding):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        expected = naive_conv2d(x, w, b, stride, padding)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_no_bias(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 2, 4, 4))
        w = rng.normal(size=(3, 2, 2, 2))
        out = F.conv2d(Tensor(x), Tensor(w))
        np.testing.assert_allclose(out.data, naive_conv2d(x, w, None, 1, 0), atol=1e-10)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((3, 5, 2, 2))))

    def test_dim_error(self):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.ones((2, 4, 4))), Tensor(np.ones((3, 2, 2, 2))))

    def test_input_grad_matches_finite_difference(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
        out = F.conv2d(x, w, stride=1, padding=1)
        (out**2).sum().backward()

        eps = 1e-6
        idx = (0, 1, 2, 3)
        orig = x.data[idx]

        def f():
            return float((F.conv2d(Tensor(x.data), Tensor(w.data), stride=1, padding=1).data ** 2).sum())

        x.data[idx] = orig + eps
        fp = f()
        x.data[idx] = orig - eps
        fm = f()
        x.data[idx] = orig
        np.testing.assert_allclose(x.grad[idx], (fp - fm) / (2 * eps), rtol=1e-4)


class TestPooling:
    def test_global_avg_pool(self):
        x = Tensor(np.ones((2, 3, 4, 4)) * 5.0)
        out = F.global_avg_pool2d(x)
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out.data, np.full((2, 3), 5.0))


class TestLinear:
    def test_linear_matches_manual(self):
        rng = np.random.default_rng(7)
        x, w, b = rng.normal(size=(3, 4)), rng.normal(size=(5, 4)), rng.normal(size=5)
        out = F.linear(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, x @ w.T + b, atol=1e-12)
