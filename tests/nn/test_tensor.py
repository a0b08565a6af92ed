"""Unit tests for the autograd Tensor: forward values and backward gradients."""

import numpy as np
import pytest

from repro.nn import Tensor, no_grad, is_grad_enabled


def numeric_grad(f, x, eps=1e-6):
    """Central finite differences of a scalar function of an ndarray."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        fp = f()
        x[idx] = orig - eps
        fm = f()
        x[idx] = orig
        grad[idx] = (fp - fm) / (2 * eps)
        it.iternext()
    return grad


def check_unary(op, data, tol=1e-6):
    x = Tensor(data.copy(), requires_grad=True)
    out = op(x)
    out.sum().backward()
    analytic = x.grad

    def f():
        return float(op(Tensor(x.data)).sum().data)

    numeric = numeric_grad(f, x.data)
    np.testing.assert_allclose(analytic, numeric, atol=tol, rtol=1e-4)


class TestForward:
    def test_add_values(self):
        assert (Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])).data.tolist() == [4.0, 6.0]

    def test_scalar_radd(self):
        assert (2.0 + Tensor([1.0])).data.tolist() == [3.0]

    def test_mul_broadcast(self):
        out = Tensor(np.ones((2, 3))) * Tensor([1.0, 2.0, 3.0])
        np.testing.assert_allclose(out.data, [[1, 2, 3], [1, 2, 3]])

    def test_matmul_shape_error(self):
        with pytest.raises(ValueError):
            Tensor(np.ones((2, 3, 4))) @ Tensor(np.ones((4, 2)))

    def test_pow_requires_scalar(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_reshape_and_transpose(self):
        x = Tensor(np.arange(6.0))
        assert x.reshape(2, 3).shape == (2, 3)
        assert x.reshape((3, 2)).T.shape == (2, 3)

    def test_item_and_len(self):
        assert Tensor([[5.0]]).item() == 5.0
        assert len(Tensor(np.zeros((4, 2)))) == 4

    def test_numpy_leaves_the_graph(self):
        x = Tensor([1.0], requires_grad=True)
        d = Tensor((x * 2).numpy())
        assert not d.requires_grad

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))


class TestBackwardBasics:
    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_nonscalar_needs_seed(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_with_seed(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * 3).backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(x.grad, [3.0, 30.0])

    def test_grad_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3
        y.backward(np.array([1.0]))
        y2 = x * 3
        y2.backward(np.array([1.0]))
        np.testing.assert_allclose(x.grad, [6.0])

    def test_zero_grad(self):
        x = Tensor([2.0], requires_grad=True)
        (x * x).backward(np.array([1.0]))
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph(self):
        # x used twice: d(x*x + x*x)/dx = 4x
        x = Tensor([3.0], requires_grad=True)
        y = x * x + x * x
        y.backward(np.array([1.0]))
        np.testing.assert_allclose(x.grad, [12.0])

    def test_deep_chain_no_recursion(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(2000):
            y = y + 0.001
        y.backward(np.array([1.0]))
        np.testing.assert_allclose(x.grad, [1.0])

    def test_no_grad_blocks_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            y = x * 2
        assert is_grad_enabled()
        assert not y.requires_grad


class TestGradients:
    def test_add_broadcast_grad(self):
        a = Tensor(np.random.default_rng(0).normal(size=(2, 3)), requires_grad=True)
        b = Tensor(np.random.default_rng(1).normal(size=(3,)), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))
        np.testing.assert_allclose(b.grad, np.full(3, 2.0))

    def test_mul_grad(self):
        check_unary(lambda t: t * t, np.random.default_rng(2).normal(size=(3, 2)))

    def test_div_grad(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(4,)) + 3.0, requires_grad=True)
        b = Tensor(rng.normal(size=(4,)) + 3.0, requires_grad=True)
        (a / b).sum().backward()

        def fa():
            return float((Tensor(a.data) / Tensor(b.data)).sum().data)

        np.testing.assert_allclose(a.grad, numeric_grad(fa, a.data), atol=1e-6)
        np.testing.assert_allclose(b.grad, numeric_grad(fa, b.data), atol=1e-6)

    def test_pow_grad(self):
        check_unary(lambda t: t**3, np.random.default_rng(4).normal(size=(5,)))

    def test_exp_log_grads(self):
        check_unary(lambda t: t.exp(), np.random.default_rng(5).normal(size=(4,)))
        check_unary(
            lambda t: t.log(), np.abs(np.random.default_rng(6).normal(size=(4,))) + 1.0
        )

    def test_relu_leaky_abs_grads(self):
        data = np.random.default_rng(8).normal(size=(8,)) + 0.05
        check_unary(lambda t: t.relu(), data.copy())
        check_unary(lambda t: t.abs(), data.copy())

    def test_matmul_grad(self):
        rng = np.random.default_rng(9)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        (a @ b).sum().backward()

        def f():
            return float((Tensor(a.data) @ Tensor(b.data)).sum().data)

        np.testing.assert_allclose(a.grad, numeric_grad(f, a.data), atol=1e-6)
        np.testing.assert_allclose(b.grad, numeric_grad(f, b.data), atol=1e-6)

    def test_sum_axis_grads(self):
        x = Tensor(np.random.default_rng(10).normal(size=(2, 3, 4)), requires_grad=True)
        x.sum(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3, 4)))

    def test_sum_keepdims_grad(self):
        x = Tensor(np.random.default_rng(11).normal(size=(2, 3)), requires_grad=True)
        x.sum(axis=0, keepdims=True).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_mean_grad(self):
        x = Tensor(np.random.default_rng(12).normal(size=(4, 5)), requires_grad=True)
        x.mean().backward()
        np.testing.assert_allclose(x.grad, np.full((4, 5), 1 / 20))

    def test_mean_multi_axis(self):
        x = Tensor(np.random.default_rng(13).normal(size=(2, 3, 4)), requires_grad=True)
        out = x.mean(axis=(1, 2))
        assert out.shape == (2,)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 3, 4), 1 / 12))

    def test_max_grad_no_axis(self):
        data = np.array([1.0, 5.0, 3.0])
        x = Tensor(data, requires_grad=True)
        x.max().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_max_grad_axis_with_ties(self):
        data = np.array([[2.0, 2.0], [1.0, 3.0]])
        x = Tensor(data, requires_grad=True)
        x.max(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.5, 0.5], [0.0, 1.0]])

    def test_var_grad(self):
        check_unary(lambda t: t.var(), np.random.default_rng(14).normal(size=(6,)))

    def test_getitem_grad(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        x[1].sum().backward()
        expected = np.zeros((3, 4))
        expected[1] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_getitem_fancy_duplicate_indices(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        idx = np.array([1, 1, 2])
        x[idx].sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 2.0, 1.0, 0.0])

    def test_transpose_grad(self):
        x = Tensor(np.random.default_rng(16).normal(size=(2, 3, 4)), requires_grad=True)
        y = x.transpose((2, 0, 1))
        assert y.shape == (4, 2, 3)
        y.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3, 4)))
