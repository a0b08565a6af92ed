"""Edge-case tests for Tensor ops not covered by the main suite."""

import numpy as np
import pytest

from repro.nn import Tensor


class TestConcatenateAxes:
    def test_axis_one(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 2)), requires_grad=True)
        out = Tensor.concatenate([a, b], axis=1)
        assert out.shape == (2, 5)
        (out * np.arange(5.0)).sum().backward()
        np.testing.assert_allclose(a.grad, np.tile([0, 1, 2], (2, 1)))
        np.testing.assert_allclose(b.grad, np.tile([3, 4], (2, 1)))

    def test_no_grad_inputs(self):
        out = Tensor.concatenate([Tensor(np.ones(2)), Tensor(np.zeros(3))])
        assert not out.requires_grad
        assert out.shape == (5,)

    def test_accepts_raw_arrays(self):
        out = Tensor.concatenate([np.ones(2), np.zeros(2)])
        np.testing.assert_allclose(out.data, [1, 1, 0, 0])


class TestDivision:
    def test_rtruediv(self):
        x = Tensor(np.array([2.0, 4.0]), requires_grad=True)
        y = 8.0 / x
        np.testing.assert_allclose(y.data, [4.0, 2.0])
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [-2.0, -0.5])


class TestVarAxis:
    def test_var_along_axis(self):
        x = Tensor(np.array([[1.0, 3.0], [2.0, 2.0]]))
        v = x.var(axis=1)
        np.testing.assert_allclose(v.data, [1.0, 0.0])

    def test_var_keepdims(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        assert x.var(axis=1, keepdims=True).shape == (3, 1)


class TestSqrt:
    def test_value_and_grad(self):
        x = Tensor(np.array([4.0]), requires_grad=True)
        y = x.sqrt()
        np.testing.assert_allclose(y.data, [2.0])
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [0.25])


class TestMixedGraph:
    def test_graph_with_non_grad_branch(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        b = Tensor(np.array([3.0]))  # constant
        out = a * b + b
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [3.0])
        assert b.grad is None

    def test_reuse_after_backward(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        (a * 2).sum().backward()
        first = a.grad.copy()
        (a * 2).sum().backward()
        np.testing.assert_allclose(a.grad, first * 2)  # accumulation semantics


class TestItemErrors:
    def test_multielement_item_raises(self):
        with pytest.raises(ValueError):
            Tensor(np.ones(3)).item()
