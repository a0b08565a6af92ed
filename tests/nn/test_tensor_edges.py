"""Edge-case tests for Tensor ops not covered by the main suite."""

import numpy as np
import pytest

from repro.nn import Tensor


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
