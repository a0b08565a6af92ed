"""Property-based autograd tests: gradients match finite differences for
randomly composed expressions, and broadcasting never corrupts shapes."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import Tensor

FLOATS = hnp.arrays(
    dtype=np.float64,
    shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4),
    elements=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)


def numeric_grad(f, x, eps=1e-6):
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


@given(FLOATS)
@settings(max_examples=30, deadline=None)
def test_smooth_composite_matches_finite_difference(data):
    x = Tensor(data.copy(), requires_grad=True)

    def expr(t):
        return ((t * t + 1.0).log() + (t * 0.5).exp() * 0.5).sum()

    expr(x).backward()

    def f():
        return float(expr(Tensor(x.data)).data)

    np.testing.assert_allclose(x.grad, numeric_grad(f, x.data), atol=1e-5, rtol=1e-3)


@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        elements=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    )
)
@settings(max_examples=30, deadline=None)
def test_broadcast_add_grad_shapes(matrix):
    row = Tensor(np.linspace(-1, 1, matrix.shape[1]), requires_grad=True)
    full = Tensor(matrix.copy(), requires_grad=True)
    (full + row).sum().backward()
    assert row.grad.shape == row.shape
    assert full.grad.shape == full.shape
    # each row-vector element receives one gradient per matrix row
    np.testing.assert_allclose(row.grad, np.full(matrix.shape[1], matrix.shape[0]))


@given(FLOATS)
@settings(max_examples=30, deadline=None)
def test_sum_then_backward_is_ones(data):
    x = Tensor(data.copy(), requires_grad=True)
    x.sum().backward()
    np.testing.assert_allclose(x.grad, np.ones_like(data))


@given(FLOATS)
@settings(max_examples=30, deadline=None)
def test_mean_grad_sums_to_one(data):
    x = Tensor(data.copy(), requires_grad=True)
    x.mean().backward()
    np.testing.assert_allclose(x.grad.sum(), 1.0, atol=1e-9)


@given(
    st.integers(2, 5),
    st.integers(2, 5),
    st.integers(2, 5),
)
@settings(max_examples=20, deadline=None)
def test_matmul_grad_matches_transpose_rule(n, k, m):
    rng = np.random.default_rng(n * 100 + k * 10 + m)
    a = Tensor(rng.normal(size=(n, k)), requires_grad=True)
    b = Tensor(rng.normal(size=(k, m)), requires_grad=True)
    seed = rng.normal(size=(n, m))
    (a @ b).backward(seed)
    np.testing.assert_allclose(a.grad, seed @ b.data.T, atol=1e-10)
    np.testing.assert_allclose(b.grad, a.data.T @ seed, atol=1e-10)


@given(FLOATS)
@settings(max_examples=25, deadline=None)
def test_relu_grad_is_indicator(data):
    x = Tensor(data.copy(), requires_grad=True)
    x.relu().sum().backward()
    np.testing.assert_allclose(x.grad, (data > 0).astype(float))
