"""Gradient buffers are owned by exactly one tensor.

``Tensor._accumulate`` adopts a first gradient that a backward closure
allocated instead of copying it into a zero-filled buffer.  That is only
sound while no adopted array is reachable from anywhere else: another
tensor's ``.grad``, a forward buffer, or the caller's seed.  These tests
walk whole graphs and check it.
"""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.nn import Linear, Tensor, clip_grad_norm
from repro.nn import functional as F
from repro.nn import losses as L

OPS = {
    "add_self": lambda t: t + t,
    "add_const": lambda t: t + 1.5,
    "add_row": lambda t: t + Tensor(np.ones(t.shape[1]), requires_grad=True),
    "mul_self": lambda t: t * t,
    "mul_const": lambda t: t * Tensor(np.full(t.shape, 0.5)),
    "div_const": lambda t: t / Tensor(np.full(t.shape, 2.0)),
    "neg": lambda t: -t,
    "relu": lambda t: t.relu(),
    "tanh": lambda t: t.tanh(),
    "reshape": lambda t: t.reshape(t.shape[1], t.shape[0]),
    "transpose": lambda t: t.T,
    "getitem_slice": lambda t: t[::-1],
    "getitem_fancy": lambda t: t[np.zeros(t.shape[0], dtype=np.int64)],
    "sum_broadcast": lambda t: t.sum(axis=1, keepdims=True) + t,
    "views_rejoin": lambda t: t.T.T + t.reshape(t.shape),
    "matmul": lambda t: t @ Tensor(np.ones((t.shape[1], 3)), requires_grad=True),
    "linear": lambda t: F.linear(
        t,
        Tensor(np.ones((2, t.shape[1])), requires_grad=True),
        Tensor(np.zeros(2), requires_grad=True),
    ),
    "concat": lambda t: Tensor.concatenate([t, t * 2.0], axis=0),
}


def graph_tensors(root):
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def assert_grads_are_exclusively_owned(nodes):
    grads = [n.grad for n in nodes if n.grad is not None]
    for a, b in itertools.combinations(grads, 2):
        assert not np.shares_memory(a, b)
    for grad in grads:
        for node in nodes:
            assert not np.shares_memory(grad, node.data)


@given(
    st.lists(st.sampled_from(sorted(OPS)), min_size=1, max_size=6),
    st.sampled_from([(1, 1), (2, 3), (4, 2)]),
)
@settings(max_examples=150, deadline=None)
def test_no_two_gradients_share_memory(names, shape):
    x = Tensor(np.arange(1.0, 1.0 + shape[0] * shape[1]).reshape(shape),
               requires_grad=True)
    out = x
    for name in names:
        out = OPS[name](out)
    seed = np.ones(out.shape)
    out.backward(seed)
    nodes = graph_tensors(out)
    assert_grads_are_exclusively_owned(nodes)
    assert not any(np.shares_memory(seed, n.grad) for n in nodes)
    assert x.grad.shape == x.shape and x.grad.flags.c_contiguous


def test_scalar_chain_gradients_stay_arrays():
    """0-d numpy arithmetic returns scalars; ``.grad`` is always an ndarray."""
    x = Tensor(3.0, requires_grad=True)
    out = (x * x + x) ** 2
    out.backward()
    for node in graph_tensors(out):
        assert isinstance(node.grad, np.ndarray) and node.grad.shape == ()
    assert x.grad == 2 * 12.0 * 7.0
    assert_grads_are_exclusively_owned(graph_tensors(out))


def mlp_loss(layers, x, labels):
    h = x
    for layer in layers[:-1]:
        h = layer(h).relu()
    return L.cross_entropy(layers[-1](h), labels)


def test_mlp_step_gradients_are_exclusively_owned():
    rng = np.random.default_rng(0)
    layers = [Linear(6, 8, rng=rng), Linear(8, 8, bias=False, rng=rng),
              Linear(8, 3, rng=rng)]
    loss = mlp_loss(layers, Tensor(rng.normal(size=(5, 6))), rng.integers(0, 3, 5))
    loss.backward()
    assert_grads_are_exclusively_owned(graph_tensors(loss))
    for layer in layers:
        assert layer.weight.grad.shape == layer.weight.shape
        assert layer.weight.grad.flags.c_contiguous


def test_in_place_clip_leaves_forward_buffers_untouched():
    rng = np.random.default_rng(1)
    layers = [Linear(6, 8, rng=rng), Linear(8, 3, rng=rng)]
    loss = mlp_loss(layers, Tensor(rng.normal(size=(5, 6))), rng.integers(0, 3, 5))
    loss.backward()
    nodes = graph_tensors(loss)
    forward = [n.data.copy() for n in nodes]
    interior = [None if n.grad is None else n.grad.copy() for n in nodes]
    params = [p for layer in layers for p in (layer.weight, layer.bias)]
    assert clip_grad_norm(params, max_norm=1e-3) > 1e-3
    for node, data, grad in zip(nodes, forward, interior):
        assert np.array_equal(node.data, data)
        if grad is not None and not any(node is p for p in params):
            assert np.array_equal(node.grad, grad)


def test_gradients_accumulate_across_graphs_and_retained_backward():
    x = Tensor(np.array([[1.0, -2.0], [3.0, 4.0]]), requires_grad=True)
    (x * x).sum().backward()
    first = x.grad.copy()
    (x * 3.0).sum().backward()  # a fresh graph adds into the adopted buffer
    assert np.array_equal(x.grad, first + 3.0)

    y = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    loss = (y * 2.0).sum()
    loss.backward()
    assert np.array_equal(y.grad, [2.0, 2.0])
    # interior gradients persist on a retained graph: the second pass sends
    # 1 + 1 through ``sum`` and 1 + 2 through ``mul``
    loss.backward()
    assert np.array_equal(y.grad, [8.0, 8.0])
