"""Gradient buffers are owned by exactly one graph node.

A node's ``accumulate`` adopts a first gradient that a backward closure
allocated instead of copying it into a zero-filled buffer.  That is only
sound while no adopted array is reachable from anywhere else: another
node's gradient, a forward buffer, an array a backward closure keeps
(conv2d's input array, batch_norm's normalised activations), a running
statistic, or the caller's seed.  These tests walk whole graphs and check it.
"""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.nn import BatchNorm2d, Linear, Tensor, clip_grad_norm, no_grad
from repro.nn import functional as F
from repro.nn import losses as L
from repro.nn.models import BasicBlock


def as_image(t):
    return t.reshape(1, 1, *t.shape)


def batch_norm_op(training):
    def op(t):
        channels = t.shape[1]
        return F.batch_norm(
            t,
            Tensor(np.full(channels, 1.5), requires_grad=True),
            Tensor(np.zeros(channels), requires_grad=True),
            np.zeros(channels),
            np.ones(channels),
            training,
        )

    return op


OPS = {
    "add_self": lambda t: t + t,
    "add_const": lambda t: t + 1.5,
    "add_row": lambda t: t + Tensor(np.ones(t.shape[1]), requires_grad=True),
    "mul_self": lambda t: t * t,
    "mul_const": lambda t: t * Tensor(np.full(t.shape, 0.5)),
    "div_const": lambda t: t / Tensor(np.full(t.shape, 2.0)),
    "neg": lambda t: -t,
    "relu": lambda t: t.relu(),
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
    "conv2d": lambda t: F.conv2d(
        as_image(t),
        Tensor(np.ones((2, 1, 3, 3)), requires_grad=True),
        Tensor(np.zeros(2), requires_grad=True),
        padding=1,
    ).reshape(2 * t.shape[0], t.shape[1]),
    "conv2d_strided": lambda t: F.conv2d(
        as_image(t), Tensor(np.ones((1, 1, 1, 1)), requires_grad=True), stride=2
    ).reshape((t.shape[0] + 1) // 2, (t.shape[1] + 1) // 2),
    "batch_norm": batch_norm_op(training=True),
    "batch_norm_eval": batch_norm_op(training=False),
}


def graph_nodes(root):
    """Every node of the graph behind the tensor ``root``, leaves included."""
    seen, stack = {}, [root._node]
    while stack:
        node = stack.pop()
        if node is not None and id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.parents)
    return list(seen.values())


def closure_arrays(nodes):
    """Every array a backward closure of the graph keeps alive: forward
    buffers such as conv2d's index plan and batch_norm's ``x_hat``.  No
    node holds any other forward array."""
    kept = []
    for node in nodes:
        for cell in getattr(node.backward, "__closure__", None) or ():
            if isinstance(cell.cell_contents, np.ndarray):
                kept.append(cell.cell_contents)
    return kept


def assert_grads_are_exclusively_owned(nodes, extra=()):
    """``extra``: arrays the caller holds, such as its tensors' data."""
    grads = [n.grad for n in nodes if n.grad is not None]
    for a, b in itertools.combinations(grads, 2):
        assert not np.shares_memory(a, b)
    others = closure_arrays(nodes) + list(extra)
    for grad in grads:
        for other in others:
            assert not np.shares_memory(grad, other)


@given(
    st.lists(st.sampled_from(sorted(OPS)), min_size=1, max_size=6),
    st.sampled_from([(1, 1), (2, 3), (4, 2)]),
)
@settings(max_examples=150, deadline=None)
def test_no_two_gradients_share_memory(names, shape):
    x = Tensor(np.arange(1.0, 1.0 + shape[0] * shape[1]).reshape(shape),
               requires_grad=True)
    out, tensors = x, [x]
    for name in names:
        out = OPS[name](out)
        tensors.append(out)
    seed = np.ones(out.shape)
    out.backward(seed, retain_graph=True)
    nodes = graph_nodes(out)
    assert_grads_are_exclusively_owned(nodes, extra=[t.data for t in tensors])
    assert not any(np.shares_memory(seed, n.grad) for n in nodes)
    assert x.grad.shape == x.shape and x.grad.flags.c_contiguous


def test_scalar_chain_gradients_stay_arrays():
    """0-d numpy arithmetic returns scalars; ``.grad`` is always an ndarray."""
    x = Tensor(3.0, requires_grad=True)
    out = (x * x + x) ** 2
    out.backward(retain_graph=True)
    for node in graph_nodes(out):
        assert isinstance(node.grad, np.ndarray) and node.grad.shape == ()
    assert x.grad == 2 * 12.0 * 7.0
    assert_grads_are_exclusively_owned(graph_nodes(out), extra=[x.data, out.data])


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
    loss.backward(retain_graph=True)
    params = [p.data for layer in layers for p in layer.parameters()]
    assert_grads_are_exclusively_owned(graph_nodes(loss), extra=params + [loss.data])
    for layer in layers:
        assert layer.weight.grad.shape == layer.weight.shape
        assert layer.weight.grad.flags.c_contiguous


def test_in_place_clip_leaves_forward_buffers_untouched():
    rng = np.random.default_rng(1)
    layers = [Linear(6, 8, rng=rng), Linear(8, 3, rng=rng)]
    loss = mlp_loss(layers, Tensor(rng.normal(size=(5, 6))), rng.integers(0, 3, 5))
    loss.backward(retain_graph=True)
    nodes = graph_nodes(loss)
    # the forward buffers the graph still reads
    kept = closure_arrays(nodes)
    forward = [a.copy() for a in kept]
    interior = [None if n.grad is None else n.grad.copy() for n in nodes]
    params = [p for layer in layers for p in (layer.weight, layer.bias)]
    assert clip_grad_norm(params, max_norm=1e-3) > 1e-3
    for array, data in zip(kept, forward):
        assert np.array_equal(array, data)
    for node, grad in zip(nodes, interior):
        if grad is not None and not any(node is p._node for p in params):
            assert np.array_equal(node.grad, grad)


def test_gradients_accumulate_across_graphs_and_retained_backward():
    x = Tensor(np.array([[1.0, -2.0], [3.0, 4.0]]), requires_grad=True)
    (x * x).sum().backward()
    first = x.grad.copy()
    (x * 3.0).sum().backward()  # a fresh graph adds into the adopted buffer
    assert np.array_equal(x.grad, first + 3.0)

    y = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    loss = (y * 2.0).sum()
    loss.backward(retain_graph=True)
    assert np.array_equal(y.grad, [2.0, 2.0])
    # interior gradients persist on a retained graph: the second pass sends
    # 1 + 1 through ``sum`` and 1 + 2 through ``mul``
    loss.backward()
    assert np.array_equal(y.grad, [8.0, 8.0])


def block_loss(block, x):
    out = block(x)
    return (out * out).sum()


def test_basic_block_step_gradients_are_exclusively_owned():
    rng = np.random.default_rng(2)
    block = BasicBlock(2, 4, stride=2, rng=rng)  # 1x1 conv + BatchNorm shortcut
    x = Tensor(rng.normal(size=(3, 2, 6, 6)), requires_grad=True)
    loss = block_loss(block, x)
    loss.backward(retain_graph=True)
    nodes = graph_nodes(loss)
    stats = [b for _, b in block.named_buffers()]
    assert len(stats) == 6
    held = stats + [p.data for p in block.parameters()] + [x.data, loss.data]
    # (C_in*kh*kw, N*out_h*out_w) of conv1, conv2 and the shortcut conv: the
    # closures keep each geometry's intp index plan, never a float64 patch
    # matrix of that shape
    patch_shapes = {(2 * 3 * 3, 3 * 3 * 3), (4 * 3 * 3, 3 * 3 * 3), (2, 3 * 3 * 3)}
    kept = closure_arrays(nodes)
    assert {a.shape for a in kept if a.dtype == np.intp} == patch_shapes
    assert not any(a.dtype == np.float64 and a.shape in patch_shapes for a in kept)
    assert_grads_are_exclusively_owned(nodes, extra=held)
    for p in block.parameters() + [x]:
        assert p.grad.shape == p.shape and p.grad.flags.c_contiguous
    # every activation the block's backward reads is ordinary memory too
    assert all(a.flags.c_contiguous for a in kept)

    # a second pass over the retained graph adds into the same buffers
    buffers = [p.grad for p in block.parameters()]
    first = [g.copy() for g in buffers]
    loss.backward(retain_graph=True)
    for p, buffer, before in zip(block.parameters(), buffers, first):
        assert p.grad is buffer and not np.array_equal(buffer, before)
    assert_grads_are_exclusively_owned(graph_nodes(loss), extra=held)


def test_conv_closures_keep_no_float64_buffer_of_their_own():
    """A training conv2d keeps its input array, weight and index plan:
    every float64 array its closure keeps is a parent's data, never a
    patch matrix."""
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
    weight = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
    bias = Tensor(rng.normal(size=4), requires_grad=True)
    parents = [x.data, weight.data, bias.data]
    for out in (
        F.conv2d(x, weight, bias, padding=1),
        F.conv2d(x, weight, stride=2),
    ):
        kept = closure_arrays([out._node])
        assert any(a.dtype == np.intp for a in kept)  # the index plan
        for array in kept:
            if array.dtype == np.float64:
                assert any(np.shares_memory(array, p) for p in parents), array.shape


def test_second_backward_on_a_retained_graph_accumulates_for_the_resnet_ops():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(2, 2, 5, 5)), requires_grad=True)
    weight = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    gamma = Tensor(rng.normal(size=2), requires_grad=True)
    beta = Tensor(rng.normal(size=2), requires_grad=True)
    bias = Tensor(rng.normal(size=3), requires_grad=True)
    for build, leaves in (
        (lambda: F.conv2d(x, weight, bias, stride=2), [x, weight, bias]),
        (lambda: F.batch_norm(x, gamma, beta, np.zeros(2), np.ones(2), True),
         [x, gamma, beta]),
    ):
        for leaf in leaves:
            leaf.zero_grad()
        out = build()
        seed = rng.normal(size=out.shape)
        out.backward(seed, retain_graph=True)
        once = [leaf.grad.copy() for leaf in leaves]
        # the root now holds seed + seed: one pass of 1 and one of 2
        out.backward(seed)
        for leaf, grad in zip(leaves, once):
            np.testing.assert_allclose(leaf.grad, 3.0 * grad, rtol=1e-10, atol=1e-12)


def test_running_statistics_move_once_per_training_forward_only():
    rng = np.random.default_rng(4)
    bn = BatchNorm2d(3, momentum=0.1)
    data = rng.normal(loc=1.0, size=(4, 3, 5, 5))
    batch_mean = data.mean(axis=(0, 2, 3))
    batch_var = data.var(axis=(0, 2, 3))

    out = bn(Tensor(data, requires_grad=True))
    np.testing.assert_allclose(bn.running_mean, 0.1 * batch_mean, rtol=1e-12)
    np.testing.assert_allclose(bn.running_var, 0.9 + 0.1 * batch_var, rtol=1e-12)
    after_forward = bn.running_mean.copy(), bn.running_var.copy()
    out.sum().backward()  # backward reads the statistics, never writes them

    bn.eval()
    bn(Tensor(data, requires_grad=True)).sum().backward()
    with no_grad():  # the predict path
        bn(Tensor(data))
    assert np.array_equal(bn.running_mean, after_forward[0])
    assert np.array_equal(bn.running_var, after_forward[1])

    bn.train()
    bn(Tensor(data))
    np.testing.assert_allclose(bn.running_mean, 0.19 * batch_mean, rtol=1e-12)
