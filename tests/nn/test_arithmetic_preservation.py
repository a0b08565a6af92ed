"""The in-place optimisers and the fused Linear node compute exactly what
the formulas they replaced computed; the GEMM-layout conv2d and the
one-node batch_norm compute the same formulas with re-associated sums.

The references below are the formula-literal bodies (one numpy expression
per line of the update rule, one Tensor op per arithmetic operator) and the
routes the ResNet ops replaced, kept here only to be compared against.  On
the dense (MLP) path every comparison is ``np.array_equal``: a change that
reorders or regroups a floating-point operation fails these tests and has
to be declared (and the pinned history hash re-recorded).  On the ResNet
path the declared scope is float64, same formulas, reductions in another
order: ``CONV_PATH_RTOL`` bounds it, and a second pinned hash makes the
next conv-path change declare itself too.  The index plan that gathers
conv2d's patches and scatters their gradients is held to bytes: it must
equal the strided gather and per-offset scatter it replaced.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import build_algorithm
from repro.nn import (
    Adam, SGD, BatchNorm1d, BatchNorm2d, Linear, Tensor, clip_grad_norm, no_grad,
)
from repro.nn import functional as F
from repro.nn import losses as L
from repro.nn.models import ResNetClassifier
from repro.nn.tensor import _record

from ..conftest import make_tiny_federation

STEPS = 20


class ReferenceAdam:
    """Adam as the update rule is written, one temporary per operator."""

    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.params = params
        self.lr, (self.beta1, self.beta2), self.eps = lr, betas, eps
        self.weight_decay = weight_decay
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.t = 0

    def step(self):
        self.t += 1
        bias1 = 1.0 - self.beta1**self.t
        bias2 = 1.0 - self.beta2**self.t
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * grad
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * grad**2
            m_hat = self.m[i] / bias1
            v_hat = self.v[i] / bias2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class ReferenceSGD:
    def __init__(self, params, lr, momentum=0.0, weight_decay=0.0):
        self.params, self.lr = params, lr
        self.momentum, self.weight_decay = momentum, weight_decay
        self.velocity = [np.zeros_like(p.data) for p in params]

    def step(self):
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                self.velocity[i] = self.momentum * self.velocity[i] + grad
                grad = self.velocity[i]
            p.data = p.data - self.lr * grad


def unfused_linear(x, weight, bias):
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def make_layers(seed):
    """A 3-layer MLP whose middle layer has no bias."""
    rng = np.random.default_rng(seed)
    return [
        Linear(12, 16, rng=rng),
        Linear(16, 8, bias=False, rng=rng),
        Linear(8, 5, rng=rng),
    ]


def parameters(layers):
    return [p for layer in layers for p in (layer.weight, layer.bias) if p is not None]


def forward(layers, x, linear):
    h = x
    for layer in layers[:-1]:
        h = linear(h, layer.weight, layer.bias).relu()
    return linear(h, layers[-1].weight, layers[-1].bias)


def batches(seed):
    rng = np.random.default_rng(seed)
    for _ in range(STEPS):
        yield rng.normal(size=(7, 12)), rng.integers(0, 5, size=7)


def train(layers, optimizer, linear, max_grad_norm):
    params = parameters(layers)
    for xb, yb in batches(seed=5):
        x = Tensor(xb)  # requires_grad=False: dx of the first layer is skipped
        loss = L.cross_entropy(forward(layers, x, linear), yb)
        for p in params:
            p.zero_grad()
        loss.backward()
        assert x.grad is None
        if max_grad_norm is not None:
            clip_grad_norm(params, max_grad_norm)
        optimizer.step()


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
@pytest.mark.parametrize("max_grad_norm", [None, 0.5])
def test_adam_and_fused_linear_match_formula_literal_reference(
    weight_decay, max_grad_norm
):
    new, ref = make_layers(3), make_layers(3)
    adam = Adam(parameters(new), lr=1e-2, weight_decay=weight_decay)
    ref_adam = ReferenceAdam(parameters(ref), lr=1e-2, weight_decay=weight_decay)
    train(new, adam, F.linear, max_grad_norm)
    train(ref, ref_adam, unfused_linear, max_grad_norm)
    assert adam._t == ref_adam.t == STEPS
    for i, (p, q) in enumerate(zip(parameters(new), parameters(ref))):
        assert np.array_equal(p.data, q.data)
        assert np.array_equal(p.grad, q.grad)
        assert np.array_equal(adam._m[i], ref_adam.m[i])
        assert np.array_equal(adam._v[i], ref_adam.v[i])


@pytest.mark.parametrize("momentum", [0.0, 0.9])
@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_sgd_matches_formula_literal_reference(momentum, weight_decay):
    new, ref = make_layers(4), make_layers(4)
    sgd = SGD(parameters(new), lr=0.05, momentum=momentum, weight_decay=weight_decay)
    ref_sgd = ReferenceSGD(
        parameters(ref), lr=0.05, momentum=momentum, weight_decay=weight_decay
    )
    train(new, sgd, F.linear, 1.0)
    train(ref, ref_sgd, unfused_linear, 1.0)
    velocity = sgd._velocity
    for i, (p, q) in enumerate(zip(parameters(new), parameters(ref))):
        assert np.array_equal(p.data, q.data)
        if momentum:
            assert np.array_equal(velocity[i], ref_sgd.velocity[i])


def test_fused_linear_input_gradient_matches_unfused():
    rng = np.random.default_rng(0)
    layer = Linear(6, 4, rng=rng)
    data = rng.normal(size=(5, 6))
    seed_grad = rng.normal(size=(5, 4))
    grads = []
    for linear in (F.linear, unfused_linear):
        x = Tensor(data, requires_grad=True)
        layer.weight.zero_grad()
        layer.bias.zero_grad()
        linear(x, layer.weight, layer.bias).backward(seed_grad)
        grads.append((x.grad, layer.weight.grad, layer.bias.grad))
    for fused, unfused in zip(*grads):
        assert np.array_equal(fused, unfused)


#: sha256 of the canonical history (server_acc, client_accs, uplink and
#: downlink bytes per round) of the run below.  It moves only when the
#: arithmetic of training, distillation or aggregation moves; re-record it
#: in the same change that says so.
PINNED_FEDPKD_HISTORY = (
    "0fc1181db8b94f17b88c5a6e9c2c23cb0c76d1cfdb996e54ee344e6579f7d47e"
)


#: the same for one round with ResNet clients and server: it moves when the
#: conv / batch-norm / pad route moves an argmax, which a re-association at
#: the 1e-14 level has not done here
PINNED_RESNET_FEDPKD_HISTORY = (
    "e53cf4a3bcb52a11f6d7e49ef0f527b1a60e1a5e7c40846ae4f01e8b54c72e06"
)


def fedpkd_history_digest(bundle, model, rounds):
    fed = make_tiny_federation(bundle, client_models=model, server_model=model)
    try:
        history = build_algorithm("fedpkd", fed, seed=0, epoch_scale=0.1).run(
            rounds, eval_every=1
        )
    finally:
        fed.close()
    canonical = json.dumps(
        [
            [r.server_acc, list(r.client_accs), r.comm_uplink_bytes,
             r.comm_downlink_bytes]
            for r in history.records
        ],
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest(), canonical


def test_tiny_fedpkd_history_hash_is_pinned(tiny_bundle):
    digest, canonical = fedpkd_history_digest(tiny_bundle, "mlp_small", rounds=2)
    assert digest == PINNED_FEDPKD_HISTORY, canonical


def test_tiny_resnet_fedpkd_history_hash_is_pinned(tiny_bundle):
    digest, canonical = fedpkd_history_digest(tiny_bundle, "resnet11", rounds=1)
    assert digest == PINNED_RESNET_FEDPKD_HISTORY, canonical


# ----------------------------------------------------------------------
# the ResNet path: conv2d, batch_norm
# ----------------------------------------------------------------------
#: float64, same formulas, sums in another order (measured: <= 2e-14)
CONV_PATH_RTOL = 1e-10
#: for entries that cancel to ~0, where a relative bound means nothing
CONV_PATH_ATOL = 1e-12


def assert_close(actual, expected):
    np.testing.assert_allclose(
        actual, expected, rtol=CONV_PATH_RTOL, atol=CONV_PATH_ATOL
    )


def pad2d(x, padding):
    """Zero-pad the last two (spatial) axes of an NCHW tensor, as one graph
    node: the padding the replaced conv routes ran before their gather."""
    if padding == 0:
        return x
    interior = (..., slice(padding, -padding), slice(padding, -padding))
    out_data = np.zeros(
        x.shape[:-2] + (x.shape[-2] + 2 * padding, x.shape[-1] + 2 * padding)
    )
    out_data[interior] = x.data
    node = x._node

    def backward(grad):
        node.accumulate(grad[interior])

    return _record(out_data, (node,), backward)


def reference_conv2d(x, weight, bias=None, stride=1, padding=0):
    """The route F.conv2d replaced: an ``(N, K, P)`` im2col matrix and three
    ``np.einsum(..., optimize=True)`` contractions."""
    x = pad2d(x, padding)
    c_out, _, kh, kw = weight.shape
    n, c, h, w = x.shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    s0, s1, s2, s3 = x.data.strides
    windows = np.lib.stride_tricks.as_strided(
        x.data,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
        writeable=False,
    )
    cols = np.ascontiguousarray(
        windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, out_h * out_w)
    )
    w_mat = weight.data.reshape(c_out, -1)
    out_data = np.einsum("ok,nkp->nop", w_mat, cols, optimize=True)
    out_data = out_data.reshape(n, c_out, out_h, out_w)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, c_out, 1, 1)
    nx, nw = x._node, weight._node
    nb = None if bias is None else bias._node

    def backward(grad):
        grad_mat = grad.reshape(n, c_out, out_h * out_w)
        if nw is not None:
            dw = np.einsum("nop,nkp->ok", grad_mat, cols, optimize=True)
            nw.accumulate(dw.reshape(w_shape))
        if nb is not None:
            nb.accumulate(grad.sum(axis=(0, 2, 3)))
        if nx is not None:
            dcols = np.einsum("ok,nop->nkp", w_mat, grad_mat, optimize=True)
            dx = np.zeros((n, c, h, w))
            cols6 = dcols.reshape(n, c, kh, kw, out_h, out_w)
            for i in range(kh):
                for j in range(kw):
                    dx[:, :, i : i + out_h * stride : stride,
                       j : j + out_w * stride : stride] += cols6[:, :, i, j]
            nx.accumulate(dx)

    w_shape = weight.shape
    return _record(out_data, (nx, nw, nb), backward)


def reference_batch_norm(
    x, weight, bias, running_mean, running_var, training, momentum=0.1, eps=1e-5
):
    """The chain of sixteen Tensor ops F.batch_norm replaced."""
    axes = (0,) if x.ndim == 2 else (0, 2, 3)
    shape = (1, x.shape[1]) + (1,) * (x.ndim - 2)
    if training:
        mean = x.mean(axis=axes, keepdims=True)
        var = ((x - mean) ** 2).mean(axis=axes, keepdims=True)
        running_mean[...] = (
            (1 - momentum) * running_mean + momentum * mean.data.reshape(-1)
        )
        running_var[...] = (
            (1 - momentum) * running_var + momentum * var.data.reshape(-1)
        )
    else:
        mean = Tensor(running_mean.reshape(shape))
        var = Tensor(running_var.reshape(shape))
    norm = (x - mean) / ((var + eps) ** 0.5)
    return norm * weight.reshape(shape) + bias.reshape(shape)


CONV_CASES = {
    # name: (x shape, C_out, x takes a gradient)
    "batch": ((3, 2, 6, 5), 4, True),
    "batch_of_one": ((1, 2, 6, 5), 4, True),
    "one_input_channel": ((3, 1, 6, 5), 4, True),
    "one_output_channel": ((3, 2, 6, 5), 1, True),
    "constant_input": ((3, 2, 6, 5), 4, False),
}


@pytest.mark.parametrize("case", sorted(CONV_CASES))
@pytest.mark.parametrize("use_bias", [False, True])
@pytest.mark.parametrize("kernel", [1, 3])
@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_matches_the_einsum_route(case, use_bias, kernel, padding, stride):
    x_shape, c_out, x_live = CONV_CASES[case]
    rng = np.random.default_rng(7)
    x_data = rng.normal(size=x_shape)
    w_data = rng.normal(size=(c_out, x_shape[1], kernel, kernel))
    b_data = rng.normal(size=c_out)
    results = []
    for conv in (F.conv2d, reference_conv2d):
        x = Tensor(x_data, requires_grad=x_live)
        weight = Tensor(w_data, requires_grad=True)
        bias = Tensor(b_data, requires_grad=True) if use_bias else None
        out = conv(x, weight, bias, stride=stride, padding=padding)
        seed = np.random.default_rng(8).normal(size=out.shape)
        out.backward(seed, retain_graph=True)  # keeps out.grad
        results.append((out, x, weight, bias))
    (out, x, weight, bias), (ref_out, ref_x, ref_weight, ref_bias) = results
    assert_close(out.data, ref_out.data)
    assert_close(weight.grad, ref_weight.grad)
    if x_live:
        assert_close(x.grad, ref_x.grad)
        assert x.grad.flags.c_contiguous
    else:
        assert x.grad is None and ref_x.grad is None
    if use_bias:
        assert_close(bias.grad, ref_bias.grad)
    assert out.data.flags.c_contiguous and out.grad.flags.c_contiguous
    assert weight.grad.flags.c_contiguous and weight.grad.shape == weight.shape


BATCH_NORM_CASES = {
    # name: (x shape, x takes a gradient)
    "images": ((4, 3, 5, 5), True),
    "one_image": ((1, 3, 5, 5), True),
    "vectors": ((6, 3), True),
    "one_vector": ((1, 3), True),
    "constant_input": ((4, 3, 5, 5), False),
}


@pytest.mark.parametrize("case", sorted(BATCH_NORM_CASES))
@pytest.mark.parametrize("training", [True, False])
def test_batch_norm_matches_the_composed_chain(case, training):
    x_shape, x_live = BATCH_NORM_CASES[case]
    rng = np.random.default_rng(9)
    x_data = rng.normal(loc=0.5, scale=2.0, size=x_shape)
    channels = x_shape[1]
    w_data = rng.normal(size=channels)
    b_data = rng.normal(size=channels)
    seed = rng.normal(size=x_shape)
    results = []
    for norm in (F.batch_norm, reference_batch_norm):
        x = Tensor(x_data, requires_grad=x_live)
        weight = Tensor(w_data, requires_grad=True)
        bias = Tensor(b_data, requires_grad=True)
        running_mean = np.linspace(-0.5, 0.5, channels)
        running_var = np.linspace(0.5, 1.5, channels)
        out = norm(x, weight, bias, running_mean, running_var, training,
                   momentum=0.1, eps=1e-5)
        out.backward(seed)
        results.append((out, x, weight, bias, running_mean, running_var))
    new, ref = results
    assert_close(new[0].data, ref[0].data)
    if x_live:
        assert_close(new[1].grad, ref[1].grad)
    else:
        assert new[1].grad is None
    assert_close(new[2].grad, ref[2].grad)
    assert_close(new[3].grad, ref[3].grad)
    assert_close(new[4], ref[4])
    assert_close(new[5], ref[5])
    assert new[0].data.flags.c_contiguous
    moved = not np.array_equal(new[4], np.linspace(-0.5, 0.5, channels))
    assert moved == training


@pytest.mark.parametrize("layer_cls, shape", [(BatchNorm2d, (4, 3, 5, 5)),
                                              (BatchNorm1d, (6, 3))])
def test_batch_norm_layers_route_through_the_functional(layer_cls, shape, monkeypatch):
    x_data = np.random.default_rng(0).normal(size=shape)
    outputs = []
    for patched in (False, True):
        if patched:
            monkeypatch.setattr(F, "batch_norm", reference_batch_norm)
        layer = layer_cls(3)
        outputs.append((layer(Tensor(x_data)).data, layer.running_mean, layer.running_var))
    for new, ref in zip(*outputs):
        assert_close(new, ref)


def small_resnet():
    """Stem, an identity-shortcut block and a stride-2 block with a 1x1
    conv + BatchNorm shortcut."""
    return ResNetClassifier(
        in_channels=3, num_classes=5, blocks_per_stage=[1, 1], widths=(4, 8),
        feature_dim=8, rng=np.random.default_rng(2),
    )


def train_resnet(model):
    optimizer = Adam(model.parameters(), lr=1e-2)
    rng = np.random.default_rng(6)
    for _ in range(STEPS):
        xb, yb = rng.normal(size=(6, 3, 8, 8)), rng.integers(0, 5, size=6)
        loss = L.cross_entropy(model(Tensor(xb)), yb)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
    return model.state_dict()


def test_resnet_training_matches_the_replaced_routes(monkeypatch):
    new = train_resnet(small_resnet())
    monkeypatch.setattr(F, "conv2d", reference_conv2d)
    monkeypatch.setattr(F, "batch_norm", reference_batch_norm)
    ref = train_resnet(small_resnet())
    assert new.keys() == ref.keys() and len(new) > 20
    for name in new:
        assert_close(new[name], ref[name])


@pytest.mark.parametrize("shape", [(2, 3, 4, 5), (1, 1, 1, 1), (3, 4)])
@pytest.mark.parametrize("padding", [1, 2])
def test_pad2d_is_byte_identical_to_np_pad(shape, padding):
    """The replaced routes' padding node, which the oracles above run."""
    data = np.random.default_rng(0).normal(size=shape)
    data.flat[0] = -0.0
    x = Tensor(data, requires_grad=True)
    out = pad2d(x, padding)
    expected = np.pad(data, [(0, 0)] * (len(shape) - 2) + [(padding, padding)] * 2)
    assert out.data.tobytes() == expected.tobytes() and out.shape == expected.shape
    assert out.data.flags.c_contiguous
    seed = np.random.default_rng(1).normal(size=out.shape)
    out.backward(seed)
    assert np.array_equal(x.grad, seed[..., padding:-padding, padding:-padding])
    assert pad2d(x, 0) is x


def conv_block_step(x_data, w_data):
    """conv -> batch_norm -> conv with the same weight (so the same shape
    occurs twice in one graph), forward and backward."""
    x = Tensor(x_data, requires_grad=True)
    weight = Tensor(w_data, requires_grad=True)
    gamma = Tensor(np.ones(2), requires_grad=True)
    beta = Tensor(np.zeros(2), requires_grad=True)
    stats = (np.zeros(2), np.ones(2))
    hidden = F.batch_norm(F.conv2d(x, weight, padding=1), gamma, beta, *stats, True)
    out = F.conv2d(hidden, weight, padding=1)
    out.backward(np.ones(out.shape))
    return [out.data, x.grad, weight.grad, gamma.grad, beta.grad, *stats]


def test_identical_calls_are_byte_identical_and_share_no_state():
    rng = np.random.default_rng(3)
    x_data, w_data = rng.normal(size=(2, 2, 5, 5)), rng.normal(size=(2, 2, 3, 3))
    first = conv_block_step(x_data, w_data)
    # a same-shaped call on other data in between must leave no trace
    conv_block_step(rng.normal(size=x_data.shape), rng.normal(size=w_data.shape))
    second = conv_block_step(x_data, w_data)
    for a, b in zip(first, second):
        assert a.tobytes() == b.tobytes()


def test_interleaved_same_shape_convs_keep_their_own_patches():
    rng = np.random.default_rng(4)
    w_data = rng.normal(size=(2, 2, 3, 3))
    xa, xb = rng.normal(size=(2, 2, 2, 5, 5))
    alone = Tensor(w_data, requires_grad=True)
    F.conv2d(Tensor(xa), alone, padding=1).backward(np.ones((2, 2, 5, 5)))
    # the second forward happens before the first backward
    shared = Tensor(w_data, requires_grad=True)
    out_a = F.conv2d(Tensor(xa), shared, padding=1)
    F.conv2d(Tensor(xb), Tensor(w_data, requires_grad=True), padding=1)
    out_a.backward(np.ones(out_a.shape))
    assert alone.grad.tobytes() == shared.grad.tobytes()


# ----------------------------------------------------------------------
# the index plan: the same bytes as the strided gather and per-offset
# scatter it replaced, in training and in blocked inference
# ----------------------------------------------------------------------
def strided_windows(data, kh, kw, stride):
    n, c, h, w = data.shape
    s0, s1, s2, s3 = data.strides
    return np.lib.stride_tricks.as_strided(
        data,
        shape=(n, c, kh, kw, (h - kh) // stride + 1, (w - kw) // stride + 1),
        strides=(s0, s1, s2, s3, s2 * stride, s3 * stride),
        writeable=False,
    )


def scatter_per_offset(cols6, shape, stride):
    """Sum an ``(N, C, kh, kw, out_h, out_w)`` array back onto NCHW with
    one strided add per kernel offset ``(i, j)``."""
    _, _, kh, kw, out_h, out_w = cols6.shape
    dx = np.zeros(shape)
    for i in range(kh):
        for j in range(kw):
            dx[:, :, i : i + out_h * stride : stride,
               j : j + out_w * stride : stride] += cols6[:, :, i, j]
    return dx


def strided_conv2d(x, weight, bias=None, stride=1, padding=0):
    """The route the index plan replaced: a ``pad2d`` node, a strided window
    gather and one scatter-add per kernel offset, around the same GEMMs."""
    x = pad2d(x, padding)
    c_out, _, kh, kw = weight.shape
    n, c, h, w = x.shape
    windows = strided_windows(x.data, kh, kw, stride)
    out_h, out_w = windows.shape[4:]
    # contiguous, as both routes now gather: the replaced route handed BLAS
    # a strided view in a few degenerate geometries (e.g. one image, one
    # channel, a 1-row kernel), which rounds differently
    cols = np.ascontiguousarray(
        windows.transpose(1, 2, 3, 0, 4, 5).reshape(c * kh * kw, n * out_h * out_w)
    )
    w_mat = weight.data.reshape(c_out, -1)
    out_data = np.ascontiguousarray(
        (w_mat @ cols).reshape(c_out, n, out_h, out_w).transpose(1, 0, 2, 3)
    )
    if bias is not None:
        np.add(out_data, bias.data.reshape(1, c_out, 1, 1), out=out_data)
    nx, nw = x._node, weight._node
    nb = None if bias is None else bias._node

    def backward(grad):
        if nb is not None:
            nb.accumulate(grad.sum(axis=(0, 2, 3)), True)
        grad_mat = np.ascontiguousarray(grad.transpose(1, 0, 2, 3)).reshape(c_out, -1)
        nw.accumulate((grad_mat @ cols.T).reshape(w_shape), True)
        if nx is not None:
            dcols = (w_mat.T @ grad_mat).reshape(c, kh, kw, n, out_h, out_w)
            dx = scatter_per_offset(dcols.transpose(3, 0, 1, 2, 4, 5), (n, c, h, w), stride)
            nx.accumulate(dx, True)

    w_shape = weight.shape
    return _record(out_data, (nx, nw, nb), backward)


def distinct_pair(low, high):
    return st.tuples(st.integers(low, high), st.integers(low, high)).filter(
        lambda pair: pair[0] != pair[1]
    )


@given(
    # batches of one block and of several, with and without a tail block
    n=st.sampled_from([1, 2, 3, 31, 32, 33, 65]),
    c=st.integers(1, 3), c_out=st.integers(1, 3),
    hw=distinct_pair(3, 7), kernel=distinct_pair(1, 3),
    stride=st.sampled_from([1, 2]), padding=st.sampled_from([0, 1, 2]),
    use_bias=st.booleans(), x_live=st.booleans(), residual=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=80, deadline=None)
def test_conv2d_index_plan_is_byte_identical_to_the_strided_route(
    n, c, c_out, hw, kernel, stride, padding, use_bias, x_live, residual, seed
):
    rng = np.random.default_rng(seed)
    x_data = rng.normal(size=(n, c) + hw)
    x_data.flat[0] = -0.0  # a padded zero must not turn it into +0.0
    w_data = rng.normal(size=(c_out, c) + kernel)
    b_data = rng.normal(size=c_out)
    # a gradient x already holds, as a residual block's input does
    prior = rng.normal(size=x_data.shape)
    results = []
    for conv in (F.conv2d, strided_conv2d):
        x = Tensor(x_data, requires_grad=x_live)
        if x_live and residual:
            x.grad = prior.copy()
        weight = Tensor(w_data, requires_grad=True)
        bias = Tensor(b_data, requires_grad=True) if use_bias else None
        out = conv(x, weight, bias, stride=stride, padding=padding)
        out.backward(np.random.default_rng(seed + 1).normal(size=out.shape))
        results.append((out.data, x.grad, weight.grad, bias and bias.grad))
    for new, ref in zip(*results):
        if ref is None:
            assert new is None
        else:
            assert new.shape == ref.shape and new.tobytes() == ref.tobytes()
    assert (results[0][1] is None) == (not x_live)
    # inference, in blocks through the 32-image plan, yields the same bytes
    with no_grad():
        bias = Tensor(b_data) if use_bias else None
        inferred = F.conv2d(Tensor(x_data), Tensor(w_data), bias, stride=stride,
                            padding=padding)
    assert inferred.data.tobytes() == results[0][0].tobytes()


def test_only_recorded_calls_use_the_bounded_plan_cache():
    """Only a recorded call sizes a plan to its batch.  An inference call of
    any batch size looks up one plan, its geometry's 32-image one, and runs
    every block (a short tail block too) through it: after a recorded
    32-image call of that geometry it builds nothing."""
    rng = np.random.default_rng(5)
    block = F._INFER_BLOCK
    weight = Tensor(rng.normal(size=(4, 3, 3, 2)), requires_grad=True)
    F.conv2d(Tensor(rng.normal(size=(block, 3, 6, 5))), weight, padding=1)
    before = F._patch_plan.cache_info()
    batches = (1, block - 1, block, block + 1, 3 * block + 5)
    for n in batches:
        x = Tensor(rng.normal(size=(n, 3, 6, 5)))
        with no_grad():
            F.conv2d(x, weight, padding=1)
        # grad mode on, but nothing takes a gradient: no backward is recorded
        F.conv2d(x, Tensor(weight.data), padding=1)
    after = F._patch_plan.cache_info()
    assert after.misses == before.misses and after.currsize == before.currsize
    assert after.hits == before.hits + 2 * len(batches)

    F.conv2d(Tensor(rng.normal(size=(2, 3, 6, 5))), weight, padding=1)
    after = F._patch_plan.cache_info()
    assert after.hits + after.misses == before.hits + before.misses + 2 * len(batches) + 1
    plan = F._patch_plan(2, 3, 6, 5, 3, 2, 1, 1)
    assert plan.dtype == np.intp and plan.flags.c_contiguous
    assert plan.shape == (3 * 3 * 2, 2 * 6 * 6)

    maxsize = after.maxsize
    assert maxsize is not None and maxsize > 0
    for batch in range(1, maxsize + 2):
        F._patch_plan(batch, 1, 2, 2, 1, 1, 1, 0)
    assert F._patch_plan.cache_info().currsize == maxsize
    with no_grad():
        F.conv2d(Tensor(rng.normal(size=(block + 3, 1, 3, 2))), Tensor(np.ones((1, 1, 1, 1))))
    assert F._patch_plan.cache_info().currsize == maxsize
