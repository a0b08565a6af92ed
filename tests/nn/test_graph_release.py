"""A backward pass releases the graph it consumed.

By default ``Tensor.backward`` drops each interior node's gradient, parents
and closure as soon as the closure has run, so the activations a training
step kept for its backward pass die with the pass instead of living through
the next batch's forward.  ``retain_graph=True`` keeps the graph for a
second pass.  An activation no backward closure reads does not even live
that long (``test_activation_lifetime.py``).
"""

import tracemalloc

import numpy as np
import pytest

from repro.fl.config import TrainingConfig
from repro.fl.training import train_supervised
from repro.nn import Tensor, build_model
from repro.obs import OpProfiler, activate

RELEASED = "retain_graph=True"


def leaves_and_loss():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    w = Tensor(np.array([0.5, 0.25, 2.0]), requires_grad=True)
    hidden = (x * w).relu()
    return x, w, hidden, (hidden * hidden).sum()


def test_default_pass_releases_interior_nodes_and_keeps_leaf_gradients():
    x, w, hidden, loss = leaves_and_loss()
    loss.backward()
    np.testing.assert_array_equal(x.grad, [0.5, 0.0, 24.0])
    np.testing.assert_array_equal(w.grad, [1.0, 0.0, 36.0])
    for tensor in (hidden, loss):
        assert tensor.grad is None and tensor._node.parents == ()
    assert loss.item() == 36.25  # the forward value outlives the graph


def test_second_pass_from_the_same_root_raises_and_leaves_leaves_untouched():
    x, w, _, loss = leaves_and_loss()
    loss.backward()
    before = [x.grad.copy(), w.grad.copy()]
    with pytest.raises(RuntimeError, match=RELEASED):
        loss.backward()
    for leaf, grad in zip((x, w), before):
        np.testing.assert_array_equal(leaf.grad, grad)


def test_pass_from_a_second_root_reaching_a_released_node_raises():
    x, w, hidden, loss = leaves_and_loss()
    other = hidden.sum() * 3.0  # shares ``hidden`` with ``loss``
    loss.backward()
    before = [x.grad.copy(), w.grad.copy()]
    with pytest.raises(RuntimeError, match=RELEASED):
        other.backward()
    for leaf, grad in zip((x, w), before):
        np.testing.assert_array_equal(leaf.grad, grad)


def test_retained_pass_then_default_pass_accumulates_then_a_third_raises():
    x, w, _, loss = leaves_and_loss()
    loss.backward(retain_graph=True)
    loss.backward()
    # a twin graph kept whole over both passes: the retained root and
    # interior nodes still hold the first pass's gradients, so the second
    # pass sends accumulated gradients down the graph in both
    twin_x, twin_w, _, twin_loss = leaves_and_loss()
    twin_loss.backward(retain_graph=True)
    twin_loss.backward(retain_graph=True)
    np.testing.assert_array_equal(x.grad, twin_x.grad)
    np.testing.assert_array_equal(w.grad, twin_w.grad)
    np.testing.assert_array_equal(x.grad, [3.0, 0.0, 144.0])
    with pytest.raises(RuntimeError, match=RELEASED):
        loss.backward()
    np.testing.assert_array_equal(x.grad, twin_x.grad)


def test_a_leaf_root_accumulates_on_every_pass():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    x.backward(np.array([1.0, 1.0]))
    x.backward(np.array([1.0, 1.0]))
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])


@pytest.mark.parametrize("seed_shape", [(1,), (2, 3), ()])
def test_a_seed_of_the_wrong_shape_is_rejected_before_anything_accumulates(seed_shape):
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    y = x * 2.0
    with pytest.raises(ValueError, match=r"\(3,\)") as info:
        y.backward(np.full(seed_shape, 5.0))
    assert str(seed_shape) in str(info.value)
    assert x.grad is None and y.grad is None
    y.backward(np.full(3, 5.0))  # the graph was not consumed
    np.testing.assert_array_equal(x.grad, [10.0, 10.0, 10.0])


def training_peak_bytes(num_batches, profiled, model_name="resnet20"):
    rng = np.random.default_rng(0)
    model = build_model(model_name, num_classes=10, image_shape=(3, 8, 8), rng=rng)
    x = rng.normal(size=(32 * num_batches, 3, 8, 8))
    y = rng.integers(0, 10, size=len(x))
    config = TrainingConfig(epochs=1, batch_size=32)
    with activate(OpProfiler() if profiled else None):
        tracemalloc.start()
        try:
            train_supervised(model, x, y, config, rng=np.random.default_rng(1))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("profiled", [False, True])
def test_a_training_step_memory_does_not_outlive_its_step(profiled):
    """One step's graph is gone before the next forward, so peak memory is
    that of one step however many batches the epoch has.  The profiler wraps
    every backward closure, and the release must hold through the wrapper.

    Two batches are the baseline, not one: every step after the first
    also holds arrays the first does not, the optimiser's copies of
    parameters built before tracing began and the previous step's
    gradients until ``zero_grad`` (0.69 MiB here, 14 % of a step)."""
    training_peak_bytes(1, profiled)  # fills conv2d's index-plan cache
    two = training_peak_bytes(2, profiled)
    four = training_peak_bytes(4, profiled)
    assert four <= 1.1 * two, (four / 2**20, two / 2**20)


@pytest.mark.parametrize("profiled", [False, True])
def test_a_resnet20_training_step_stays_under_its_memory_bound(profiled):
    """A training step holds only what its backward pass reads: one
    ResNet-20 step at batch 32 on 8x8 images peaked at 20.4 MiB traced when
    every conv closure kept its (C*kh*kw, N*out_h*out_w) float64 patches,
    at 9.4 MiB when the graph kept every op's output alive until backward,
    and peaks at 5.0 MiB (profiler off or on) now that a conv output, a
    BatchNorm output or a residual sum dies with its last Python reference.
    The bound leaves a ~50 % margin over the latter and sits under the
    others."""
    training_peak_bytes(1, profiled)  # fills conv2d's index-plan cache
    peak = training_peak_bytes(1, profiled)
    assert peak <= 7.5 * 2**20, peak / 2**20


@pytest.mark.parametrize("profiled", [False, True])
def test_a_resnet56_training_step_stays_under_its_memory_bound(profiled):
    """The server's model in the paper's family, trained by Eq. 13's
    distillation: one ResNet-56 step at batch 32 on 8x8 images peaked at
    24.0 MiB traced when the graph kept every op's output alive until
    backward, and peaks at 13.0 MiB (profiler off or on) now."""
    training_peak_bytes(1, profiled, "resnet56")  # fills the plan cache
    peak = training_peak_bytes(1, profiled, "resnet56")
    assert peak <= 16 * 2**20, peak / 2**20


def test_a_resnet56_inference_pass_stays_under_its_memory_bound():
    """An inference conv2d gathers and multiplies 32 images at a time
    through its geometry's training plan.  ``predict_logits`` of 300 8x8
    images through ResNet-56 (eval batches of 256) peaked at 15.6 MiB traced
    when each conv gathered one patch matrix for its whole batch, and peaks
    at 6.1 MiB now.  The bound leaves a ~50 % margin over the latter and
    sits well under the former."""
    rng = np.random.default_rng(0)
    model = build_model("resnet56", num_classes=10, image_shape=(3, 8, 8), rng=rng)
    x = rng.normal(size=(300, 3, 8, 8))
    model.predict_logits(x)  # fills conv2d's index-plan cache
    tracemalloc.start()
    try:
        model.predict_logits(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9.5 * 2**20, peak / 2**20
