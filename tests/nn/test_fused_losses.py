"""Each fused loss node computes exactly what its primitive Tensor chain
computed: the same forward value and the same input gradients, byte for
byte (so the sign of a zero counts), and the same trained weights end to
end.

The chains below are the bodies ``repro.nn.losses`` and
``repro.nn.functional`` had before the fusion, one Tensor op per operator.
They live only here, as oracles.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.algorithms import build_algorithm
from repro.nn import Linear, Tensor
from repro.nn import functional as F
from repro.nn import losses as L

from ..conftest import make_tiny_federation


# ----------------------------------------------------------------------
# the primitive chains
# ----------------------------------------------------------------------
def chain_log_softmax(x, axis=-1):
    shift = Tensor(x.data.max(axis=axis, keepdims=True))
    shifted = x - shift
    log_norm = shifted.exp().sum(axis=axis, keepdims=True).log()
    return shifted - log_norm


def chain_softmax(x, axis=-1):
    return chain_log_softmax(x, axis=axis).exp()


def chain_cross_entropy(logits, labels):
    labels = np.asarray(labels, dtype=np.int64)
    log_probs = chain_log_softmax(logits, axis=1)
    picked = log_probs[np.arange(len(labels)), labels]
    return -picked.mean()


def chain_kl_divergence(teacher_logits, student_logits, temperature=1.0):
    teacher = (
        teacher_logits.data
        if isinstance(teacher_logits, Tensor)
        else np.asarray(teacher_logits)
    )
    teacher_probs = L._softmax_np(teacher, temperature)
    scaled_student = student_logits * (1.0 / temperature)
    student_log_probs = chain_log_softmax(scaled_student, axis=1)
    entropy = float((teacher_probs * np.log(teacher_probs + 1e-12)).sum(axis=1).mean())
    cross = -(student_log_probs * Tensor(teacher_probs)).sum(axis=1).mean()
    return (cross + entropy) * (temperature**2)


def chain_mse_loss(prediction, target):
    if not isinstance(target, Tensor):
        target = Tensor(np.asarray(target, dtype=np.float64))
    return ((prediction - target) ** 2).mean()


def chain_proximal_term(parameters, reference, mu):
    if mu == 0.0:
        return None
    total = None
    for name, param in parameters:
        sq = ((param - Tensor(reference[name])) ** 2).sum()
        total = sq if total is None else total + sq
    if total is None:
        return None
    return total * (mu / 2.0)


CHAINS = {
    (F, "log_softmax"): chain_log_softmax,
    (F, "softmax"): chain_softmax,
    (L, "cross_entropy"): chain_cross_entropy,
    (L, "kl_divergence"): chain_kl_divergence,
    (L, "mse_loss"): chain_mse_loss,
    (L, "proximal_term"): chain_proximal_term,
}


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
#: ties, signed zeros and large magnitudes next to ordinary values
ELEMENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 3.0, 1e3, -1e3, 1e6, -1e6]),
    st.floats(min_value=-30.0, max_value=30.0, allow_nan=False),
)
#: upstream gradients, signed zeros included
UPSTREAM = st.one_of(
    st.sampled_from([1.0, 0.0, -0.0, -1.0, 0.5]),
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
)
TEMPERATURES = st.one_of(
    st.sampled_from([1.0, 2.0, 3.0, 0.5]), st.floats(min_value=0.1, max_value=10.0)
)


def matrices(rows=st.integers(1, 6), cols=st.integers(1, 7)):
    return hnp.arrays(np.float64, st.tuples(rows, cols), elements=ELEMENTS)


@st.composite
def logits_and_labels(draw):
    logits = draw(matrices())
    labels = draw(
        hnp.arrays(
            np.int64, logits.shape[0], elements=st.integers(0, logits.shape[1] - 1)
        )
    )
    return logits, labels


def assert_same_bytes(fused, chain):
    assert fused.shape == chain.shape
    assert fused.tobytes() == chain.tobytes(), (fused, chain)


def run_both(build, *arrays, order="C", seeded=False):
    """Build the loss on leaves of ``arrays`` (laid out in ``order``, their
    gradients ``-0.0`` when ``seeded``, else unset) once with the fused ops
    and once with the chains; return ``(value, grads)`` for each.

    A seeded gradient is added to rather than replaced, so a ``-0.0`` the
    chain would have copied away stays visible in it."""
    results = []
    for fused in (True, False):
        leaves = [Tensor(a.copy(order=order), requires_grad=True) for a in arrays]
        if seeded:
            for leaf in leaves:
                leaf.grad = np.full(leaf.shape, -0.0)
        out = build(fused, *leaves)
        results.append((out.data, [leaf.grad for leaf in leaves]))
    return results


def loss_fn(fused, module, name):
    return getattr(module, name) if fused else CHAINS[(module, name)]


def check(results):
    (value, grads), (chain_value, chain_grads) = results
    assert_same_bytes(np.asarray(value), np.asarray(chain_value))
    for fused_grad, chain_grad in zip(grads, chain_grads):
        if fused_grad is None or chain_grad is None:
            assert fused_grad is chain_grad
        else:
            assert_same_bytes(fused_grad, chain_grad)


# ----------------------------------------------------------------------
# byte identity, loss by loss
# ----------------------------------------------------------------------
#: the layouts a leaf's data may have: sums follow the layout, so the
#: fused ops must allocate as the chain did
ORDERS = st.sampled_from(["C", "F"])


@pytest.mark.parametrize("name", ["log_softmax", "softmax"])
@given(data=matrices(), upstream=st.data(), order=ORDERS, seeded=st.booleans())
@settings(max_examples=100, deadline=None)
def test_log_softmax_and_softmax_match_the_chain(name, data, upstream, order, seeded):
    seed = upstream.draw(hnp.arrays(np.float64, data.shape, elements=UPSTREAM))
    axis = upstream.draw(st.sampled_from([-1, 0, 1]))

    def build(fused, x):
        out = loss_fn(fused, F, name)(x, axis=axis)
        # a product keeps the upstream gradient's -0.0 (a bare seed is copied)
        (out * Tensor(seed)).sum().backward()
        return out

    check(run_both(build, data, order=order, seeded=seeded))


@given(case=logits_and_labels(), g=UPSTREAM, order=ORDERS, seeded=st.booleans())
@settings(max_examples=80, deadline=None)
def test_cross_entropy_matches_the_chain(case, g, order, seeded):
    logits, labels = case

    def build(fused, x):
        out = loss_fn(fused, L, "cross_entropy")(x, labels)
        (out * g).backward()
        return out

    check(run_both(build, logits, order=order, seeded=seeded))


@given(
    student=matrices(), data=st.data(), temperature=TEMPERATURES, g=UPSTREAM,
    order=ORDERS, seeded=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_kl_divergence_matches_the_chain(student, data, temperature, g, order, seeded):
    teacher = data.draw(hnp.arrays(np.float64, student.shape, elements=ELEMENTS))
    # the wire carries teacher logits as float32
    teacher = teacher.astype(data.draw(st.sampled_from([np.float64, np.float32])))

    def build(fused, x):
        out = loss_fn(fused, L, "kl_divergence")(teacher, x, temperature=temperature)
        (out * g).backward()
        return out

    check(run_both(build, student, order=order, seeded=seeded))


@given(
    case=logits_and_labels(),
    data=st.data(),
    kd_weight=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    temperature=TEMPERATURES,
)
@settings(max_examples=80, deadline=None)
def test_kd_plus_ce_on_shared_logits_matches_the_chain(case, data, kd_weight, temperature):
    """``kd·KL + (1−kd)·CE``: two nodes feed one logits tensor, and the
    order their gradients arrive in (and which one is copied) must be the
    chain's."""
    logits, labels = case
    teacher = data.draw(hnp.arrays(np.float64, logits.shape, elements=ELEMENTS))

    def build(fused, x):
        kl = loss_fn(fused, L, "kl_divergence")(teacher, x, temperature=temperature)
        ce = loss_fn(fused, L, "cross_entropy")(x, labels)
        out = kd_weight * kl + (1.0 - kd_weight) * ce
        out.backward()
        return out

    check(run_both(build, logits))


@given(pred=matrices(), data=st.data(), g=UPSTREAM, order=ORDERS, seeded=st.booleans())
@settings(max_examples=100, deadline=None)
def test_mse_loss_matches_the_chain(pred, data, g, order, seeded):
    other = data.draw(hnp.arrays(np.float64, pred.shape, elements=ELEMENTS))
    # equal entries make zero differences, whose gradients are signed zeros
    equal = data.draw(hnp.arrays(np.bool_, pred.shape))
    target = np.where(equal, pred, other)
    target_takes_grad = data.draw(st.booleans())

    def build(fused, x, t):
        t.requires_grad = target_takes_grad
        target = t if target_takes_grad else t.data
        out = loss_fn(fused, L, "mse_loss")(x, target)
        (out * g).backward()
        return out

    check(run_both(build, pred, target, order=order, seeded=seeded))


@given(pred=matrices(), g=UPSTREAM)
@settings(max_examples=30, deadline=None)
def test_mse_loss_against_itself_matches_the_chain(pred, g):
    def build(fused, x):
        out = loss_fn(fused, L, "mse_loss")(x, x)
        (out * g).backward()
        return out

    check(run_both(build, pred))


@given(data=st.data(), mu=st.sampled_from([0.01, 0.1, 1.0, 3.0]), g=UPSTREAM)
@settings(max_examples=60, deadline=None)
def test_proximal_term_matches_the_chain(data, mu, g):
    shapes = data.draw(
        st.lists(hnp.array_shapes(min_dims=1, max_dims=2, max_side=4), min_size=1, max_size=4)
    )
    weights = [data.draw(hnp.arrays(np.float64, s, elements=ELEMENTS)) for s in shapes]
    reference = {
        f"p{i}": data.draw(hnp.arrays(np.float64, s, elements=ELEMENTS))
        for i, s in enumerate(shapes)
    }
    # a model's gradient arrives first, as in a FedProx step
    model_grads = [data.draw(hnp.arrays(np.float64, s, elements=UPSTREAM)) for s in shapes]
    with_model = data.draw(st.booleans())
    frozen = data.draw(st.lists(st.booleans(), min_size=len(shapes), max_size=len(shapes)))

    def build(fused, *params):
        for p, is_frozen in zip(params, frozen):
            p.requires_grad = not is_frozen
        named = [(f"p{i}", p) for i, p in enumerate(params)]
        out = loss_fn(fused, L, "proximal_term")(named, reference, mu)
        total = out * g
        if with_model:
            for p, c in zip(params, model_grads):
                total = (p * Tensor(c)).sum() + total
        if total.requires_grad:  # not when every weight is frozen
            total.backward()
        return out

    check(run_both(build, *weights))


@pytest.mark.parametrize("name", ["mse_loss", "proximal_term"])
@pytest.mark.parametrize("shape", [(2, 3), ()])
def test_an_unadoptable_first_gradient_is_copied_as_in_the_chain(name, shape):
    """``(x - t)**2`` hands its gradient to ``x - t`` owned, but the
    accumulator copies it (``+ 0.0``) when ``x - t`` is 0-d or not
    C-contiguous.  A leaf whose gradient already holds ``-0.0`` shows it:
    ``-0.0 + -0.0`` stays negative, ``-0.0 + 0.0`` does not."""
    data = np.zeros(shape[::-1]).T  # F-ordered when 2-D
    grads = []
    for op in (getattr(L, name), CHAINS[(L, name)]):
        x = Tensor(data.copy(order="F"), requires_grad=True)
        x.grad = np.full(shape, -0.0)
        anchor = np.zeros(shape, order="F")
        if name == "mse_loss":
            out = op(x, anchor)
        else:
            out = op([("w", x)], {"w": anchor}, 1.0)
        (out * -1.0).backward()
        grads.append(x.grad)
    assert_same_bytes(*grads)
    assert not np.signbit(grads[0]).any()


# ----------------------------------------------------------------------
# finite differences
# ----------------------------------------------------------------------
def numeric_grad(f, x, eps=1e-6):
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        orig = x[idx]
        x[idx] = orig + eps
        up = f()
        x[idx] = orig - eps
        down = f()
        x[idx] = orig
        grad[idx] = (up - down) / (2 * eps)
    return grad


SMOOTH = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 4), st.integers(2, 5)),
    elements=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)


def assert_gradient_matches(loss_of, x):
    leaf = Tensor(x.copy(), requires_grad=True)
    loss_of(leaf).backward()
    expected = numeric_grad(lambda: float(loss_of(Tensor(x)).data), x)
    np.testing.assert_allclose(leaf.grad, expected, atol=1e-6, rtol=1e-4)


@given(x=SMOOTH, data=st.data())
@settings(max_examples=25, deadline=None)
def test_cross_entropy_gradient_matches_finite_difference(x, data):
    labels = data.draw(hnp.arrays(np.int64, x.shape[0], elements=st.integers(0, x.shape[1] - 1)))
    assert_gradient_matches(lambda t: L.cross_entropy(t, labels), x)


@given(x=SMOOTH, data=st.data(), temperature=st.sampled_from([0.5, 1.0, 3.0]))
@settings(max_examples=25, deadline=None)
def test_kl_divergence_gradient_matches_finite_difference(x, data, temperature):
    teacher = data.draw(hnp.arrays(np.float64, x.shape, elements=st.floats(-3.0, 3.0)))
    assert_gradient_matches(lambda t: L.kl_divergence(teacher, t, temperature), x)


@given(x=SMOOTH, data=st.data())
@settings(max_examples=25, deadline=None)
def test_mse_loss_gradient_matches_finite_difference(x, data):
    target = data.draw(hnp.arrays(np.float64, x.shape, elements=st.floats(-3.0, 3.0)))
    assert_gradient_matches(lambda t: L.mse_loss(t, target), x)
    assert_gradient_matches(lambda t: L.mse_loss(Tensor(target), t), x)


@given(x=SMOOTH, data=st.data())
@settings(max_examples=25, deadline=None)
def test_proximal_term_gradient_matches_finite_difference(x, data):
    anchor = data.draw(hnp.arrays(np.float64, x.shape, elements=st.floats(-3.0, 3.0)))
    assert_gradient_matches(
        lambda t: L.proximal_term([("w", t)], {"w": anchor}, 0.7), x
    )


@pytest.mark.parametrize("op", [F.log_softmax, F.softmax])
@given(x=SMOOTH, data=st.data())
@settings(max_examples=25, deadline=None)
def test_log_softmax_and_softmax_gradients_match_finite_difference(op, x, data):
    weights = data.draw(hnp.arrays(np.float64, x.shape, elements=st.floats(-2.0, 2.0)))
    assert_gradient_matches(lambda t: (op(t, axis=1) * Tensor(weights)).sum(), x)


# ----------------------------------------------------------------------
# one node each
# ----------------------------------------------------------------------
def test_each_loss_is_one_graph_node():
    rng = np.random.default_rng(0)
    logits = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    teacher = rng.normal(size=(4, 3))
    layer = Linear(3, 2, rng=0)
    nodes = [
        L.cross_entropy(logits, [0, 1, 2, 0]),
        L.kl_divergence(teacher, logits, 2.0),
        L.mse_loss(logits, teacher),
        L.proximal_term(layer.named_parameters(), layer.state_dict(), 0.1),
        F.log_softmax(logits),
        F.softmax(logits),
    ]
    for out in nodes:
        parents = out._node.parents
        assert all(parent is None or parent.backward is None for parent in parents)


def test_fused_nodes_book_under_their_own_op_names():
    from repro.obs import OpProfiler, activate

    rng = np.random.default_rng(0)
    layer = Linear(3, 2, rng=0)
    prof = OpProfiler()
    with activate(prof):
        logits = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        loss = (
            L.cross_entropy(logits, [0, 1, 2, 0])
            + L.kl_divergence(rng.normal(size=(4, 3)), logits, 2.0)
            + L.mse_loss(logits, np.zeros((4, 3)))
            + L.proximal_term(layer.named_parameters(), layer.state_dict(), 0.1)
            + F.log_softmax(logits).sum()
            + F.softmax(logits).sum()
        )
        loss.backward()
    rows = {r["op"]: r for r in prof.rows()}
    elements = 12.0
    expected = {
        "cross_entropy": (5 * elements, 4 * elements),
        "kl_div": (18 * elements, 6 * elements),
        "mse": (3 * elements, elements),  # the target takes no gradient
        "prox": (3 * 8.0, 8.0),  # a 2x3 weight and a bias of 2
        "log_softmax": (5 * elements, 4 * elements),
        "softmax": (6 * elements, 5 * elements),
    }
    for op, (forward, backward) in expected.items():
        assert rows[op]["calls"] == rows[op + ".bwd"]["calls"] == 1, op
        assert rows[op]["flops"] == pytest.approx(forward), op
        assert rows[op + ".bwd"]["flops"] == pytest.approx(backward), op
    # no primitive of the old chains is left but the sums the test adds
    assert not {"exp", "log", "pow", "neg", "getitem", "div"} & set(rows)


# ----------------------------------------------------------------------
# end to end: the same weights after training
# ----------------------------------------------------------------------
def final_weights(bundle, algorithm):
    fed = make_tiny_federation(bundle)
    try:
        build_algorithm(algorithm, fed, seed=0, epoch_scale=0.1).run(2, eval_every=1)
        models = [fed.server.model] + [client.model for client in fed.clients]
        return [
            {k: v.tobytes() for k, v in model.state_dict().items()} for model in models
        ]
    finally:
        fed.close()


@pytest.mark.parametrize("algorithm", ["fedpkd", "fedprox", "fedmd"])
def test_training_with_fused_losses_matches_the_chains(tiny_bundle, monkeypatch, algorithm):
    fused = final_weights(tiny_bundle, algorithm)
    for (module, name), chain in CHAINS.items():
        monkeypatch.setattr(module, name, chain)
    chained = final_weights(tiny_bundle, algorithm)
    assert fused == chained
