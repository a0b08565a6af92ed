"""Property tests for wire serialisation and optimiser invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import (
    Adam,
    Tensor,
    deserialize_state,
    payload_num_bytes,
    serialize_state,
)

ARRAYS = hnp.arrays(
    dtype=np.float64,
    shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=5),
    elements=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, width=32),
)

STATE_DICTS = st.dictionaries(
    keys=st.text(
        alphabet=st.characters(whitelist_categories=("Ll",), max_codepoint=122),
        min_size=1,
        max_size=8,
    ),
    values=ARRAYS,
    min_size=1,
    max_size=5,
)


@st.composite
def lossless_arrays(draw):
    """Any dtype the state blob carries, 0-d and zero-size shapes
    included, optionally presented as a non-contiguous view."""
    array = draw(
        hnp.arrays(
            dtype=st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
            shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
        )
    )
    view = draw(st.sampled_from(["as-is", "transposed", "strided"]))
    if view == "transposed":
        return array.T
    if view == "strided" and array.ndim:
        return array[::2]
    return array


LOSSLESS_STATES = st.dictionaries(
    keys=st.lists(
        st.text(alphabet="abcxyz_0123", min_size=1, max_size=4),
        min_size=1,
        max_size=3,
    ).map(".".join),
    values=lossless_arrays(),
    max_size=6,
)


@given(LOSSLESS_STATES)
@settings(max_examples=60, deadline=None)
def test_serialize_roundtrip_is_bit_exact(state):
    restored, _ = deserialize_state(serialize_state(state))
    assert list(restored) == list(state)
    for key, value in state.items():
        assert restored[key].dtype == value.dtype
        assert restored[key].shape == value.shape
        # byte comparison: bit-exact even for NaN payloads and -0.0
        assert restored[key].tobytes() == value.tobytes()


@given(STATE_DICTS)
@settings(max_examples=30, deadline=None)
def test_payload_bytes_is_four_per_element(state):
    total_elements = sum(np.asarray(v).size for v in state.values())
    assert payload_num_bytes(state) == 4 * total_elements


@given(
    # |grad| must dominate Adam's eps (1e-8) for the ±lr property to hold:
    # the update is lr * g / (|g| + eps), which only approaches lr when
    # |g| >> eps.
    grad=st.floats(min_value=-1e6, max_value=1e6).filter(lambda g: abs(g) > 1e-4),
    lr=st.floats(min_value=1e-5, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_adam_first_step_magnitude_is_lr(grad, lr):
    """Bias-corrected Adam's first update is ±lr regardless of grad scale."""
    p = Tensor(np.array([0.0]), requires_grad=True)
    opt = Adam([p], lr=lr)
    p.grad = np.array([grad])
    opt.step()
    assert abs(abs(p.data[0]) - lr) < lr * 1e-3
    assert np.sign(p.data[0]) == -np.sign(grad)
