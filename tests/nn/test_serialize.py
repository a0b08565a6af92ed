"""Tests for wire-format serialisation and payload accounting."""

import numpy as np
import pytest

from repro import nn
from repro.nn import (
    WIRE_DTYPE,
    array_num_bytes,
    deserialize_state,
    payload_num_bytes,
    serialize_state,
)


class TestPayloadBytes:
    def test_array_bytes(self):
        assert array_num_bytes(np.zeros((10, 10))) == 400

    def test_none_is_free(self):
        assert payload_num_bytes(None) == 0

    def test_scalars_count_as_one_float(self):
        assert payload_num_bytes(3.14) == 4
        assert payload_num_bytes(7) == 4

    def test_nested_dict(self):
        payload = {"a": np.zeros(5), "b": {"c": np.zeros((2, 2)), "d": None}}
        assert payload_num_bytes(payload) == (5 + 4) * 4

    def test_lists_and_tuples(self):
        assert payload_num_bytes([np.zeros(2), (np.zeros(3),)]) == 20

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            payload_num_bytes("a string")

    def test_state_dict_size_matches_param_count(self):
        model = nn.build_model("mlp_small", 10, (3, 8, 8), rng=0)
        state = model.state_dict()
        assert payload_num_bytes(state) == model.num_parameters() * WIRE_DTYPE().itemsize


class TestStateSerialisation:
    def test_roundtrip(self):
        state = {
            "weight": np.random.default_rng(0).normal(size=(3, 4)),
            "bias": np.zeros(3),
        }
        restored = deserialize_state(serialize_state(state))
        assert list(restored) == ["weight", "bias"]
        np.testing.assert_array_equal(restored["weight"], state["weight"])

    def test_roundtrip_keeps_native_dtypes(self):
        # no float32 cast: the parallel runtime and the spill store rely
        # on this to stay bit-identical to a serial, unbounded run
        state = {"w": np.array([1.0 + 1e-10]), "i": np.arange(3)}
        restored = deserialize_state(serialize_state(state))
        assert restored["w"].dtype == np.float64
        assert restored["w"][0] == 1.0 + 1e-10
        assert restored["i"].dtype == state["i"].dtype

    def test_model_roundtrip_through_wire(self):
        a = nn.build_model("mlp_small", 4, (3, 6, 6), feature_dim=8, rng=0)
        b = nn.build_model("mlp_small", 4, (3, 6, 6), feature_dim=8, rng=5)
        b.load_state_dict(deserialize_state(serialize_state(a.state_dict())))
        x = np.random.default_rng(1).normal(size=(3, 3, 6, 6))
        np.testing.assert_array_equal(a.predict_logits(x), b.predict_logits(x))

    def test_blob_has_no_container_overhead(self):
        state = nn.build_model("mlp_small", 10, (3, 8, 8), rng=0).state_dict()
        blob = serialize_state(state)
        header_len = int.from_bytes(blob[4:12], "little")
        assert len(blob) == 12 + header_len + sum(v.nbytes for v in state.values())

    def test_object_arrays_are_rejected(self):
        with pytest.raises(TypeError, match="object array 'o'"):
            serialize_state({"o": np.array([None, 1], dtype=object)})


def _mlp_blob():
    return bytes(
        serialize_state(nn.build_model("mlp_small", 10, (3, 8, 8), rng=0).state_dict())
    )


class TestCorruptBlobs:
    def test_every_truncation_raises(self):
        blob = _mlp_blob()
        for cut in range(0, len(blob), 97):
            with pytest.raises(ValueError, match="state blob"):
                deserialize_state(blob[:cut])

    def test_appended_byte_raises(self):
        with pytest.raises(ValueError, match="1 trailing bytes"):
            deserialize_state(_mlp_blob() + b"\x00")

    def test_flipped_header_byte_raises(self):
        blob = bytearray(_mlp_blob())
        blob[12] ^= 0x01  # the header's opening "["
        with pytest.raises(ValueError, match="not valid JSON"):
            deserialize_state(bytes(blob))

    def test_bad_magic(self):
        blob = bytearray(_mlp_blob())
        blob[0] ^= 0xFF
        with pytest.raises(ValueError, match="bad magic"):
            deserialize_state(bytes(blob))

    def test_header_length_past_the_end(self):
        blob = bytearray(_mlp_blob())
        blob[4:12] = (len(blob)).to_bytes(8, "little")
        with pytest.raises(ValueError, match="header length past the end"):
            deserialize_state(bytes(blob))
        with pytest.raises(ValueError, match="header length past the end"):
            deserialize_state(b"RPST\x00")

    def test_array_extent_names_the_array(self):
        blob = serialize_state({"w": np.zeros(4), "b": np.zeros(2)})
        with pytest.raises(ValueError, match="array 'b' extends past the end"):
            deserialize_state(bytes(blob[:-1]))

    @pytest.mark.parametrize(
        "header",
        [
            b'{"w": 1}',
            b'[["w", "|O", [1]]]',
            b'[["w", 8, [1]]]',
            b'[["w", "<f8"]]',
            b'[["w", "<f8", [-1]]]',
        ],
    )
    def test_malformed_header_entries(self, header):
        blob = b"RPST" + len(header).to_bytes(8, "little") + header
        with pytest.raises(ValueError, match="header"):
            deserialize_state(blob)
