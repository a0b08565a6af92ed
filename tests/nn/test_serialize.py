"""Tests for wire-format serialisation and payload accounting."""

import io
import struct
import zlib

import numpy as np
import pytest

from repro import nn
from repro.nn import (
    WIRE_DTYPE,
    array_num_bytes,
    deserialize_state,
    payload_num_bytes,
    read_state_meta,
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
        restored, meta = deserialize_state(serialize_state(state))
        assert meta is None
        assert list(restored) == ["weight", "bias"]
        np.testing.assert_array_equal(restored["weight"], state["weight"])

    def test_roundtrip_keeps_native_dtypes(self):
        # no float32 cast: the parallel runtime and the spill store rely
        # on this to stay bit-identical to a serial, unbounded run
        state = {"w": np.array([1.0 + 1e-10]), "i": np.arange(3)}
        restored, _ = deserialize_state(serialize_state(state))
        assert restored["w"].dtype == np.float64
        assert restored["w"][0] == 1.0 + 1e-10
        assert restored["i"].dtype == state["i"].dtype

    def test_model_roundtrip_through_wire(self):
        a = nn.build_model("mlp_small", 4, (3, 6, 6), feature_dim=8, rng=0)
        b = nn.build_model("mlp_small", 4, (3, 6, 6), feature_dim=8, rng=5)
        state, _ = deserialize_state(serialize_state(a.state_dict()))
        b.load_state_dict(state)
        x = np.random.default_rng(1).normal(size=(3, 3, 6, 6))
        np.testing.assert_array_equal(a.predict_logits(x), b.predict_logits(x))

    def test_blob_has_no_container_overhead(self):
        state = nn.build_model("mlp_small", 10, (3, 8, 8), rng=0).state_dict()
        blob = serialize_state(state)
        header_len = int.from_bytes(blob[4:12], "little")
        assert len(blob) == 20 + header_len + sum(v.nbytes for v in state.values())

    def test_meta_roundtrips_through_the_header(self):
        meta = {"rng": {"state": 2**100, "inc": np.int64(7)}, "x": [1.5, None]}
        blob = serialize_state({"w": np.arange(3.0)}, meta=meta)
        state, restored = deserialize_state(blob)
        assert restored == {"rng": {"state": 2**100, "inc": 7}, "x": [1.5, None]}
        np.testing.assert_array_equal(state["w"], np.arange(3.0))
        assert read_state_meta(io.BytesIO(bytes(blob))) == restored

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
        blob[20] ^= 0x01  # the header's opening "{"
        with pytest.raises(ValueError, match="header CRC-32 mismatch"):
            deserialize_state(bytes(blob))
        with pytest.raises(ValueError, match="header CRC-32 mismatch"):
            read_state_meta(io.BytesIO(bytes(blob)))

    def test_flipped_data_byte_raises(self):
        blob = bytearray(_mlp_blob())
        blob[-5] ^= 0x01  # inside the last array's bytes
        with pytest.raises(ValueError, match="array data CRC-32 mismatch"):
            deserialize_state(bytes(blob))

    def test_meta_read_needs_only_the_header(self):
        blob = serialize_state({"w": np.zeros(1000)}, meta={"round": 3})
        header_end = 20 + int.from_bytes(blob[4:12], "little")
        assert read_state_meta(io.BytesIO(bytes(blob[:header_end]))) == {"round": 3}
        with pytest.raises(ValueError, match="header length past the end"):
            read_state_meta(io.BytesIO(bytes(blob[: header_end - 1])))

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
        with pytest.raises(ValueError, match="header length past the end"):
            read_state_meta(io.BytesIO(bytes(blob)))

    def test_array_extent_names_the_array(self):
        blob = serialize_state({"w": np.zeros(4), "b": np.zeros(2)})
        with pytest.raises(ValueError, match="array 'b' extends past the end"):
            deserialize_state(bytes(blob[:-1]))

    @pytest.mark.parametrize(
        "entries",
        [
            b'{"w": 1}',
            b'[["w", "|O", [1]]]',
            b'[["w", 8, [1]]]',
            b'[["w", "<f8"]]',
            b'[["w", "<f8", [-1]]]',
        ],
    )
    def test_malformed_header_entries(self, entries):
        # a well-formed prefix with matching CRCs around a bad entry list
        header = b'{"arrays": ' + entries + b"}"
        prefix = struct.pack("<4sQII", b"RPST", len(header), zlib.crc32(header), 0)
        with pytest.raises(ValueError, match="header"):
            deserialize_state(prefix + header)

    def test_header_that_is_not_an_object(self):
        header = b'[["w", "<f8", [1]]]'
        prefix = struct.pack("<4sQII", b"RPST", len(header), zlib.crc32(header), 0)
        with pytest.raises(ValueError, match="no list of array entries"):
            deserialize_state(prefix + header)
