"""Payload size accounting and lossless state-dict blobs.

Federated-learning communication cost in the paper is measured in MB of
float32 payload (model updates, logits, prototypes).
:func:`payload_num_bytes` measures that size for arbitrary nested
payloads, which :mod:`repro.fl.channel` uses for accounting.  Arrays are
sized as float32 elements whatever dtype they hold: most payloads are
float64 (the dtype :class:`~repro.nn.tensor.Tensor` computes in), the
prototypes float32, and both meter the paper's float32 bytes.

The *state blob* is a separate, lossless flat byte format and the repo's
only container: parallel task dispatch, client-registry spill records and
checkpoint files are all one.  Layout: a 20-byte little-endian prefix
(magic ``RPST``, header length, CRC-32 of the header, CRC-32 of the array
bytes); a JSON header ``{"arrays": [[name, dtype.str, shape], ...],
"meta": ...}``, space-padded so the first array starts 8-byte aligned;
then each array's C-order bytes, back to back.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from typing import Any, BinaryIO, Dict, List, Tuple, Union

import numpy as np

__all__ = [
    "WIRE_DTYPE",
    "payload_num_bytes",
    "array_num_bytes",
    "state_chunks",
    "serialize_state",
    "deserialize_state",
    "read_state_meta",
]

# The element size every array is metered at, whatever its own dtype,
# matching the paper's MB arithmetic (e.g. its 0.511 MB figure for a
# ResNet-20-class model update).
WIRE_DTYPE = np.float32

# state blob prefix: magic, header length, header CRC-32, array-data CRC-32
_MAGIC = b"RPST"
_PREFIX = struct.Struct("<4sQII")

Payload = Union[np.ndarray, Dict[str, "Payload"], list, tuple, float, int, None]


def array_num_bytes(array: np.ndarray) -> int:
    """Wire size of one array: float32 elements, shape metadata ignored."""
    return int(np.asarray(array).size) * WIRE_DTYPE().itemsize


def payload_num_bytes(payload: Payload) -> int:
    """Recursively compute the wire size of a nested payload.

    Supported leaves are numpy arrays (``size`` float32 elements whatever
    their dtype, so a float64 or int64 array meters the same bytes as a
    float32 one of its shape) and python scalars (one float32 each);
    containers may be dicts, lists, or tuples.  ``None`` contributes zero
    bytes.
    """
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return array_num_bytes(payload)
    if isinstance(payload, bytes):
        return len(payload)
    if isinstance(payload, dict):
        return sum(payload_num_bytes(v) for v in payload.values())
    if isinstance(payload, (list, tuple)):
        return sum(payload_num_bytes(v) for v in payload)
    if isinstance(payload, (int, float, np.integer, np.floating)):
        return WIRE_DTYPE().itemsize
    # objects that know their own wire size (e.g. fl.compression tensors)
    num_bytes = getattr(payload, "num_bytes", None)
    if isinstance(num_bytes, int):
        return num_bytes
    raise TypeError(f"unsupported payload leaf of type {type(payload)!r}")




def _json_default(value: Any):
    if isinstance(value, (np.integer, np.floating, np.ndarray)):
        return value.tolist()
    raise TypeError(f"unserialisable blob metadata of type {type(value)!r}")


def state_chunks(state: Dict[str, np.ndarray], meta: Any = None) -> List:
    """Lay a state-dict (native dtypes, shapes and bits) and a JSON
    ``meta`` out as a blob: prefix plus header as one ``bytes``, then each
    array as a C-contiguous buffer.  Only a non-contiguous array is copied,
    so ``writelines``/``os.pwritev`` of the chunks writes no second copy of
    the state.  Wire-size accounting is :func:`payload_num_bytes`, not this.
    """
    arrays = []
    data_crc = 0
    for name, value in state.items():
        array = np.asarray(value)
        if array.dtype.hasobject:
            raise TypeError(f"cannot serialise object array {name!r}")
        if not array.flags.c_contiguous:
            array = array.copy()
        data_crc = zlib.crc32(array, data_crc)
        arrays.append((str(name), array))
    header = json.dumps(
        {
            "arrays": [[name, a.dtype.str, list(a.shape)] for name, a in arrays],
            "meta": meta,
        },
        separators=(",", ":"),
        default=_json_default,
    ).encode("utf-8")
    header += b" " * (-(_PREFIX.size + len(header)) % 8)
    prefix = _PREFIX.pack(_MAGIC, len(header), zlib.crc32(header), data_crc)
    return [prefix + header] + [array for _, array in arrays]


def serialize_state(state: Dict[str, np.ndarray], meta: Any = None) -> bytearray:
    """Serialise a state-dict (and optional JSON ``meta``) to one flat,
    lossless blob — :func:`state_chunks` joined."""
    return bytearray().join(state_chunks(state, meta))


def _unpack_prefix(prefix: bytes) -> Tuple[int, int, int]:
    """``(header length, header CRC, data CRC)`` of a blob's prefix."""
    if prefix[:4] != _MAGIC:
        raise ValueError("state blob: bad magic")
    if len(prefix) < _PREFIX.size:
        raise ValueError("state blob: header length past the end")
    _, header_len, header_crc, data_crc = _PREFIX.unpack_from(prefix)
    return header_len, header_crc, data_crc


def _parse_header(header: bytes, header_crc: int) -> Tuple[list, Any]:
    """Check the header's CRC, then return its ``(array entries, meta)``."""
    if zlib.crc32(header) != header_crc:
        raise ValueError("state blob: header CRC-32 mismatch")
    try:
        parsed = json.loads(header)
    except ValueError as exc:
        raise ValueError(f"state blob: header is not valid JSON ({exc})") from exc
    if not isinstance(parsed, dict) or not isinstance(parsed.get("arrays"), list):
        raise ValueError("state blob: header has no list of array entries")
    return parsed["arrays"], parsed.get("meta")


def deserialize_state(blob: bytes) -> Tuple[Dict[str, np.ndarray], Any]:
    """Inverse of :func:`serialize_state`: returns ``(state, meta)``.

    The arrays are ``np.frombuffer`` views into ``blob`` (no per-array
    copy; :meth:`~repro.nn.layers.Module.load_state_dict` copies on
    adoption).  The whole blob is validated before anything is returned:
    a bad magic, a header length or array extent past the end, a header
    that fails its CRC-32 or is not JSON listing well-formed ``[name,
    dtype, shape]`` entries, trailing bytes, and array bytes that fail
    their CRC-32 each raise a :class:`ValueError` saying which.
    """
    header_len, header_crc, data_crc = _unpack_prefix(blob)
    offset = _PREFIX.size + header_len
    if offset > len(blob):
        raise ValueError("state blob: header length past the end")
    entries, meta = _parse_header(blob[_PREFIX.size:offset], header_crc)
    data_start = offset
    state: Dict[str, np.ndarray] = {}
    for entry in entries:
        try:
            name, dtype_str, shape = entry
            if not isinstance(name, str) or not isinstance(dtype_str, str):
                raise TypeError("name and dtype must be strings")
            dtype, shape = np.dtype(dtype_str), tuple(int(n) for n in shape)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"state blob: malformed header entry {entry!r}") from exc
        if name in state or dtype.hasobject or min(shape, default=0) < 0:
            raise ValueError(f"state blob: malformed header entry {entry!r}")
        count = math.prod(shape)
        end = offset + count * dtype.itemsize
        if end > len(blob):
            raise ValueError(f"state blob: array {name!r} extends past the end")
        state[name] = np.frombuffer(
            blob, dtype=dtype, count=count, offset=offset
        ).reshape(shape)
        offset = end
    if offset != len(blob):
        raise ValueError(f"state blob: {len(blob) - offset} trailing bytes")
    if zlib.crc32(memoryview(blob)[data_start:]) != data_crc:
        raise ValueError("state blob: array data CRC-32 mismatch")
    return state, meta


def read_state_meta(f: BinaryIO) -> Any:
    """Return the ``meta`` of the blob that fills the open, seekable
    binary file ``f`` from its current position, reading only the prefix
    and the CRC-checked header; errors are :func:`deserialize_state`'s.
    """
    header_len, header_crc, _ = _unpack_prefix(f.read(_PREFIX.size))
    header_start = f.tell()
    if header_len > f.seek(0, os.SEEK_END) - header_start:
        raise ValueError("state blob: header length past the end")
    f.seek(header_start)
    _, meta = _parse_header(f.read(header_len), header_crc)
    return meta
