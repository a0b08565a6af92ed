"""Payload size accounting and lossless state-dict blobs.

Federated-learning communication cost in the paper is measured in MB of
float32 payload (model updates, logits, prototypes).
:func:`payload_num_bytes` measures that size for arbitrary nested
payloads, which :mod:`repro.fl.channel` uses for accounting.
:func:`serialize_state`/:func:`deserialize_state` are a separate, lossless
flat byte format for moving model state between processes and to disk.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Union

import numpy as np

__all__ = [
    "WIRE_DTYPE",
    "payload_num_bytes",
    "array_num_bytes",
    "serialize_state",
    "deserialize_state",
]

# Everything on the wire is float32, matching the paper's MB arithmetic
# (e.g. its 0.511 MB figure for a ResNet-20-class model update).
WIRE_DTYPE = np.float32

# serialize_state blob prefix: magic + little-endian header length
_MAGIC = b"RPST"
_PREFIX_LEN = 12

Payload = Union[np.ndarray, Dict[str, "Payload"], list, tuple, float, int, None]


def array_num_bytes(array: np.ndarray) -> int:
    """Wire size of one array: float32 elements, shape metadata ignored."""
    return int(np.asarray(array).size) * WIRE_DTYPE().itemsize


def payload_num_bytes(payload: Payload) -> int:
    """Recursively compute the wire size of a nested payload.

    Supported leaves are numpy arrays and python scalars (counted as one
    float32 each); containers may be dicts, lists, or tuples.  ``None``
    contributes zero bytes.
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


def serialize_state(state: Dict[str, np.ndarray]) -> bytearray:
    """Serialise a state-dict to one flat, lossless blob.

    Layout: the 4-byte :data:`_MAGIC`, an 8-byte little-endian header
    length, a UTF-8 JSON header listing ``[name, dtype.str, shape]`` per
    array in insertion order (space-padded so the first array starts
    8-byte aligned), then each array's C-order bytes back to back.  Every
    array keeps its native dtype, shape and bits — the parallel runtime
    ships model state between processes with this, and the client
    registry spills evicted clients with it.  Wire-size accounting is
    :func:`payload_num_bytes`, not this.
    """
    arrays = [(str(name), np.asarray(value)) for name, value in state.items()]
    for name, array in arrays:
        if array.dtype.hasobject:
            raise TypeError(f"cannot serialise object array {name!r}")
    header = json.dumps(
        [[name, a.dtype.str, list(a.shape)] for name, a in arrays],
        separators=(",", ":"),
    ).encode("utf-8")
    header += b" " * (-(_PREFIX_LEN + len(header)) % 8)
    offset = _PREFIX_LEN + len(header)
    blob = bytearray(offset + sum(a.nbytes for _, a in arrays))
    blob[:offset] = _MAGIC + len(header).to_bytes(8, "little") + header
    for _, array in arrays:
        slot = np.ndarray(array.shape, array.dtype, buffer=blob, offset=offset)
        slot[...] = array
        offset += array.nbytes
    return blob


def deserialize_state(blob: bytes) -> Dict[str, np.ndarray]:
    """Inverse of :func:`serialize_state`.

    Returns ``np.frombuffer`` views into ``blob`` (no per-array copy;
    :meth:`~repro.nn.layers.Module.load_state_dict` copies on adoption).
    The whole blob is validated before anything is returned: a bad magic,
    a header length or array extent past the end, a header that is not
    valid JSON (or not a list of ``[name, dtype, shape]`` entries), and
    trailing bytes each raise a :class:`ValueError` saying which.
    """
    if blob[:4] != _MAGIC:
        raise ValueError("state blob: bad magic")
    offset = _PREFIX_LEN + int.from_bytes(blob[4:_PREFIX_LEN], "little")
    if offset > len(blob):
        raise ValueError("state blob: header length past the end")
    try:
        entries = json.loads(blob[_PREFIX_LEN:offset])
    except ValueError as exc:
        raise ValueError(f"state blob: header is not valid JSON ({exc})") from exc
    if not isinstance(entries, list):
        raise ValueError("state blob: header is not a list of entries")
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
    return state
