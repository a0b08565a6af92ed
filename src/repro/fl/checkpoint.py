"""Crash-safe, versioned, exact-resume checkpointing.

The paper's headline numbers are *cumulative* (MB-to-target-accuracy, Table
I / Fig. 3), so a resumed run must be **bit-identical** to an uninterrupted
one — the same determinism contract the parallel runtime already honours.
A checkpoint therefore captures everything that carries across rounds:

- the model and RNG stream of every client the run touched (the
  registry's dirty clients; an untouched client is a pure function of its
  seeds and re-derives identically) and the (optional) server model;
- the server/algorithm RNGs and the
  :class:`~repro.fl.failures.ParticipationSampler` RNG;
- the :class:`~repro.fl.channel.CommChannel` ledgers and round marks
  (zeroing these silently corrupts every cumulative-MB result);
- the :class:`~repro.fl.metrics.RunHistory` recorded so far and the
  :class:`~repro.fl.failures.DropoutLog`;
- algorithm-specific cross-round state: the attributes an algorithm
  declares in
  :attr:`~repro.fl.simulation.FederatedAlgorithm.carried_state` (FedPKD /
  FedProto global prototypes), exported by ``extra_state()``.

A checkpoint file is one :mod:`repro.nn.serialize` state blob whose
``meta`` holds everything but the arrays.  Writes are atomic (tmp file +
fsync + ``os.replace``), so an interrupted save leaves the previous
checkpoint intact.  The blob's CRC-32s and an architecture fingerprint
(client count, model cycle, per-model parameter shapes) are checked on
load; a corrupt, truncated, outdated or mismatched file raises
:class:`CheckpointError` with a precise message before anything is
mutated.

Usage::

    save_checkpoint(algo, "run.ckpt", history=history)
    ...
    algo2 = build_algorithm("fedpkd", fresh_federation)
    done = load_checkpoint(algo2, "run.ckpt")
    history = load_history("run.ckpt")
    algo2.run(rounds=total - done, history=history)   # bit-identical tail

or let the round engine autosave via ``algo.run(..., checkpoint_every=5,
checkpoint_path="run.ckpt")`` (see docs/CHECKPOINT.md).
"""

from __future__ import annotations

import copy
import os
import time
from typing import Dict, Optional, Tuple

import numpy as np

from ..nn.serialize import deserialize_state, read_state_meta, state_chunks
from .metrics import RunHistory
from .simulation import FederatedAlgorithm

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
    "load_history",
    "read_checkpoint_meta",
]

#: Bump whenever the on-disk layout changes.  Versions 1-3 were ``.npz``
#: archives (v1 weights only, v2 full RNG/channel/history/engine state, v3
#: the bounded-registry layout that persists only *mutated* clients).
#: Version 4 is one checksummed state blob with the metadata in its
#: header, still writing every client of an unbounded registry; version 5
#: writes only the touched clients under every registry.  Only v5 loads,
#: and an ``.npz`` file is refused by name.
CHECKPOINT_FORMAT_VERSION = 5

_NPZ_MAGIC = b"PK\x03\x04"
_CLIENT_PREFIX = "client{cid}::"
_SERVER_PREFIX = "server::"
_ALGO_PREFIX = "algo::"
_ENGINE_PREFIX = "engine::"


class CheckpointError(ValueError):
    """A checkpoint file is corrupt, unversioned, or does not match the
    federation it is being loaded into."""


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _prefixed(prefix: str, state: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    return {prefix + key: value for key, value in state.items()}


def _unprefixed(arrays: Dict[str, np.ndarray], prefix: str) -> Dict[str, np.ndarray]:
    """The arrays saved under ``prefix``, with the prefix stripped."""
    return {
        key[len(prefix):]: value
        for key, value in arrays.items()
        if key.startswith(prefix)
    }


def _rng_state(rng: np.random.Generator) -> dict:
    return copy.deepcopy(rng.bit_generator.state)


def _set_rng_state(rng: np.random.Generator, state: dict) -> None:
    rng.bit_generator.state = copy.deepcopy(state)


def _model_fingerprint(model) -> Dict[str, list]:
    return {
        key: list(np.asarray(value).shape)
        for key, value in model.state_dict().items()
    }


def _fingerprint(algo: FederatedAlgorithm) -> dict:
    """Cycle-compressed fingerprint: O(distinct models), not O(population).

    ``model_cycle`` + ``num_clients`` determine every client's model name;
    parameter shapes are recorded once per distinct name (shape metadata
    is seed-independent), so validation never materialises a client.
    """
    registry = algo.federation.registry
    cycle = registry.model_cycle
    return {
        "algorithm": algo.name,
        "registry": {
            "num_clients": len(registry),
            "model_cycle": cycle,
            "params_by_model": {
                name: registry.probe_model_fingerprint(name)
                for name in sorted(set(cycle))
            },
        },
        "server": (
            _model_fingerprint(algo.server.model) if algo.server.has_model else None
        ),
    }


def _validate_server_fingerprint(saved: dict, algo: FederatedAlgorithm) -> None:
    if saved["server"] is not None and not algo.server.has_model:
        raise CheckpointError(
            "checkpoint contains a server model; federation has none"
        )
    if saved["server"] is None and algo.server.has_model:
        raise CheckpointError(
            "federation has a server model; checkpoint contains none"
        )
    if saved["server"] is not None:
        live_server = _model_fingerprint(algo.server.model)
        for key, shape in saved["server"].items():
            if key not in live_server or list(shape) != list(live_server[key]):
                raise CheckpointError(
                    f"server parameter '{key}': checkpoint shape "
                    f"{tuple(shape)} vs federation "
                    f"{tuple(live_server.get(key, ()))}"
                )


def _validate_fingerprint(meta: dict, algo: FederatedAlgorithm, path: str) -> None:
    saved = meta["fingerprint"]
    if saved["algorithm"] != algo.name:
        raise CheckpointError(
            f"checkpoint '{path}' was written by algorithm "
            f"'{saved['algorithm']}', cannot resume '{algo.name}'"
        )
    registry = algo.federation.registry
    reg = saved["registry"]
    if int(reg["num_clients"]) != len(registry):
        raise CheckpointError(
            f"checkpoint has {reg['num_clients']} clients, federation has "
            f"{len(registry)}"
        )
    cycle = [str(name) for name in reg["model_cycle"]]
    if cycle != registry.model_cycle:
        for cid in range(len(registry)):
            saved_name = cycle[cid % len(cycle)]
            if saved_name != registry.model_name(cid):
                raise CheckpointError(
                    f"client {cid}: checkpoint model '{saved_name}' vs "
                    f"federation model '{registry.model_name(cid)}'"
                )
    for name, saved_params in reg["params_by_model"].items():
        live_params = registry.probe_model_fingerprint(name)
        for key in saved_params:
            if key not in live_params or list(saved_params[key]) != list(
                live_params[key]
            ):
                raise CheckpointError(
                    f"model '{name}' parameter '{key}': checkpoint shape "
                    f"{tuple(saved_params[key])} vs federation shape "
                    f"{tuple(live_params.get(key, ()))}"
                )
    _validate_server_fingerprint(saved, algo)


def _publish_io(
    algo: FederatedAlgorithm, op: str, path: str, dur_s: float
) -> None:
    """Record one checkpoint save/load in the algorithm's observability
    sinks (no-op when observability is disabled)."""
    obs = getattr(algo, "obs", None)
    if obs is None or not obs.enabled:
        return
    size = os.path.getsize(path) if os.path.exists(path) else 0
    obs.tracer.event(
        f"checkpoint/{op}",
        scope="checkpoint",
        attrs={
            "path": path,
            "round": int(algo.round_index),
            "dur_s": dur_s,
            "bytes": size,
        },
    )
    if obs.metrics.enabled:
        obs.metrics.counter(f"checkpoint/{op}s").inc()
        obs.metrics.histogram(f"checkpoint/{op}_seconds").observe(dur_s)


# ----------------------------------------------------------------------
# save
# ----------------------------------------------------------------------
def save_checkpoint(
    algo: FederatedAlgorithm, path: str, history: Optional[RunHistory] = None
) -> None:
    """Atomically write the algorithm's full training state to ``path``.

    The file is one state blob (model/extra-state arrays, the metadata in
    its header).  Passing ``history`` persists the run records so far, so
    a resumed run reproduces the complete uninterrupted history.  The write
    goes to a temporary sibling file first and is moved into place with
    ``os.replace``; a crash mid-write leaves any previous checkpoint at
    ``path`` untouched.

    Only the clients whose state diverged from their seed derivation (the
    registry's dirty clients) are written, read from the live set or the
    spill store without re-materialising or marking anything, so a
    100k-client cohort run checkpoints in O(clients touched).  Exact-resume
    still holds: untouched clients are pure functions of their seeds and
    re-derive identically.
    """
    arrays: Dict[str, np.ndarray] = {}
    registry = algo.federation.registry
    client_rng: Dict[str, dict] = {}
    dirty = registry.dirty_ids()
    for cid in dirty:
        state, rng_state = registry.client_state(cid)
        arrays.update(_prefixed(_CLIENT_PREFIX.format(cid=cid), state))
        client_rng[str(cid)] = rng_state
    if algo.server.has_model:
        arrays.update(_prefixed(_SERVER_PREFIX, algo.server.model.state_dict()))
    arrays.update(_prefixed(_ALGO_PREFIX, algo.extra_state()))
    # round-engine pipeline state (in-flight dispatches, buffered
    # contributions, dispatch snapshots)
    engine = algo.engine
    arrays.update(_prefixed(_ENGINE_PREFIX, engine.state_arrays()))

    meta = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "round_index": int(algo.round_index),
        "num_clients": len(algo.clients),
        "fingerprint": _fingerprint(algo),
        "registry": {"dirty": dirty},
        "rng": {
            "algorithm": _rng_state(algo.rng),
            "server": _rng_state(algo.server.rng),
            "participation": algo.federation.participation.state_dict(),
            "clients": client_rng,
        },
        "channel": algo.channel.state_dict(),
        "dropout_log": algo.dropout_log.state_dict(),
        "history": history.to_dict() if history is not None else None,
        "engine": engine.state_dict(),
    }

    start = time.perf_counter()
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "wb") as f:
            f.writelines(state_chunks(arrays, meta))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
    _publish_io(algo, "save", path, time.perf_counter() - start)


# ----------------------------------------------------------------------
# load
# ----------------------------------------------------------------------
def _read(
    path: str, header_only: bool = False
) -> Tuple[Optional[Dict[str, np.ndarray]], dict]:
    """Read the checkpoint at ``path`` (only its header when
    ``header_only``, then ``arrays`` is ``None``) and check its format
    version; returns ``(arrays, meta)``.  Every way the file can be
    unreadable raises :class:`CheckpointError`; a missing one
    ``FileNotFoundError``."""
    with open(path, "rb") as f:
        if f.read(len(_NPZ_MAGIC)) == _NPZ_MAGIC:
            raise CheckpointError(
                f"'{path}' is an .npz checkpoint (format v3 or older); this "
                f"build reads only format v{CHECKPOINT_FORMAT_VERSION} — "
                "re-run to write a new checkpoint"
            )
        f.seek(0)
        try:
            if header_only:
                arrays, meta = None, read_state_meta(f)
            else:
                blob = bytearray(os.fstat(f.fileno()).st_size)
                f.readinto(blob)
                arrays, meta = deserialize_state(blob)
        except ValueError as exc:
            raise CheckpointError(
                f"'{path}' is not a readable checkpoint (corrupt or truncated "
                f"file): {exc}"
            ) from None
    version = meta.get("format_version") if isinstance(meta, dict) else None
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"'{path}' has format version {version}; this build reads only "
            f"v{CHECKPOINT_FORMAT_VERSION}"
        )
    return arrays, meta


def read_checkpoint_meta(path: str) -> dict:
    """Return a checkpoint's metadata (round, fingerprint, ...) from its
    header alone, without reading any model weights."""
    _, meta = _read(path, header_only=True)
    return meta


def load_history(path: str) -> Optional[RunHistory]:
    """Return the :class:`RunHistory` stored in a checkpoint, if any (read
    from its header alone)."""
    payload = read_checkpoint_meta(path).get("history")
    return RunHistory.from_dict(payload) if payload else None


def load_checkpoint(algo: FederatedAlgorithm, path: str) -> int:
    """Restore training state saved by :func:`save_checkpoint`.

    Validates the format version and the architecture fingerprint (client
    count, model cycle, per-model parameter shapes) *before* mutating
    anything, then restores model weights, every RNG stream, the
    communication ledgers, the dropout log, algorithm extra state and the
    round engine's pipeline.  Returns the restored round index.
    """
    start = time.perf_counter()
    arrays, meta = _read(path)
    _validate_fingerprint(meta, algo, path)

    rng_meta = meta["rng"]
    # only touched clients were saved.  Reset the registry (derived clients
    # and spilled shards from any prior activity are stale) and adopt the
    # saved states: an unbounded registry derives each saved client live;
    # a bounded one writes it straight to the spill store, so nothing is
    # materialised until a round touches it.
    registry = algo.federation.registry
    registry.reset()
    for cid in meta["registry"]["dirty"]:
        registry.restore_client_state(
            int(cid),
            _unprefixed(arrays, _CLIENT_PREFIX.format(cid=cid)),
            rng_meta["clients"][str(cid)],
        )

    if algo.server.has_model:
        algo.server.model.load_state_dict(_unprefixed(arrays, _SERVER_PREFIX))
    algo.load_extra_state(_unprefixed(arrays, _ALGO_PREFIX))

    _set_rng_state(algo.rng, rng_meta["algorithm"])
    _set_rng_state(algo.server.rng, rng_meta["server"])
    algo.federation.participation.load_state_dict(rng_meta["participation"])

    algo.channel.load_state_dict(meta["channel"])
    # the dropout log also yields each later record's runtime_dropouts (a
    # "pending" section, which older files carry, is not read)
    algo.dropout_log.load_state_dict(meta["dropout_log"])

    # round-engine state resumes only under the knobs it was written with
    # (the engine refuses a mismatch)
    try:
        algo.engine.load_state_dict(
            meta["engine"], _unprefixed(arrays, _ENGINE_PREFIX)
        )
    except ValueError as exc:
        raise CheckpointError(str(exc)) from None

    algo.round_index = int(meta["round_index"])
    _publish_io(algo, "load", path, time.perf_counter() - start)
    return algo.round_index
