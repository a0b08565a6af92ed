"""Crash-safe, versioned, exact-resume checkpointing.

The paper's headline numbers are *cumulative* (MB-to-target-accuracy, Table
I / Fig. 3), so a resumed run must be **bit-identical** to an uninterrupted
one — the same determinism contract the parallel runtime already honours.
A checkpoint therefore captures everything that carries across rounds:

- every client model and the (optional) server model;
- per-client RNG streams, the server/algorithm RNGs, and the
  :class:`~repro.fl.failures.ParticipationSampler` RNG;
- the :class:`~repro.fl.channel.CommChannel` ledgers and round marks
  (zeroing these silently corrupts every cumulative-MB result);
- the :class:`~repro.fl.metrics.RunHistory` recorded so far and the
  :class:`~repro.fl.failures.DropoutLog`;
- algorithm-specific cross-round state via the
  :meth:`~repro.fl.simulation.FederatedAlgorithm.extra_state` hook
  (FedPKD / FedProto global prototypes, ...).

Writes are atomic (tmp file + ``os.replace``), so an interrupted save
leaves the previous checkpoint intact.  Files carry a format version and a
config/architecture fingerprint (per-client parameter keys and shapes)
validated on load; a corrupt, truncated, or mismatched file raises
:class:`CheckpointError` with a precise message, never a numpy traceback.

Usage::

    save_checkpoint(algo, "run.ckpt.npz", history=history)
    ...
    algo2 = build_algorithm("fedpkd", fresh_federation)
    done = load_checkpoint(algo2, "run.ckpt.npz")
    history = load_history("run.ckpt.npz")
    algo2.run(rounds=total - done, history=history)   # bit-identical tail

or let the round engine autosave via ``algo.run(..., checkpoint_every=5,
checkpoint_path="run.ckpt.npz")`` (see docs/CHECKPOINT.md).
"""

from __future__ import annotations

import copy
import json
import os
import time
from typing import Any, Dict, Optional

import numpy as np

from .metrics import RunHistory
from .simulation import FederatedAlgorithm

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
    "load_history",
    "read_checkpoint_meta",
    "algorithm_state",
    "load_algorithm_state",
]

#: Bump whenever the on-disk layout changes.  Version 1 was the legacy
#: weights-only format (no RNG/channel/history state); it is refused on
#: load because resuming from it would violate the exact-resume contract.
#: Version 2 added full RNG/channel/history/engine state.  Version 3 adds
#: the bounded-registry layout: federations running a bounded
#: :class:`~repro.fl.registry.ClientRegistry` persist only the *mutated*
#: clients (plus a cycle-compressed fingerprint), keeping checkpoints
#: O(clients touched), not O(population); v2 files still load.
CHECKPOINT_FORMAT_VERSION = 3

_META_VERSION = "__meta__format_version"
_META_JSON = "__meta__json"
_CLIENT_PREFIX = "client{cid}::"
_SERVER_PREFIX = "server::"
_ALGO_PREFIX = "algo::"
_ENGINE_PREFIX = "engine::"


class CheckpointError(ValueError):
    """A checkpoint file is corrupt, unversioned, or does not match the
    federation it is being loaded into."""


# ----------------------------------------------------------------------
# algorithm-specific state (delegates to the per-algorithm hook)
# ----------------------------------------------------------------------
def algorithm_state(algo: FederatedAlgorithm) -> Dict[str, np.ndarray]:
    """Arrays the algorithm carries across rounds (its ``extra_state``)."""
    return {key: np.asarray(value) for key, value in algo.extra_state().items()}


def load_algorithm_state(
    algo: FederatedAlgorithm, state: Dict[str, np.ndarray]
) -> None:
    """Inverse of :func:`algorithm_state`."""
    algo.load_extra_state(state)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _json_default(value: Any):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"unserialisable checkpoint metadata of type {type(value)!r}")


def _rng_state(rng: np.random.Generator) -> dict:
    return copy.deepcopy(rng.bit_generator.state)


def _set_rng_state(rng: np.random.Generator, state: dict) -> None:
    rng.bit_generator.state = copy.deepcopy(state)


def _model_fingerprint(model) -> Dict[str, list]:
    return {
        key: list(np.asarray(value).shape)
        for key, value in model.state_dict().items()
    }


def _bounded_registry(algo: FederatedAlgorithm):
    """The federation's ClientRegistry when it is bounded, else ``None``.

    Unbounded registries (``max_live_clients=None``, the degenerate mode)
    keep the historical full-population checkpoint layout — every client
    is materialised anyway, and the small-cohort format/validation
    behaviour stays byte-for-byte what it always was.
    """
    registry = getattr(algo.federation, "registry", None)
    if registry is not None and registry.bounded:
        return registry
    return None


def _fingerprint(algo: FederatedAlgorithm) -> dict:
    return {
        "algorithm": algo.name,
        "clients": {
            str(client.client_id): {
                "model_name": client.model_name,
                "params": _model_fingerprint(client.model),
            }
            for client in algo.clients
        },
        "server": (
            _model_fingerprint(algo.server.model) if algo.server.has_model else None
        ),
    }


def _registry_fingerprint(algo: FederatedAlgorithm, registry) -> dict:
    """Cycle-compressed fingerprint: O(distinct models), not O(population).

    ``model_cycle`` + ``num_clients`` determine every client's model name;
    parameter shapes are recorded once per distinct name (shape metadata
    is seed-independent), so validation never materialises a client.
    """
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


def _validate_registry_fingerprint(
    saved: dict, algo: FederatedAlgorithm, path: str
) -> None:
    registry = getattr(algo.federation, "registry", None)
    if registry is None:
        raise CheckpointError(
            f"checkpoint '{path}' was written by a bounded client registry "
            "(compact layout); load it into a federation built with "
            "build_federation, not a hand-assembled client list"
        )
    reg = saved["registry"]
    if int(reg["num_clients"]) != len(registry):
        raise CheckpointError(
            f"checkpoint has {reg['num_clients']} clients, federation has "
            f"{len(registry)}"
        )
    if [str(n) for n in reg["model_cycle"]] != registry.model_cycle:
        raise CheckpointError(
            f"checkpoint model cycle {reg['model_cycle']} does not match "
            f"the federation's {registry.model_cycle}"
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


def _validate_fingerprint(meta: dict, algo: FederatedAlgorithm, path: str) -> None:
    saved = meta["fingerprint"]
    if saved["algorithm"] != algo.name:
        raise CheckpointError(
            f"checkpoint '{path}' was written by algorithm "
            f"'{saved['algorithm']}', cannot resume '{algo.name}'"
        )
    if "registry" in saved:
        _validate_registry_fingerprint(saved, algo, path)
        return
    saved_clients = saved["clients"]
    if len(saved_clients) != len(algo.clients):
        raise CheckpointError(
            f"checkpoint has {len(saved_clients)} clients, federation has "
            f"{len(algo.clients)}"
        )
    for client in algo.clients:
        cid = str(client.client_id)
        if cid not in saved_clients:
            raise CheckpointError(
                f"checkpoint has no state for client {client.client_id}"
            )
        saved_params = saved_clients[cid]["params"]
        live_params = _model_fingerprint(client.model)
        saved_name = saved_clients[cid].get("model_name")
        hint = (
            f" (checkpoint model '{saved_name}', federation model "
            f"'{client.model_name}')"
            if saved_name != client.model_name
            else ""
        )
        for key in saved_params:
            if key not in live_params:
                raise CheckpointError(
                    f"client {client.client_id}: checkpoint parameter '{key}' "
                    f"missing from the federation's model{hint}"
                )
            if list(saved_params[key]) != list(live_params[key]):
                raise CheckpointError(
                    f"client {client.client_id} parameter '{key}': checkpoint "
                    f"shape {tuple(saved_params[key])} vs federation shape "
                    f"{tuple(live_params[key])}{hint}"
                )
        for key in live_params:
            if key not in saved_params:
                raise CheckpointError(
                    f"client {client.client_id}: federation parameter '{key}' "
                    f"missing from the checkpoint{hint}"
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

    The file is an ``.npz`` archive (model/extra-state arrays plus one JSON
    metadata blob).  Passing ``history`` persists the run records so far, so
    a resumed run reproduces the complete uninterrupted history.  The write
    goes to a temporary sibling file first and is moved into place with
    ``os.replace``; a crash mid-write leaves any previous checkpoint at
    ``path`` untouched.

    Under a *bounded* client registry (``max_live_clients``), only the
    clients whose state diverged from their seed derivation are written
    (read from the live set or the spill store — no re-materialisation),
    so a 100k-client cohort run checkpoints in O(clients touched).
    Exact-resume still holds: untouched clients are pure functions of
    their seeds and re-derive identically.
    """
    arrays: Dict[str, np.ndarray] = {}
    registry = _bounded_registry(algo)
    client_rng: Dict[str, dict] = {}
    registry_meta = None
    if registry is not None:
        dirty = registry.dirty_ids()
        for cid in dirty:
            state, rng_state = registry.client_state(cid)
            prefix = _CLIENT_PREFIX.format(cid=cid)
            for key, value in state.items():
                arrays[prefix + key] = np.asarray(value)
            client_rng[str(cid)] = rng_state
        registry_meta = {"dirty": dirty}
        fingerprint = _registry_fingerprint(algo, registry)
    else:
        for client in algo.clients:
            prefix = _CLIENT_PREFIX.format(cid=client.client_id)
            for key, value in client.model.state_dict().items():
                arrays[prefix + key] = np.asarray(value)
            client_rng[str(client.client_id)] = client.rng_state()
        fingerprint = _fingerprint(algo)
    if algo.server.has_model:
        for key, value in algo.server.model.state_dict().items():
            arrays[_SERVER_PREFIX + key] = np.asarray(value)
    for key, value in algorithm_state(algo).items():
        arrays[_ALGO_PREFIX + key] = value
    # round-engine pipeline state (in-flight dispatches, buffered
    # contributions, dispatch snapshots)
    engine = algo.engine
    for key, value in engine.state_arrays().items():
        arrays[_ENGINE_PREFIX + key] = np.asarray(value)

    meta = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "round_index": int(algo.round_index),
        "num_clients": len(algo.clients),
        "fingerprint": fingerprint,
        "registry": registry_meta,
        "rng": {
            "algorithm": _rng_state(algo.rng),
            "server": _rng_state(algo.server.rng),
            "participation": algo.federation.participation.state_dict(),
            "clients": client_rng,
        },
        "channel": algo.channel.state_dict(),
        "dropout_log": algo.dropout_log.state_dict(),
        "history": history.to_dict() if history is not None else None,
        # partially accumulated record extras (stage times / wall time /
        # dropouts since the last RoundRecord) — without this, a save that
        # lands between eval_every boundaries silently drops them on resume
        "pending": algo.pending_state(),
        "engine": engine.state_dict(),
    }
    blob = json.dumps(meta, default=_json_default).encode("utf-8")
    arrays[_META_JSON] = np.frombuffer(blob, dtype=np.uint8)
    arrays[_META_VERSION] = np.array(CHECKPOINT_FORMAT_VERSION, dtype=np.int64)

    start = time.perf_counter()
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "wb") as f:
            np.savez(f, **arrays)
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
def _read_archive(path: str):
    """Read and sanity-check a checkpoint; returns ``(arrays, meta)``."""
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    try:
        with np.load(path) as archive:
            arrays = {k: archive[k] for k in archive.files}
    except Exception as exc:
        raise CheckpointError(
            f"'{path}' is not a readable checkpoint (corrupt or truncated "
            f"file): {exc}"
        ) from None
    if _META_VERSION not in arrays or _META_JSON not in arrays:
        raise CheckpointError(
            f"'{path}' carries no format version — it is not a checkpoint "
            f"written by this format (>= v{CHECKPOINT_FORMAT_VERSION}); "
            "legacy weights-only files cannot be resumed exactly"
        )
    version = int(arrays[_META_VERSION])
    if version > CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"'{path}' has format version {version}; this build reads up to "
            f"v{CHECKPOINT_FORMAT_VERSION}"
        )
    try:
        meta = json.loads(arrays[_META_JSON].tobytes().decode("utf-8"))
    except Exception as exc:
        raise CheckpointError(
            f"'{path}' has an unreadable metadata block: {exc}"
        ) from None
    return arrays, meta


def read_checkpoint_meta(path: str) -> dict:
    """Return a checkpoint's metadata (round, fingerprint, ...) without
    touching any model weights."""
    _, meta = _read_archive(path)
    return meta


def load_history(path: str) -> Optional[RunHistory]:
    """Return the :class:`RunHistory` stored in a checkpoint, if any."""
    _, meta = _read_archive(path)
    payload = meta.get("history")
    return RunHistory.from_dict(payload) if payload else None


def load_checkpoint(algo: FederatedAlgorithm, path: str) -> int:
    """Restore training state saved by :func:`save_checkpoint`.

    Validates the format version and the architecture fingerprint (client
    count, per-client parameter keys and shapes) *before* mutating anything,
    then restores model weights, every RNG stream, the communication
    ledgers, the dropout log, and algorithm extra state.  Returns the
    restored round index.
    """
    start = time.perf_counter()
    arrays, meta = _read_archive(path)
    _validate_fingerprint(meta, algo, path)

    rng_meta = meta["rng"]
    registry_meta = meta.get("registry")
    if registry_meta is not None:
        # compact bounded-registry layout: only mutated clients were saved.
        # Reset the registry (derived clients and spilled shards from any
        # prior activity are stale) and adopt the saved states — applied
        # in place when live, written straight to the spill store when
        # not, so nothing is materialised that was not already.
        registry = algo.federation.registry
        registry.reset()
        for cid in registry_meta["dirty"]:
            prefix = _CLIENT_PREFIX.format(cid=cid)
            state = {
                key[len(prefix):]: value
                for key, value in arrays.items()
                if key.startswith(prefix)
            }
            registry.restore_client_state(
                int(cid), state, rng_meta["clients"][str(cid)]
            )
    else:
        for client in algo.clients:
            prefix = _CLIENT_PREFIX.format(cid=client.client_id)
            state = {
                key[len(prefix):]: value
                for key, value in arrays.items()
                if key.startswith(prefix)
            }
            client.model.load_state_dict(state)

    if algo.server.has_model:
        server_state = {
            key[len(_SERVER_PREFIX):]: value
            for key, value in arrays.items()
            if key.startswith(_SERVER_PREFIX)
        }
        algo.server.model.load_state_dict(server_state)

    algo_state = {
        key[len(_ALGO_PREFIX):]: value
        for key, value in arrays.items()
        if key.startswith(_ALGO_PREFIX)
    }
    load_algorithm_state(algo, algo_state)

    _set_rng_state(algo.rng, rng_meta["algorithm"])
    _set_rng_state(algo.server.rng, rng_meta["server"])
    algo.federation.participation.load_state_dict(rng_meta["participation"])
    if registry_meta is None:
        for client in algo.clients:
            client.set_rng_state(rng_meta["clients"][str(client.client_id)])

    algo.channel.load_state_dict(meta["channel"])
    algo.dropout_log.load_state_dict(meta["dropout_log"])
    algo.load_pending_state(meta.get("pending"))

    # round-engine state resumes only under the knobs it was written with
    # (the engine refuses a mismatch).  A checkpoint without engine state
    # was taken at a round barrier with nothing in flight, so it resumes
    # exactly under any knobs.
    engine = algo.engine
    engine_meta = meta.get("engine")
    if engine_meta is not None:
        engine_arrays = {
            key[len(_ENGINE_PREFIX):]: value
            for key, value in arrays.items()
            if key.startswith(_ENGINE_PREFIX)
        }
        try:
            engine.load_state_dict(engine_meta, engine_arrays)
        except ValueError as exc:
            raise CheckpointError(str(exc)) from None
    else:
        engine.align_to(int(meta["round_index"]))

    algo.round_index = int(meta["round_index"])
    _publish_io(algo, "load", path, time.perf_counter() - start)
    return algo.round_index
