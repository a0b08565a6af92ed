"""Worker-process side of the parallel runtime.

Each worker keeps a per-client cache of rebuilt :class:`~repro.fl.client.
FLClient` objects (model topology + row views of the bundle, installed
once at pool start-up via :func:`init_worker`).  Every incoming
:class:`ClientTask` overwrites the cached client's weights and RNG from
the task payload, runs the requested method, and ships back the value
plus (for mutating methods) the updated state — so a task is a pure
function of its payload and the static spec, regardless of which worker
runs it or in what order.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

import numpy as np

from ..nn.serialize import deserialize_state, serialize_state
from .task import PUBLIC_X, ClientSpec, ClientTask, TaskResult

__all__ = ["init_worker", "run_task", "FAULT_HOOK"]

# Test-only fault-injection hook.  Assign a callable taking the ClientTask
# in the *parent* process before the pool is created (workers inherit it
# through fork); it runs before every task and may sleep, raise, or kill
# the process to exercise the executor's fault tolerance.
FAULT_HOOK: Optional[Callable[[ClientTask], None]] = None

_SPECS: Dict[int, ClientSpec] = {}
_SHARED: Dict[str, np.ndarray] = {}
_CLIENTS: Dict[int, object] = {}


def init_worker(specs: Dict[int, ClientSpec], shared: Dict[str, np.ndarray]) -> None:
    """Pool initializer: install the static per-client and shared context."""
    _SPECS.clear()
    _SPECS.update(specs)
    _SHARED.clear()
    _SHARED.update(shared)
    _CLIENTS.clear()


def _client_for(client_id: int):
    """Rebuild (and cache) the worker-local client for ``client_id``."""
    client = _CLIENTS.get(client_id)
    if client is not None:
        return client
    spec = _SPECS.get(client_id)
    if spec is None:
        raise KeyError(f"worker has no spec for client {client_id}")
    # imported lazily to keep worker start-up (and the fl<->runtime import
    # graph) light
    from ..data.rows import Rows
    from ..fl.client import FLClient
    from ..nn.models import build_model

    model = build_model(
        spec.model_name,
        spec.num_classes,
        tuple(spec.image_shape),
        feature_dim=spec.feature_dim,
        rng=0,  # placeholder weights; every task ships the real state
    )
    x, y = _SHARED["train_x"], _SHARED["train_y"]
    client = FLClient(
        client_id=spec.client_id,
        model=model,
        x_train=Rows(x, spec.train_index),
        y_train=y[spec.train_index],
        x_test=Rows(x, spec.test_index),
        y_test=y[spec.test_index],
        num_classes=spec.num_classes,
    )
    _CLIENTS[client_id] = client
    return client


def resolve_kwargs(kwargs: dict, shared: Dict[str, np.ndarray]) -> dict:
    """Replace shared-data sentinels (e.g. :data:`PUBLIC_X`) with arrays."""
    resolved = {}
    for key, value in kwargs.items():
        if isinstance(value, str) and value == PUBLIC_X:
            value = shared["public_x"]
        resolved[key] = value
    return resolved


def run_task(task: ClientTask) -> TaskResult:
    """Execute one task against the worker's cached client.

    With ``task.profile`` set, the method runs under a worker-local
    :class:`~repro.obs.profile.OpProfiler` (attributed to the task's
    stage and the client's model) whose aggregate ships back in
    ``TaskResult.profile`` for the driver to merge — per-op attribution
    survives process-pool dispatch.
    """
    if FAULT_HOOK is not None:
        FAULT_HOOK(task)
    start = time.perf_counter()
    client = _client_for(task.client_id)
    if task.state_blob:
        state, _ = deserialize_state(task.state_blob)
        client.model.load_state_dict(state)
    if task.rng_state is not None:
        client.rng.bit_generator.state = task.rng_state
    kwargs = resolve_kwargs(task.kwargs, _SHARED)
    profile_payload = None
    if task.profile:
        from ..obs.profile import OpProfiler, activate

        profiler = OpProfiler()
        spec = _SPECS.get(task.client_id)
        model_name = spec.model_name if spec is not None else None
        with activate(profiler), profiler.stage(
            task.stage or task.method
        ), profiler.model(model_name):
            value = getattr(client, task.method)(**kwargs)
        profile_payload = profiler.to_payload()
    else:
        value = getattr(client, task.method)(**kwargs)
    state_blob = (
        serialize_state(client.model.state_dict())
        if task.mutates
        else None
    )
    return TaskResult(
        client_id=task.client_id,
        value=value,
        state_blob=state_blob,
        rng_state=client.rng.bit_generator.state,
        duration_s=time.perf_counter() - start,
        profile=profile_payload,
    )
