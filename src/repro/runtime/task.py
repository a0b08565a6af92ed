"""Task specifications shipped between the round engine and workers.

A :class:`ClientTask` is a self-contained description of one unit of
per-client work (local training, public-set inference, ...).  It carries
the client's model state as a flat state blob produced by
:mod:`repro.nn.serialize` — live model objects are never pickled — plus
the client's RNG state, so a worker process reproduces exactly the
computation inline execution would have performed.  The worker answers
with a :class:`TaskResult` holding the method's return value and, for
mutating methods, the updated model/RNG state to fold back into the
driver's client.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

__all__ = [
    "PUBLIC_X",
    "TASK_METHODS",
    "MUTATING_METHODS",
    "ClientSpec",
    "ClientTask",
    "TaskResult",
    "TaskFailure",
]

# Sentinel kwarg value resolved worker-side to the federation's public set,
# so the (potentially large) public array is shipped once at pool start-up
# instead of once per task.  A plain string keeps it trivially picklable.
PUBLIC_X = "__repro.runtime.public_x__"

# FLClient methods the runtime may dispatch.  Whitelisting keeps the wire
# protocol auditable: a task can only invoke known, side-effect-understood
# entry points.
TASK_METHODS = frozenset(
    {
        "train_local",
        "train_public_distill",
        "logits_on",
        "compute_prototypes",
        "public_knowledge",
        "evaluate",
    }
)

# Methods that update model weights (and always consume the client RNG);
# only these need to ship state back to the driver.
MUTATING_METHODS = frozenset({"train_local", "train_public_distill"})


@dataclass
class ClientSpec:
    """Static per-client context installed in every worker at pool start.

    Holds everything needed to rebuild a structurally identical client
    (the weights are overwritten by each task's ``state_blob``).
    """

    client_id: int
    model_name: str
    num_classes: int
    image_shape: Tuple[int, ...]
    feature_dim: int
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray


@dataclass
class ClientTask:
    """One unit of per-client work, fully serialisable."""

    client_id: int
    method: str
    kwargs: Dict[str, Any] = field(default_factory=dict)
    state_blob: bytes = b""
    rng_state: Optional[dict] = None
    stage: str = ""
    # ask the worker to run its own OpProfiler around the task and ship
    # the aggregate back in TaskResult.profile (repro.obs.profile)
    profile: bool = False

    def __post_init__(self) -> None:
        if self.method not in TASK_METHODS:
            raise ValueError(
                f"method '{self.method}' is not a dispatchable client task; "
                f"choose from {sorted(TASK_METHODS)}"
            )

    @property
    def mutates(self) -> bool:
        return self.method in MUTATING_METHODS


@dataclass
class TaskResult:
    """Worker answer: the method's value plus any state to fold back."""

    client_id: int
    value: Any
    state_blob: Optional[bytes] = None
    rng_state: Optional[dict] = None
    duration_s: float = 0.0
    # worker-local OpProfiler aggregate (OpProfiler.to_payload form),
    # merged into the driver profiler by ParallelExecutor._apply_result
    profile: Optional[Dict[str, Any]] = None


@dataclass
class TaskFailure:
    """Terminal failure of one task after retries; the client misses the round."""

    client_id: int
    stage: str
    reason: str  # "timeout", the only cause a TaskFailure records
    detail: str = ""
