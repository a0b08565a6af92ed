"""Configuration dataclasses shared by all FL algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "TrainingConfig",
    "FederationConfig",
    "RunKnobs",
    "RUN_KNOBS",
    "knob",
    "field_roles",
]


@dataclass
class TrainingConfig:
    """Hyper-parameters of one training phase (paper Sec. V-A defaults).

    ``optimizer`` is ``"adam"`` (the paper's choice) or ``"sgd"``.
    """

    epochs: int = 1
    batch_size: int = 32
    lr: float = 1e-3
    optimizer: str = "adam"
    momentum: float = 0.9
    weight_decay: float = 0.0
    max_grad_norm: Optional[float] = None

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer '{self.optimizer}'")


#: How the sweep run key treats a field (see docs/SWEEP.md): ``key`` fields
#: change the recorded history and are hashed; ``runtime`` fields are
#: execution detail the equivalence tests prove bit-neutral, so cached
#: results are shared across them; ``managed`` fields are artifact
#: destinations owned by the scheduler and rejected in a spec.
ROLES = ("key", "runtime", "managed")


def knob(default, role, help=None, *, flag=None, choices=None):
    """Declare one dataclass field together with its run-key role.

    ``help`` is the one description of the knob (the ``repro run`` flag
    shows it), ``flag`` its CLI spelling where that is not
    ``--<name-with-dashes>``, ``choices`` the values it accepts.
    """
    return field(
        default=default,
        metadata={"role": role, "help": help, "flag": flag, "choices": choices},
    )


def field_roles(cls) -> Dict[str, str]:
    """``{field name: role}`` of a dataclass whose fields all declare one."""
    roles = {f.name: f.metadata.get("role") for f in fields(cls)}
    missing = [name for name, role in roles.items() if role not in ROLES]
    if missing:
        raise TypeError(
            f"{cls.__name__} fields {missing} declare no run-key role; "
            f"declare them with knob(default, role), role one of {ROLES}"
        )
    return roles


@dataclass(kw_only=True)
class RunKnobs:
    """The pass-through run knobs, each declared exactly once.

    :class:`FederationConfig` and ``ExperimentSetting`` inherit these
    fields, ``federation_for`` forwards them, ``repro run`` builds one flag
    per field, and the sweep run key hashes the ``key`` ones — so adding a
    knob is adding one line here (docs/DEVELOPMENT.md).  Fields are
    keyword-only and grouped by role.  A knob named ``*_path`` is an
    artifact destination: a relative value resolves under
    ``ExperimentSetting.out_dir``.
    """

    # -- key: round engine (repro.fl.async_engine, docs/ASYNC.md) and cohort
    # sampling (docs/SCALE.md); the async knobs are ignored under "sync"
    engine: str = knob(
        "sync", "key",
        "round engine: 'sync' (the full barrier: every sampled client "
        "finishes before the server updates) or 'async' (event-driven "
        "buffered aggregation with staleness discounts, set by the knobs "
        "below; with their defaults it is the full barrier)",
        choices=("sync", "async"),
    )
    max_staleness: int = knob(
        0, "key",
        "async: discard (and count) contributions more than this many "
        "server versions old at arrival",
    )
    staleness_alpha: float = knob(
        0.5, "key",
        "async: staleness discount base in (0, 1] — a contribution s "
        "versions old is folded in with weight alpha**s",
    )
    buffer_size: Optional[int] = knob(
        None, "key",
        "async: aggregate as soon as this many contributions have arrived "
        "(default: wait for every in-flight dispatch — the sync-equivalent "
        "degenerate mode)",
    )
    fault_plan: Optional[Union[str, Dict, object]] = knob(
        None, "key",
        "async: deterministic chaos schedule (stragglers, crashes, flaky "
        "clients, churn) as a JSON file; the library also takes an inline "
        "dict or a repro.fl.failures.FaultPlan",
    )
    clients_per_round: Optional[int] = knob(
        None, "key",
        "sample this many clients as the round's cohort, before dropout, "
        "instead of the paper's full participation",
    )
    eval_clients: Optional[int] = knob(
        None, "key",
        "evaluate C_acc on a seeded per-evaluation sample of this many "
        "clients instead of the whole population",
    )

    # -- runtime: histories are bit-identical across all of these
    executor: str = knob(
        "serial", "runtime",
        "client-execution runtime: 'serial' (inline) or 'parallel' (a "
        "process pool; see repro.runtime)",
        choices=("serial", "parallel"),
    )
    max_workers: Optional[int] = knob(
        None, "runtime",
        "worker processes of the parallel executor (default: "
        "min(clients, cores))",
    )
    task_timeout_s: Optional[float] = knob(
        None, "runtime",
        "per-task result deadline under the parallel executor; a client "
        "that exhausts its retries is a runtime dropout for the round",
    )
    max_live_clients: Optional[int] = knob(
        None, "runtime",
        "carry at most this many materialised clients across rounds; the "
        "rest are lazy registry entries with mutated state spilled to disk "
        "(repro.fl.registry; default: never evict). Incompatible with the "
        "parallel executor, whose pool materialises every client",
    )
    profile: bool = knob(
        False, "runtime",
        "enable the op-level substrate profiler (repro.obs.profile): per-op "
        "wall time, FLOPs and bytes as profile/* metrics and 'profile' "
        "trace events for `repro trace summarize`; never perturbs numerics",
    )

    # -- managed: artifacts (docs/CHECKPOINT.md, docs/OBSERVABILITY.md)
    checkpoint_path: Optional[str] = knob(
        None, "managed",
        "autosave exact-resume checkpoints to this file (atomic writes)",
        flag="--checkpoint",
    )
    checkpoint_every: int = knob(
        0, "managed",
        "autosave cadence in rounds, 0 = off (the final round always saves); "
        "needs a checkpoint path — `repro run` uses 1 once --checkpoint is "
        "given",
    )
    trace_path: Optional[str] = knob(
        None, "managed",
        "write the structured JSONL event trace of the run here (schema in "
        "docs/OBSERVABILITY.md)",
        flag="--trace",
    )
    metrics_path: Optional[str] = knob(
        None, "managed",
        "export the metrics registry to this .jsonl/.json/.csv file; this "
        "or a trace path also merges the metrics snapshot into each "
        "RoundRecord.extras",
        flag="--metrics-out",
    )

    def __post_init__(self) -> None:
        for f in RUN_KNOBS:
            choices = f.metadata["choices"]
            if choices and getattr(self, f.name) not in choices:
                raise ValueError(f"unknown {f.name} '{getattr(self, f.name)}'")
        if self.max_live_clients is not None and self.max_live_clients < 1:
            raise ValueError(
                f"max_live_clients must be >= 1, got {self.max_live_clients}"
            )
        if self.eval_clients is not None and self.eval_clients < 1:
            raise ValueError(
                f"eval_clients must be >= 1, got {self.eval_clients}"
            )
        if self.max_live_clients is not None and self.executor == "parallel":
            raise ValueError(
                "max_live_clients is incompatible with executor='parallel': "
                "the worker pool materialises every client at startup, "
                "defeating the bounded registry"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {self.max_workers}")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ValueError("task_timeout_s must be positive")
        if self.max_staleness < 0:
            raise ValueError("max_staleness must be >= 0")
        if not 0.0 < self.staleness_alpha <= 1.0:
            raise ValueError(
                f"staleness_alpha must be in (0, 1], got {self.staleness_alpha}"
            )
        if self.buffer_size is not None and self.buffer_size < 1:
            raise ValueError(f"buffer_size must be >= 1, got {self.buffer_size}")
        if self.checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.checkpoint_every > 0 and not self.checkpoint_path:
            raise ValueError("checkpoint_every requires a checkpoint_path")
        if self.metrics_path and not self.metrics_path.endswith(
            (".jsonl", ".json", ".csv")
        ):
            raise ValueError(
                f"metrics_path '{self.metrics_path}' must end in .jsonl, "
                ".json or .csv"
            )


field_roles(RunKnobs)  # a knob declared without a role fails right here
#: The knob fields, in declaration order — what every other layer iterates.
RUN_KNOBS = fields(RunKnobs)


@dataclass
class FederationConfig(RunKnobs):
    """Describes how to build the federation for an experiment.

    The run knobs (executor, engine, cohort, checkpoint, observability) are
    inherited from :class:`RunKnobs`, where each carries its description.

    Attributes
    ----------
    num_clients:
        Number of participating clients (the paper's :math:`C`).
    partition:
        ``("iid", {})``, ``("dirichlet", {"alpha": 0.5})`` or
        ``("shards", {"classes_per_client": 3, "shard_size": 20})``.
    client_models:
        One registry name for homogeneous settings, or a list cycled across
        clients for heterogeneous settings (paper: ResNet-11/20/29).
    server_model:
        Registry name for the server model, or ``None`` for algorithms
        without one (FedMD, DS-FL).
    feature_dim:
        Shared prototype dimensionality.
    local_test_fraction:
        Fraction of each client's local data carved out as its personal
        test set (drives the ``C_acc`` metric).
    dropout_prob:
        Per-round probability that a client is unavailable (failure
        injection; 0 reproduces the paper's full-participation setting).
    spill_dir:
        Directory for the registry's spill store (``None`` = a private
        temporary directory removed on ``Federation.close()``).
    task_retries:
        Extra attempts granted to a task after a timeout or worker death.
    """

    num_clients: int = 8
    partition: Tuple[str, Dict] = ("dirichlet", {"alpha": 0.5})
    client_models: Union[str, Sequence[str]] = "resnet20"
    server_model: Optional[str] = "resnet56"
    feature_dim: int = 32
    local_test_fraction: float = 0.2
    dropout_prob: float = 0.0
    spill_dir: Optional[str] = None
    seed: int = 0
    task_retries: int = 1

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {self.num_clients}")
        kind = self.partition[0]
        if kind not in ("iid", "dirichlet", "shards", "by_classes"):
            raise ValueError(f"unknown partition kind '{kind}'")
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ValueError("dropout_prob must be in [0, 1)")
        if self.clients_per_round is not None and not (
            1 <= self.clients_per_round <= self.num_clients
        ):
            raise ValueError(
                f"clients_per_round must be in [1, num_clients], got "
                f"{self.clients_per_round}"
            )
        if self.task_retries < 0:
            raise ValueError("task_retries must be >= 0")
        super().__post_init__()

    def client_model_names(self) -> List[str]:
        """Resolve per-client model names (cycling a heterogeneous list)."""
        if isinstance(self.client_models, str):
            return [self.client_models] * self.num_clients
        names = list(self.client_models)
        if not names:
            raise ValueError("client_models list is empty")
        return [names[i % len(names)] for i in range(self.num_clients)]
