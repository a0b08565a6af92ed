"""Shared experiment harness: scales, settings, runners, and formatting.

Every figure/table declaration (:mod:`repro.experiments.figures`) builds on
this.  The paper's experiments are GPU-scale; the harness exposes three
scale presets so the same code runs as a seconds-long benchmark (``tiny``),
a minutes-long trend check (``small``), or the full paper configuration
(``paper``) given enough compute.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field, replace
from typing import (
    Dict, Hashable, Iterable, Mapping, NamedTuple, Optional, Sequence, Tuple, Union,
)

import numpy as np

from ..algorithms import algorithm_supports, build_algorithm
from ..data.datasets import FederatedDataBundle, make_task
from ..fl.checkpoint import load_checkpoint, load_history, read_checkpoint_meta
from ..fl.config import RUN_KNOBS, FederationConfig, RunKnobs, knob
from ..fl.metrics import RunHistory
from ..fl.simulation import build_federation
from ..runtime.pool import Exhausted, WorkerPool, usable_cores

__all__ = [
    "ScaleConfig",
    "SCALES",
    "ExperimentSetting",
    "make_bundle",
    "model_roles",
    "federation_for",
    "run_algorithm",
    "Arm",
    "compare_algorithms",
    "format_table",
    "save_results",
    "PARTITIONS",
]


@dataclass(frozen=True)
class ScaleConfig:
    """Knobs that trade fidelity for runtime."""

    n_train: int
    n_test: int
    n_public: int
    num_clients: int
    rounds: int
    epoch_scale: float
    model_family: str  # "mlp" (fast) or "resnet" (faithful to the paper)
    cifar100_data_factor: float = 2.5  # 100-class runs need more samples

    def sized_for(self, dataset: str) -> "ScaleConfig":
        if dataset != "cifar100":
            return self
        f = self.cifar100_data_factor
        return replace(
            self,
            n_train=int(self.n_train * f),
            n_test=int(self.n_test * f),
            n_public=int(self.n_public * f),
        )


SCALES: Dict[str, ScaleConfig] = {
    # seconds per run — used by the pytest benchmarks and tests
    "tiny": ScaleConfig(800, 300, 200, 4, 3, 0.2, "mlp"),
    # a minute or two per run — shows the paper's trends clearly
    "small": ScaleConfig(2000, 600, 500, 6, 6, 0.3, "mlp"),
    # the paper's configuration (CIFAR-scale, ResNets, 70 rounds)
    "paper": ScaleConfig(20000, 4000, 5000, 10, 70, 1.0, "resnet"),
}

# Partition shorthand used across the figure modules: name -> (kind, kwargs)
PARTITIONS: Dict[str, Tuple[str, dict]] = {
    "iid": ("iid", {}),
    "dir0.1": ("dirichlet", {"alpha": 0.1}),
    "dir0.3": ("dirichlet", {"alpha": 0.3}),
    "dir0.5": ("dirichlet", {"alpha": 0.5}),
    # paper: CIFAR-10 shards with k in {3, 5}; CIFAR-100 with k in {30, 50}
    "shards3": ("shards", {"classes_per_client": 3}),
    "shards5": ("shards", {"classes_per_client": 5}),
    "shards30": ("shards", {"classes_per_client": 30}),
    "shards50": ("shards", {"classes_per_client": 50}),
}


@dataclass
class ExperimentSetting(RunKnobs):
    """One experimental cell: dataset × partition × model setting × scale.

    The run knobs (round engine, cohort, executor, checkpoint,
    observability) are the keyword-only fields inherited from
    :class:`~repro.fl.config.RunKnobs`; every field carries its sweep
    run-key role.
    """

    dataset: str = knob("cifar10", "key")
    partition: str = knob("dir0.5", "key")
    heterogeneous: bool = knob(False, "key")
    scale: str = knob("tiny", "key")
    seed: int = knob(0, "key")
    scale_overrides: dict = field(default_factory=dict, metadata={"role": "key"})
    # artifact root: relative checkpoint/trace/metrics paths resolve under
    # this directory, so a sweep (or any caller) can redirect a run's
    # artifacts without chdir tricks.  None keeps paths as given.
    out_dir: Optional[str] = knob(None, "managed")

    def scale_config(self) -> ScaleConfig:
        base = SCALES[self.scale].sized_for(self.dataset)
        if self.scale_overrides:
            base = replace(base, **self.scale_overrides)
        return base

    def resolve_artifact(self, path: Optional[str]) -> Optional[str]:
        """Resolve an artifact path against ``out_dir``.

        Absolute paths (and every path when ``out_dir`` is unset) pass
        through unchanged; relative ones land under ``out_dir``.
        """
        if path is None or self.out_dir is None or os.path.isabs(path):
            return path
        return os.path.join(self.out_dir, path)

    def run_knobs(self) -> Dict[str, object]:
        """The knob values a ``FederationConfig`` takes over, with the
        artifact paths (``*_path``) resolved under ``out_dir``."""
        return {
            f.name: self.resolve_artifact(getattr(self, f.name))
            if f.name.endswith("_path")
            else getattr(self, f.name)
            for f in RUN_KNOBS
        }


def make_bundle(setting: ExperimentSetting) -> FederatedDataBundle:
    """Generate the data bundle for a setting (deterministic in the seed)."""
    sc = setting.scale_config()
    task = make_task(setting.dataset, seed=setting.seed)
    return task.make_bundle(sc.n_train, sc.n_test, sc.n_public, seed=setting.seed + 1)


def model_roles(family: str, heterogeneous: bool) -> Dict[str, object]:
    """Map the paper's model roles onto a family.

    Returns ``client_models`` (str or list), ``big_server`` (for KD-based
    algorithms) and ``peer_server`` (for weight-averaging algorithms whose
    server must match the clients).
    """
    if family == "resnet":
        if heterogeneous:
            return {
                "client_models": ["resnet11", "resnet20", "resnet29"],
                "big_server": "resnet56",
                "peer_server": None,  # weight averaging impossible
            }
        return {
            "client_models": "resnet20",
            "big_server": "resnet56",
            "peer_server": "resnet20",
        }
    if family == "mlp":
        if heterogeneous:
            return {
                "client_models": ["mlp_small", "mlp_medium", "mlp_large"],
                "big_server": "mlp_xlarge",
                "peer_server": None,
            }
        return {
            "client_models": "mlp_medium",
            "big_server": "mlp_large",
            "peer_server": "mlp_medium",
        }
    raise ValueError(f"unknown model family '{family}'")


def federation_for(
    setting: ExperimentSetting,
    algorithm: str,
    bundle: Optional[FederatedDataBundle] = None,
):
    """Build the federation an algorithm needs under a setting.

    Weight-averaging algorithms (FedAvg/FedProx/FedDF) get a server matching
    the client architecture; KD-based ones get the big server; FedMD/DS-FL
    get none.
    """
    if bundle is None:
        bundle = make_bundle(setting)
    sc = setting.scale_config()
    roles = model_roles(sc.model_family, setting.heterogeneous)

    if not algorithm_supports(algorithm, "heterogeneous") and setting.heterogeneous:
        raise ValueError(
            f"{algorithm} does not support heterogeneous client models"
        )

    if not algorithm_supports(algorithm, "server_model"):
        server_model = None
    elif algorithm in ("fedavg", "fedprox", "feddf"):
        server_model = roles["peer_server"]
    else:
        server_model = roles["big_server"]

    config = FederationConfig(
        num_clients=sc.num_clients,
        partition=PARTITIONS[setting.partition],
        client_models=roles["client_models"],
        server_model=server_model,
        seed=setting.seed,
        **setting.run_knobs(),
    )
    return build_federation(bundle, config)


def run_algorithm(
    setting: ExperimentSetting,
    algorithm: str,
    bundle: Optional[FederatedDataBundle] = None,
    rounds: Optional[int] = None,
    eval_every: int = 1,
    resume: bool = False,
    **config_overrides,
) -> RunHistory:
    """Run one algorithm under a setting and return its history.

    With ``resume=True`` and an existing ``setting.checkpoint_path`` file,
    the full training state (weights, RNG streams, comm ledgers, history)
    is restored and only the remaining rounds run — bit-identical to having
    never stopped.  A missing checkpoint file starts from scratch.
    """
    sc = setting.scale_config()
    federation = federation_for(setting, algorithm, bundle)
    try:
        algo = build_algorithm(
            algorithm,
            federation,
            seed=setting.seed,
            epoch_scale=sc.epoch_scale,
            **config_overrides,
        )
        total_rounds = rounds or sc.rounds
        history: Optional[RunHistory] = None
        rounds_done = 0
        if resume:
            if not setting.checkpoint_path:
                raise ValueError("resume=True requires setting.checkpoint_path")
            ckpt_path = setting.resolve_artifact(setting.checkpoint_path)
            if os.path.exists(ckpt_path):
                # the trace file survives the restart: append to it behind a
                # `resume` marker.  This must precede load_checkpoint, whose
                # checkpoint/load event is otherwise the tracer's first write
                # and would truncate the existing trace.
                meta = read_checkpoint_meta(ckpt_path)
                federation.obs.mark_resume(meta["round_index"])
                rounds_done = load_checkpoint(algo, ckpt_path)
                history = load_history(ckpt_path)
        remaining = max(0, total_rounds - rounds_done)
        if remaining > 0:
            history = algo.run(remaining, eval_every=eval_every, history=history)
        elif history is None:
            history = RunHistory(
                algo.name, dataset=setting.dataset, config={"rounds": total_rounds}
            )
    finally:
        federation.close()
    history.dataset = setting.dataset
    history.config.update(
        {
            "partition": setting.partition,
            "heterogeneous": setting.heterogeneous,
            "scale": setting.scale,
            "seed": setting.seed,
        }
    )
    return history


class Arm(NamedTuple):
    """One run of a comparison: ``algorithm`` built with the config
    ``overrides``, reported under ``label`` (any hashable: Fig. 9 keys its
    arms by the swept value)."""

    label: Hashable
    algorithm: str
    overrides: Mapping[str, object]

    @classmethod
    def of(cls, item: Union[str, "Arm"]) -> "Arm":
        """An ``Arm`` as given; a plain algorithm name is ``Arm(name, name, {})``."""
        return item if isinstance(item, Arm) else cls(item, item, {})


def compare_algorithms(
    setting: ExperimentSetting,
    arms: Sequence[Union[str, Arm]],
    rounds: Optional[int] = None,
    eval_every: int = 1,
) -> Dict[Hashable, RunHistory]:
    """Run several arms on the *same* data bundle for fair comparison.

    An arm is an algorithm name or an :class:`Arm` (label, algorithm,
    config overrides); the result maps each label to its history.  The
    runs are independent, so they fan out over a
    :class:`~repro.runtime.pool.WorkerPool` with one worker per usable core
    (at most one per arm); histories come back in input order and equal
    those of sequential :func:`run_algorithm` calls.  They run inline with
    one usable core, one arm, or ``executor="parallel"`` (whose client pool
    already owns the cores).  Each arm writes its own artifacts: ``.<label>``
    goes before the first dot of every ``*_path`` basename
    (``fig5.trace.jsonl`` -> ``fig5.fedavg.trace.jsonl``), with characters
    other than letters, digits, ``_``, ``.`` and ``-`` mapped to ``_``
    (``w/o Pro`` -> ``w_o_Pro``).  Labels that coincide after that mapping
    raise ``ValueError`` before any run starts.  An arm's exception
    propagates with its type; a run whose worker process dies raises a
    ``RuntimeError`` naming the arm.
    """
    arms = [Arm.of(item) for item in arms]
    infixes = [_file_safe(arm.label) for arm in arms]
    clashes = sorted({name for name in infixes if infixes.count(name) > 1})
    if clashes:
        raise ValueError(f"compare_algorithms: arm labels clash: {clashes}")
    payloads = [
        (_own_artifacts(setting, infix), arm.algorithm, rounds, eval_every,
         dict(arm.overrides))
        for arm, infix in zip(arms, infixes)
    ]
    bundle = make_bundle(setting)
    workers = 1 if setting.executor == "parallel" else usable_cores(len(payloads))
    if workers == 1:
        histories = [_run_one(payload, bundle) for payload in payloads]
    else:
        with WorkerPool(workers, initializer=_hold_bundle, initargs=(bundle,)) as pool:
            histories = pool.run(_run_one, payloads)
        for arm, outcome in zip(arms, histories):
            if isinstance(outcome, Exhausted):
                raise RuntimeError(
                    f"compare_algorithms: {arm.label} did not finish "
                    f"({outcome.cause} after {outcome.attempts} attempt(s))"
                )
    return {arm.label: history for arm, history in zip(arms, histories)}


#: the bundle inside a compare_algorithms worker, installed by the pool's
#: initializer (fork hands it over once, not pickled per run)
_WORKER_BUNDLE: Optional[FederatedDataBundle] = None


def _hold_bundle(bundle: FederatedDataBundle) -> None:
    global _WORKER_BUNDLE
    _WORKER_BUNDLE = bundle


def _run_one(payload: tuple, bundle: Optional[FederatedDataBundle] = None) -> RunHistory:
    setting, algorithm, rounds, eval_every, overrides = payload
    return run_algorithm(
        setting, algorithm, bundle=_WORKER_BUNDLE if bundle is None else bundle,
        rounds=rounds, eval_every=eval_every, **overrides,
    )


def _file_safe(label: Hashable) -> str:
    return re.sub(r"[^\w.-]", "_", str(label))


def _own_artifacts(setting: ExperimentSetting, infix: str) -> ExperimentSetting:
    """``setting`` with ``.<infix>`` inserted before the first dot of every
    artifact path's basename (no dot: appended)."""
    own = {}
    for f in RUN_KNOBS:
        path = getattr(setting, f.name)
        if f.name.endswith("_path") and path:
            head, base = os.path.split(path)
            stem, dot, suffix = base.partition(".")
            own[f.name] = os.path.join(head, f"{stem}.{infix}{dot}{suffix}")
    return replace(setting, **own)


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Render an aligned text table (the harness's human-readable output)."""
    str_rows = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if value is None:
        return "N/A"
    if isinstance(value, float):
        if np.isnan(value):
            return "N/A"
        return f"{value:.3f}"
    return str(value)


def save_results(results: object, out_dir: str, name: str) -> str:
    """Write an experiment's raw result dict as ``<out_dir>/<name>.json``.

    The artifact sink of ``repro experiment NAME --out-dir DIR`` (and the
    ``results/`` scripts): the directory is injected, so callers redirect
    artifacts without chdir tricks.
    Non-JSON scalars (numpy floats/arrays) are coerced via ``default``.
    """
    import json

    def _default(value):
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, (np.floating, np.integer)):
            return value.item()
        return float(value)

    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}.json")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(results, f, indent=1, default=_default)
    os.replace(tmp, path)
    return path
