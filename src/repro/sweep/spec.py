"""Declarative sweep specs and their deterministic expansion.

A sweep is a grid: a ``base`` cell (shared settings) crossed with ``axes``
(field → list of values).  Expansion is *stably ordered* — axes are
iterated in sorted key order, values in the order the spec lists them —
so the run queue of a given spec is identical on every machine and every
invocation, which is what makes the registry and result cache meaningful.

Each expanded :class:`RunSpec` owns a **run key**: the SHA-256 of its
resolved, canonically-serialised configuration plus the code-relevant
versions (``repro.__version__``, the checkpoint format version, and this
module's key-schema version).  Two grid cells that resolve to the same
training work share a key — notably, *runtime* knobs (executor choice,
worker counts, timeouts) are excluded from the key because the runtime
layer guarantees bit-identical histories across them.

Spec format (dict or JSON file)::

    {
      "name": "theta-sweep",
      "base": {"scale": "tiny", "rounds": 3},
      "axes": {
        "algorithm": ["fedpkd", "fedavg"],
        "seed": [0, 1],
        "config.select_ratio": [0.3, 0.7]   // algorithm-config override axis
      },
      "overrides": {"fedpkd": {"delta": 0.5}}  // per-algorithm, non-axis
    }

``config.<field>`` entries feed :func:`repro.algorithms.build_algorithm`
overrides; every other key must be a sweepable :class:`ExperimentSetting`
field, ``algorithm``, ``rounds`` or ``eval_every``.  Artifact paths
(checkpoints, traces, out dirs) are owned by the scheduler and rejected
here.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Sequence

from .. import __version__
from ..algorithms import ALGORITHMS
from ..experiments.harness import PARTITIONS, SCALES, ExperimentSetting
from ..fl.checkpoint import CHECKPOINT_FORMAT_VERSION
from ..fl.config import field_roles

__all__ = [
    "RUN_KEY_VERSION",
    "SweepSpecError",
    "RunSpec",
    "SweepSpec",
]

#: Bump whenever the run-key canonicalisation below changes shape; old
#: cache entries then stop matching instead of silently colliding.
#: v2: the round-engine knobs (engine, staleness bound and discount,
#: buffer trigger, fault plan) entered the key.
#: v3: the cohort knobs (per-round and per-evaluation sample sizes) entered
#: the key; the live-client cap is a runtime field (eviction + spill are
#: bit-neutral).
#: v4: the ``engine`` knob left the key (the other four round-engine knobs
#: always apply; their defaults are the full barrier).
RUN_KEY_VERSION = 4

#: Every ``ExperimentSetting`` field declares its run-key role where it is
#: defined (:func:`repro.fl.config.knob`; a field without one fails this
#: import).  ``key`` fields affect results and enter the run key — the
#: async-engine knobs among them: staleness discounts, buffer triggers and
#: fault plans all change the recorded history.  ``runtime`` fields do not:
#: histories are bit-identical across executors, so caching across them is
#: sound.  ``managed`` fields belong to the scheduler/cache; a spec naming
#: one is a bug.  The cell's own (positional) fields are listed before the
#: keyword-only run knobs.
_SETTING_ROLES = field_roles(ExperimentSetting)
_SETTING_FIELDS = sorted(fields(ExperimentSetting), key=lambda f: f.kw_only)


def _with_role(role: str) -> tuple:
    return tuple(
        f.name for f in _SETTING_FIELDS if _SETTING_ROLES[f.name] == role
    )


_KEY_SETTING_FIELDS = _with_role("key")
_RUNTIME_SETTING_FIELDS = _with_role("runtime")
_MANAGED_FIELDS = _with_role("managed")
_EXTRA_FIELDS = ("algorithm", "rounds", "eval_every")
_ALLOWED_FIELDS = _KEY_SETTING_FIELDS + _RUNTIME_SETTING_FIELDS + _EXTRA_FIELDS

_CONFIG_PREFIX = "config."


class SweepSpecError(ValueError):
    """A sweep spec is malformed (unknown field, bad axis, duplicate key)."""


def _canonical(obj: Any) -> str:
    """Canonical JSON: the byte-stable serialisation the run key hashes."""
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise SweepSpecError(f"spec value is not JSON-serialisable: {exc}")


@dataclass
class RunSpec:
    """One fully-resolved cell of the grid: what to run and how."""

    algorithm: str
    setting_fields: Dict[str, Any] = field(default_factory=dict)
    runtime_fields: Dict[str, Any] = field(default_factory=dict)
    rounds: Any = None
    eval_every: int = 1
    overrides: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def resolved_config(self) -> Dict[str, Any]:
        """The result-affecting configuration, fully keyed and sorted.

        Built through :class:`ExperimentSetting` so dataclass defaults are
        applied: a spec that says ``"dataset": "cifar10"`` explicitly and
        one that leaves the default hash to the same run key.
        """
        setting = ExperimentSetting(**self.setting_fields)
        setting_payload = {
            k: getattr(setting, k) for k in _KEY_SETTING_FIELDS
        }
        if setting_payload.get("fault_plan") is not None:
            # canonicalise to content, not spelling: a plan given as a path
            # and the same plan inlined as a dict share a run key
            from ..fl.failures import FaultPlan, FaultPlanError

            try:
                setting_payload["fault_plan"] = FaultPlan.resolve(
                    setting_payload["fault_plan"]
                ).to_dict()
            except FaultPlanError as exc:
                raise SweepSpecError(str(exc)) from None
        return {
            "algorithm": self.algorithm,
            "setting": setting_payload,
            "rounds": self.rounds,
            "eval_every": self.eval_every,
            "overrides": dict(sorted(self.overrides.items())),
        }

    def run_key(self) -> str:
        """Content hash of the resolved config + code-relevant versions."""
        payload = {
            "config": self.resolved_config(),
            "versions": {
                "repro": __version__,
                "checkpoint_format": CHECKPOINT_FORMAT_VERSION,
                "run_key": RUN_KEY_VERSION,
            },
        }
        return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()

    def label(self) -> str:
        """Human-readable short form for progress lines and tables."""
        s = self.setting_fields
        parts = [
            self.algorithm,
            str(s.get("dataset", ExperimentSetting.dataset)),
            str(s.get("partition", ExperimentSetting.partition)),
            f"s{s.get('seed', ExperimentSetting.seed)}",
        ]
        if s.get("heterogeneous"):
            parts.append("hetero")
        for key, value in sorted(self.overrides.items()):
            parts.append(f"{key}={value}")
        return "/".join(parts)

    # ------------------------------------------------------------------
    # execution glue
    # ------------------------------------------------------------------
    def to_setting(self, **artifact_fields) -> ExperimentSetting:
        """Build the harness setting (artifact paths come from the cache)."""
        kwargs = dict(self.setting_fields)
        kwargs.update(self.runtime_fields)
        kwargs.update(artifact_fields)
        return ExperimentSetting(**kwargs)


@dataclass
class SweepSpec:
    """A named grid over algorithms × settings × seeds × config fields."""

    name: str
    base: Dict[str, Any] = field(default_factory=dict)
    axes: Dict[str, Sequence[Any]] = field(default_factory=dict)
    overrides: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SweepSpec":
        if not isinstance(payload, dict):
            raise SweepSpecError(
                f"sweep spec must be an object, got {type(payload).__name__}"
            )
        unknown = sorted(set(payload) - {"name", "base", "axes", "overrides"})
        if unknown:
            raise SweepSpecError(f"unknown top-level spec keys: {unknown}")
        name = payload.get("name")
        if not isinstance(name, str) or not name.strip():
            raise SweepSpecError("spec needs a non-empty string 'name'")
        base = payload.get("base", {})
        axes = payload.get("axes", {})
        overrides = payload.get("overrides", {})
        if not isinstance(base, dict):
            raise SweepSpecError("'base' must be an object")
        if not isinstance(axes, dict) or not axes:
            raise SweepSpecError("'axes' must be a non-empty object")
        if not isinstance(overrides, dict):
            raise SweepSpecError("'overrides' must be an object")
        for algo, fields_ in overrides.items():
            if algo not in ALGORITHMS:
                raise SweepSpecError(f"overrides for unknown algorithm '{algo}'")
            if not isinstance(fields_, dict):
                raise SweepSpecError(f"overrides['{algo}'] must be an object")
        return cls(name=name.strip(), base=base, axes=axes, overrides=overrides)

    @classmethod
    def from_file(cls, path: str) -> "SweepSpec":
        try:
            with open(path, "r", encoding="utf-8") as f:
                payload = json.load(f)
        except OSError as exc:
            raise SweepSpecError(f"cannot read sweep spec '{path}': {exc}")
        except json.JSONDecodeError as exc:
            raise SweepSpecError(f"sweep spec '{path}' is not valid JSON: {exc}")
        spec = cls.from_dict(payload)
        if spec.name == os.path.basename(path):  # pragma: no cover - cosmetic
            spec.name = os.path.splitext(spec.name)[0]
        return spec

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def spec_hash(self) -> str:
        payload = {
            "name": self.name,
            "base": self.base,
            "axes": {k: list(v) for k, v in self.axes.items()},
            "overrides": self.overrides,
        }
        return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # expansion
    # ------------------------------------------------------------------
    def expand(self) -> List[RunSpec]:
        """The deterministic run queue: sorted axis keys × listed values.

        Raises :class:`SweepSpecError` on unknown fields, non-list axes,
        unknown algorithms/partitions/scales, and duplicate run keys.
        """
        for key in list(self.base) + list(self.axes):
            field_name = key[len(_CONFIG_PREFIX):] if key.startswith(_CONFIG_PREFIX) else key
            if key.startswith(_CONFIG_PREFIX):
                if not field_name:
                    raise SweepSpecError("'config.' entry is missing a field name")
                continue
            if field_name in _MANAGED_FIELDS:
                raise SweepSpecError(
                    f"'{field_name}' is managed by the sweep scheduler and "
                    "cannot appear in a spec"
                )
            if field_name not in _ALLOWED_FIELDS:
                raise SweepSpecError(
                    f"unknown sweep field '{field_name}' (allowed: "
                    f"{', '.join(_ALLOWED_FIELDS)}, or 'config.<field>')"
                )
        axis_keys = sorted(self.axes)
        for key in axis_keys:
            values = self.axes[key]
            if not isinstance(values, (list, tuple)) or not values:
                raise SweepSpecError(
                    f"axis '{key}' must be a non-empty list of values"
                )

        cells: List[Dict[str, Any]] = [dict(self.base)]
        for key in axis_keys:
            cells = [
                dict(cell, **{key: value})
                for cell in cells
                for value in self.axes[key]
            ]

        runs = [self._resolve_cell(cell) for cell in cells]

        seen: Dict[str, str] = {}
        for run in runs:
            key = run.run_key()
            if key in seen:
                raise SweepSpecError(
                    f"duplicate run key {key[:12]} for '{run.label()}' "
                    f"(already produced by '{seen[key]}'); remove the "
                    "repeated axis value"
                )
            seen[key] = run.label()
        return runs

    def _resolve_cell(self, cell: Dict[str, Any]) -> RunSpec:
        algorithm = cell.pop("algorithm", None)
        if algorithm is None:
            raise SweepSpecError(
                "spec must set 'algorithm' in base or as an axis"
            )
        if algorithm not in ALGORITHMS:
            raise SweepSpecError(
                f"unknown algorithm '{algorithm}' (choose from "
                f"{', '.join(sorted(ALGORITHMS))})"
            )
        rounds = cell.pop("rounds", None)
        if rounds is not None and (not isinstance(rounds, int) or rounds < 1):
            raise SweepSpecError(f"rounds must be a positive integer, got {rounds!r}")
        eval_every = cell.pop("eval_every", 1)
        if not isinstance(eval_every, int) or eval_every < 1:
            raise SweepSpecError(
                f"eval_every must be a positive integer, got {eval_every!r}"
            )

        config_overrides = dict(self.overrides.get(algorithm, {}))
        setting_fields: Dict[str, Any] = {}
        runtime_fields: Dict[str, Any] = {}
        for key, value in cell.items():
            if key.startswith(_CONFIG_PREFIX):
                config_overrides[key[len(_CONFIG_PREFIX):]] = value
            elif key in _RUNTIME_SETTING_FIELDS:
                runtime_fields[key] = value
            else:
                setting_fields[key] = value

        partition = setting_fields.get("partition")
        if partition is not None and partition not in PARTITIONS:
            raise SweepSpecError(
                f"unknown partition '{partition}' (choose from "
                f"{', '.join(sorted(PARTITIONS))})"
            )
        scale = setting_fields.get("scale")
        if scale is not None and scale not in SCALES:
            raise SweepSpecError(
                f"unknown scale '{scale}' (choose from {', '.join(sorted(SCALES))})"
            )

        return RunSpec(
            algorithm=algorithm,
            setting_fields=setting_fields,
            runtime_fields=runtime_fields,
            rounds=rounds,
            eval_every=eval_every,
            overrides=config_overrides,
        )
