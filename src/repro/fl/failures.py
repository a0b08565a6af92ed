"""Failure injection and failure bookkeeping for robustness experiments.

Real deployments lose clients to crashes, churn, and stragglers.  The paper
assumes full participation; these utilities let the test suite and the
extension benchmarks check that every algorithm degrades gracefully when
clients go missing.

Three failure surfaces exist:

- **Pre-round dropout** — :class:`ParticipationSampler` removes clients
  before the round starts (the classic availability model).
- **Runtime dropout** — a client's worker task times out or its worker
  dies mid-round under the parallel runtime
  (:mod:`repro.runtime`).  :class:`DropoutLog` records those events so a
  failed worker degrades to "this client missed the round" instead of
  aborting the run.
- **Injected faults** — a :class:`FaultPlan` describes deterministic
  chaos (stragglers with seeded delay distributions, mid-round crashes,
  flaky-then-recover clients, join/leave churn) that the async round
  engine (:mod:`repro.fl.async_engine`) must survive.  Every fault is a
  *stateless* function of ``(plan seed, client id, server version)``, so
  chaos runs are reproducible and exact-resumable with no extra RNG state
  in checkpoints.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

__all__ = [
    "ParticipationSampler",
    "RuntimeDropout",
    "DropoutLog",
    "FaultSpec",
    "FaultPlan",
    "FaultPlanError",
    "FAULT_KINDS",
]


class ParticipationSampler:
    """Samples the set of available clients each round.

    Parameters
    ----------
    num_clients:
        Total federation size.
    dropout_prob:
        Independent per-round probability that each client is unavailable.
    min_available:
        At least this many clients always participate (a dropped round with
        zero clients would deadlock synchronous FL).
    clients_per_round:
        Sample this many clients as the round's cohort *before* dropout is
        applied — the cross-device shape where a large registered
        population sees a small sub-cohort per round.  ``None`` (default)
        keeps the full-participation cohort; the RNG stream it consumes is
        bit-identical to the historical per-client loop.
    """

    def __init__(
        self,
        num_clients: int,
        dropout_prob: float = 0.0,
        min_available: int = 1,
        seed: int = 0,
        clients_per_round: Optional[int] = None,
    ) -> None:
        if not 0.0 <= dropout_prob < 1.0:
            raise ValueError("dropout_prob must be in [0, 1)")
        if clients_per_round is not None and not (
            1 <= clients_per_round <= num_clients
        ):
            raise ValueError("clients_per_round must be in [1, num_clients]")
        cohort_size = (
            num_clients if clients_per_round is None else clients_per_round
        )
        if not 1 <= min_available <= cohort_size:
            raise ValueError("min_available must be in [1, cohort size]")
        self.num_clients = num_clients
        self.dropout_prob = dropout_prob
        self.min_available = min_available
        self.clients_per_round = clients_per_round
        self.rng = np.random.default_rng(seed)

    def sample(self) -> List[int]:
        """Return the sorted ids of clients available this round."""
        if (
            self.clients_per_round is not None
            and self.clients_per_round < self.num_clients
        ):
            cohort = np.sort(
                self.rng.choice(
                    self.num_clients, size=self.clients_per_round, replace=False
                )
            )
        else:
            cohort = np.arange(self.num_clients)
        if self.dropout_prob == 0.0:
            return [int(cid) for cid in cohort]
        # one vectorised draw for the whole cohort — Generator.random(n)
        # consumes the stream exactly like n scalar random() calls, so the
        # sampled sets are bit-identical to the historical per-client loop
        # (CI-enforced) at none of its O(N) interpreter overhead
        draws = self.rng.random(len(cohort))
        available = [int(cid) for cid in cohort[draws >= self.dropout_prob]]
        shortfall = self.min_available - len(available)
        if shortfall > 0:
            # top up with a single draw over the dropped set (without
            # replacement) — rejection sampling here can spin arbitrarily
            # long at high dropout_prob
            dropped = np.setdiff1d(cohort, np.asarray(available, dtype=np.int64))
            extra = self.rng.choice(dropped, size=shortfall, replace=False)
            available.extend(int(cid) for cid in extra)
        return sorted(available)

    def state_dict(self) -> dict:
        """RNG stream state — the only thing that carries across rounds."""
        return {"rng": copy.deepcopy(self.rng.bit_generator.state)}

    def load_state_dict(self, state: dict) -> None:
        self.rng.bit_generator.state = copy.deepcopy(state["rng"])


@dataclass
class RuntimeDropout:
    """One client knocked out of one round by a runtime fault."""

    round_index: int
    client_id: int
    stage: str
    # "timeout" (the executor), "empty_shard" (nothing to train on), or a
    # FaultPlan's "injected_crash" | "injected_flaky" | "injected_leave"
    reason: str


class DropoutLog:
    """Ordered record of runtime dropouts across a run.

    With a :class:`~repro.obs.metrics.MetricsRegistry` attached, every
    recorded dropout also increments the ``runtime/dropouts`` counter.
    """

    def __init__(self, metrics=None) -> None:
        self.events: List[RuntimeDropout] = []
        self._metrics = metrics
        # per-round index of distinct client ids in first-seen order, so
        # long chaos runs answer count_for_round in O(1) instead of
        # rescanning the whole event list per query
        self._by_round: Dict[int, List[int]] = {}

    def attach_metrics(self, metrics) -> None:
        self._metrics = metrics

    def _index(self, event: RuntimeDropout) -> None:
        clients = self._by_round.setdefault(event.round_index, [])
        if event.client_id not in clients:
            clients.append(event.client_id)

    def record(
        self, round_index: int, client_id: int, stage: str, reason: str
    ) -> None:
        event = RuntimeDropout(round_index, client_id, stage, reason)
        self.events.append(event)
        self._index(event)
        if self._metrics is not None and self._metrics.enabled:
            self._metrics.counter("runtime/dropouts").inc()

    def count_for_round(self, round_index: int) -> int:
        return len(self._by_round.get(round_index, ()))

    def __len__(self) -> int:
        return len(self.events)

    def state_dict(self) -> dict:
        return {
            "events": [
                [e.round_index, e.client_id, e.stage, e.reason]
                for e in self.events
            ]
        }

    def load_state_dict(self, state: dict) -> None:
        self.events = [
            RuntimeDropout(int(r), int(cid), stage, reason)
            for r, cid, stage, reason in state["events"]
        ]
        self._by_round = {}
        for event in self.events:
            self._index(event)


# ----------------------------------------------------------------------
# deterministic fault injection (the chaos harness)
# ----------------------------------------------------------------------
FAULT_KINDS = ("straggler", "crash", "flaky", "leave", "join")

#: Salt per fault surface so the stateless draws of different injectors
#: never correlate even for the same (seed, client, version) triple.
_SALT = {"straggler": 101, "flaky": 211, "jitter": 307}


class FaultPlanError(ValueError):
    """A fault plan file/dict is malformed."""


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault.

    ``kind`` is one of :data:`FAULT_KINDS`:

    - ``straggler`` — multiply the client's virtual completion delay by
      ``factor`` for every dispatch in ``[from_round, until_round)``.
      With ``jitter > 0`` the factor is additionally scaled by a lognormal
      draw (sigma = ``jitter``) that is a pure function of
      ``(plan seed, client, version)``.
    - ``crash`` — the dispatch made at server version ``round`` dies
      mid-flight; its contribution is lost and logged.
    - ``flaky`` — every dispatch in the window independently crashes with
      probability ``fail_prob`` (stateless seeded draw); outside the
      window the client is healthy again.
    - ``leave`` / ``join`` — availability churn: the client leaves the
      cohort at version ``round`` (``leave``) or (re)enters it
      (``join``).  A client's availability at version ``v`` is decided by
      the latest churn event at or before ``v``.
    """

    kind: str
    client_id: int
    factor: float = 1.0
    jitter: float = 0.0
    fail_prob: float = 0.0
    round: int = 0
    from_round: int = 0
    until_round: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind '{self.kind}' (choose from {FAULT_KINDS})"
            )
        if self.client_id < 0:
            raise FaultPlanError("client_id must be >= 0")
        if self.kind == "straggler" and self.factor <= 0:
            raise FaultPlanError("straggler factor must be positive")
        if self.jitter < 0:
            raise FaultPlanError("jitter must be >= 0")
        if self.kind == "flaky" and not 0.0 <= self.fail_prob <= 1.0:
            raise FaultPlanError("fail_prob must be in [0, 1]")
        if (
            self.until_round is not None
            and self.until_round <= self.from_round
        ):
            raise FaultPlanError("until_round must be > from_round")

    def in_window(self, version: int) -> bool:
        if version < self.from_round:
            return False
        return self.until_round is None or version < self.until_round


def _draw(seed: int, salt: int, client_id: int, version: int) -> np.random.Generator:
    """A fresh generator keyed on the fault coordinates — stateless, so a
    resumed run replays the identical fault sequence with no persisted
    RNG state."""
    return np.random.default_rng((seed, salt, client_id, version))


class FaultPlan:
    """A deterministic chaos schedule for the async round engine.

    Built from a dict / JSON file::

        {
          "seed": 0,
          "delay_jitter": 0.0,
          "faults": [
            {"kind": "straggler", "client_id": 2, "factor": 10.0},
            {"kind": "crash", "client_id": 1, "round": 2},
            {"kind": "flaky", "client_id": 0, "fail_prob": 0.5,
             "from_round": 0, "until_round": 4},
            {"kind": "leave", "client_id": 3, "round": 3},
            {"kind": "join", "client_id": 3, "round": 6}
          ]
        }

    ``delay_jitter`` is a global lognormal sigma applied to *every*
    dispatch's virtual delay (heterogeneous completion times without
    naming individual stragglers).  Every query is a pure function of the
    plan and its arguments.
    """

    def __init__(
        self,
        faults: Optional[List[FaultSpec]] = None,
        seed: int = 0,
        delay_jitter: float = 0.0,
    ) -> None:
        if delay_jitter < 0:
            raise FaultPlanError("delay_jitter must be >= 0")
        self.faults = list(faults or [])
        self.seed = int(seed)
        self.delay_jitter = float(delay_jitter)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        if not isinstance(payload, dict):
            raise FaultPlanError(
                f"fault plan must be an object, got {type(payload).__name__}"
            )
        unknown = sorted(set(payload) - {"seed", "delay_jitter", "faults"})
        if unknown:
            raise FaultPlanError(f"unknown fault-plan keys: {unknown}")
        raw_faults = payload.get("faults", [])
        if not isinstance(raw_faults, list):
            raise FaultPlanError("'faults' must be a list")
        faults = []
        for i, raw in enumerate(raw_faults):
            if not isinstance(raw, dict):
                raise FaultPlanError(f"faults[{i}] must be an object")
            allowed = {
                "kind", "client_id", "factor", "jitter", "fail_prob",
                "round", "from_round", "until_round",
            }
            bad = sorted(set(raw) - allowed)
            if bad:
                raise FaultPlanError(f"faults[{i}] has unknown keys: {bad}")
            try:
                faults.append(FaultSpec(**raw))
            except TypeError as exc:
                raise FaultPlanError(f"faults[{i}]: {exc}") from None
        return cls(
            faults,
            seed=payload.get("seed", 0),
            delay_jitter=payload.get("delay_jitter", 0.0),
        )

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        try:
            with open(path, "r", encoding="utf-8") as f:
                payload = json.load(f)
        except OSError as exc:
            raise FaultPlanError(f"cannot read fault plan '{path}': {exc}")
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"fault plan '{path}' is not valid JSON: {exc}")
        return cls.from_dict(payload)

    @classmethod
    def resolve(cls, value) -> Optional["FaultPlan"]:
        """Coerce a config value (None / path / dict / plan) to a plan."""
        if value is None or isinstance(value, FaultPlan):
            return value
        if isinstance(value, str):
            return cls.from_file(value)
        if isinstance(value, dict):
            return cls.from_dict(value)
        raise FaultPlanError(
            f"fault plan must be a path, dict or FaultPlan, got "
            f"{type(value).__name__}"
        )

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "delay_jitter": self.delay_jitter,
            "faults": [
                {
                    "kind": f.kind,
                    "client_id": f.client_id,
                    "factor": f.factor,
                    "jitter": f.jitter,
                    "fail_prob": f.fail_prob,
                    "round": f.round,
                    "from_round": f.from_round,
                    "until_round": f.until_round,
                }
                for f in self.faults
            ],
        }

    # ------------------------------------------------------------------
    # queries (all pure functions of the plan + arguments)
    # ------------------------------------------------------------------
    def delay_factor(self, client_id: int, version: int) -> float:
        """Virtual-delay multiplier for a dispatch (1.0 = nominal)."""
        factor = 1.0
        if self.delay_jitter > 0:
            rng = _draw(self.seed, _SALT["jitter"], client_id, version)
            factor *= float(np.exp(self.delay_jitter * rng.standard_normal()))
        for fault in self.faults:
            if (
                fault.kind == "straggler"
                and fault.client_id == client_id
                and fault.in_window(version)
            ):
                factor *= fault.factor
                if fault.jitter > 0:
                    rng = _draw(
                        self.seed, _SALT["straggler"], client_id, version
                    )
                    factor *= float(
                        np.exp(fault.jitter * rng.standard_normal())
                    )
        return factor

    def crash_cause(self, client_id: int, version: int) -> Optional[str]:
        """Reason string if this dispatch dies mid-flight, else ``None``."""
        for fault in self.faults:
            if fault.client_id != client_id:
                continue
            if fault.kind == "crash" and fault.round == version:
                return "injected_crash"
            if fault.kind == "flaky" and fault.in_window(version):
                rng = _draw(self.seed, _SALT["flaky"], client_id, version)
                if rng.random() < fault.fail_prob:
                    return "injected_flaky"
        return None

    def available(self, client_id: int, version: int) -> bool:
        """Churn state: is the client part of the cohort at ``version``?"""
        decision = True
        decision_round = -1
        for fault in self.faults:
            if fault.client_id != client_id:
                continue
            if fault.kind not in ("leave", "join"):
                continue
            if fault.round <= version and fault.round >= decision_round:
                decision = fault.kind == "join"
                decision_round = fault.round
        return decision

    def describe(self) -> str:
        """One-line human summary for traces and logs."""
        kinds: Dict[str, int] = {}
        for fault in self.faults:
            kinds[fault.kind] = kinds.get(fault.kind, 0) + 1
        parts = [f"{n}x{kind}" for kind, n in sorted(kinds.items())]
        if self.delay_jitter:
            parts.append(f"jitter={self.delay_jitter:g}")
        return ",".join(parts) if parts else "empty"

    def __len__(self) -> int:
        return len(self.faults)
