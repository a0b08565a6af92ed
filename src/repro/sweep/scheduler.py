"""The sweep scheduler: shard a run queue, isolate failures, dedup work.

Execution model
---------------
:meth:`SweepScheduler.run` expands the spec into its deterministic queue,
skips every run whose history is already in the :class:`ResultCache`
(**cache hit** — zero training work), resumes runs that left an
exact-resume checkpoint behind, and executes the rest either inline
(``run_workers=1``, the deterministic default) or across a process pool
(``run_workers>1``), mirroring the fault-tolerance contract of
:mod:`repro.runtime`: a per-run timeout with bounded retries for
infrastructure failures (worker death, hung run), while a deterministic
exception inside a run is recorded as a **failed** run — its siblings
complete and the sweep goes on.

Each run executes through the ordinary
:func:`repro.experiments.harness.run_algorithm` path with checkpoint
autosave pointed into the cache, so a run launched by the scheduler is
bit-identical to the same configuration launched via ``repro run``; the
per-run client stages themselves go through whatever
:mod:`repro.runtime` executor the run's setting asks for.

The driver process is the only writer of the cache and the registry, so
sweep-level parallelism never races on artifacts.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from ..fl.metrics import RunHistory
from .cache import ResultCache
from .progress import SweepProgress, rounds_completed
from .registry import RunRegistry
from .spec import RunSpec, SweepSpec

__all__ = ["RunOutcome", "SweepResult", "SweepScheduler", "execute_run"]

#: Seconds between progress polls while waiting on pool workers.
_POLL_S = 0.5


def _finite(value: Optional[float]) -> Optional[float]:
    """NaN → None so registry lines stay strict JSON (no bare ``NaN``)."""
    if value is None or value != value:
        return None
    return float(value)


# ----------------------------------------------------------------------
# run execution (driver-side inline, or inside a pool worker)
# ----------------------------------------------------------------------
def execute_run(payload: Dict[str, Any]) -> RunHistory:
    """Execute one queued run and return its history.

    ``payload`` carries the :class:`RunSpec` fields plus the artifact
    paths the cache assigned.  If the checkpoint file already exists the
    run *resumes* — only the remaining rounds train, and the finished
    history is bit-identical to an uninterrupted run.
    """
    import os

    from ..experiments.harness import run_algorithm

    run = RunSpec(**payload["run"])
    setting = run.to_setting(**payload["artifacts"])
    resume = bool(setting.checkpoint_path) and os.path.exists(
        setting.resolve_artifact(setting.checkpoint_path)
    )
    return run_algorithm(
        setting,
        run.algorithm,
        rounds=run.rounds,
        eval_every=run.eval_every,
        resume=resume,
        **run.overrides,
    )


def _pool_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Pool-side wrapper: deterministic run exceptions become data, not
    pool crashes, so failure isolation survives the process boundary."""
    try:
        history = execute_run(payload)
        return {"ok": True, "history": history.to_dict()}
    except Exception as exc:  # noqa: BLE001 - isolation is the point
        return {
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        }


# ----------------------------------------------------------------------
# outcomes
# ----------------------------------------------------------------------
@dataclass
class RunOutcome:
    """What happened to one queued run."""

    run_key: str
    label: str
    spec: RunSpec
    status: str  # "completed" | "resumed" | "cached" | "failed"
    history: Optional[RunHistory] = None
    error: Optional[str] = None

    @property
    def rounds_done(self) -> int:
        return len(self.history) if self.history is not None else 0


@dataclass
class SweepResult:
    """Ordered outcomes of one sweep submission."""

    name: str
    spec_hash: str
    outcomes: List[RunOutcome] = field(default_factory=list)

    def counts(self) -> Dict[str, int]:
        tally: Dict[str, int] = {
            "completed": 0, "resumed": 0, "cached": 0, "failed": 0
        }
        for outcome in self.outcomes:
            tally[outcome.status] = tally.get(outcome.status, 0) + 1
        return tally

    @property
    def ok(self) -> bool:
        return all(o.status != "failed" for o in self.outcomes)

    def histories(self) -> Dict[str, RunHistory]:
        return {
            o.run_key: o.history
            for o in self.outcomes
            if o.history is not None
        }


# ----------------------------------------------------------------------
# the scheduler
# ----------------------------------------------------------------------
class SweepScheduler:
    """Drive one sweep spec through cache, queue, execution, registry.

    Parameters
    ----------
    spec:
        The grid to run.
    out_root:
        Root for all sweep state: ``<out_root>/cache/<run_key>/`` holds
        per-run artifacts, ``<out_root>/registry/`` the JSONL registry.
    run_workers:
        ``1`` executes runs inline in queue order (default); ``>1`` fans
        whole runs out to a process pool.
    run_timeout_s:
        Per-run wall-clock budget (pool mode only); a run that exhausts
        its budget across ``run_retries + 1`` attempts is recorded as
        failed with reason ``timeout``.
    run_retries:
        Extra attempts after a timeout or worker death (pool mode only).
        Deterministic exceptions inside a run are never retried.
    checkpoint_every:
        Autosave cadence (rounds) for each run's exact-resume checkpoint.
    trace:
        Also write a per-run obs trace + metrics export into the cache
        (enables live per-run round counts in pool mode).  Off by default
        so sweep histories stay field-for-field identical to plain
        ``repro run`` output.
    runtime_overrides:
        Executor settings applied to every run (``executor``,
        ``max_workers``, ``task_timeout_s``) — the sweep-level override
        for the :mod:`repro.runtime` layer.
    """

    def __init__(
        self,
        spec: SweepSpec,
        out_root: str = "results",
        run_workers: int = 1,
        run_timeout_s: Optional[float] = None,
        run_retries: int = 1,
        checkpoint_every: int = 1,
        trace: bool = False,
        runtime_overrides: Optional[Dict[str, Any]] = None,
        progress: Optional[SweepProgress] = None,
    ) -> None:
        if run_workers < 1:
            raise ValueError(f"run_workers must be >= 1, got {run_workers}")
        if run_timeout_s is not None and run_timeout_s <= 0:
            raise ValueError("run_timeout_s must be positive")
        if run_retries < 0:
            raise ValueError("run_retries must be >= 0")
        self.spec = spec
        self.out_root = out_root
        self.run_workers = run_workers
        self.run_timeout_s = run_timeout_s
        self.run_retries = run_retries
        self.checkpoint_every = checkpoint_every
        self.trace = trace
        self.runtime_overrides = dict(runtime_overrides or {})
        self.cache = ResultCache(f"{out_root}/cache")
        self.registry = RunRegistry(f"{out_root}/registry")
        self._progress = progress

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def queue(self) -> List[RunSpec]:
        """The deterministic run queue (also used by ``--dry-run``)."""
        return self.spec.expand()

    def run(self) -> SweepResult:
        runs = self.queue()
        keys = [r.run_key() for r in runs]
        progress = self._progress or SweepProgress(len(runs), enabled=False)
        progress.total = len(runs)
        result = SweepResult(name=self.spec.name, spec_hash=self.spec.spec_hash())

        pending: List[int] = []
        outcomes: List[Optional[RunOutcome]] = [None] * len(runs)
        for i, (run, key) in enumerate(zip(runs, keys)):
            cached = self.cache.load_history(key)
            if cached is not None:
                outcomes[i] = RunOutcome(key, run.label(), run, "cached", cached)
                progress.transition(
                    key, run.label(), "cached", f"{len(cached)} rounds"
                )
            else:
                pending.append(i)

        if pending:
            payloads = [self._payload(runs[i], keys[i]) for i in pending]
            if self.run_workers == 1:
                executed = self._run_inline(
                    [runs[i] for i in pending], [keys[i] for i in pending],
                    payloads, progress,
                )
            else:
                executed = self._run_pool(
                    [runs[i] for i in pending], [keys[i] for i in pending],
                    payloads, progress,
                )
            for i, outcome in zip(pending, executed):
                outcomes[i] = outcome

        result.outcomes = [o for o in outcomes if o is not None]
        self._record_sweep(result, keys)
        progress.note(progress.summary())
        return result

    # ------------------------------------------------------------------
    # payloads and artifacts
    # ------------------------------------------------------------------
    def _payload(self, run: RunSpec, key: str) -> Dict[str, Any]:
        self.cache.store_config(key, run)
        spec_fields = asdict(run)
        spec_fields["runtime_fields"] = dict(
            spec_fields["runtime_fields"], **self.runtime_overrides
        )
        artifacts: Dict[str, Any] = {
            "checkpoint_every": self.checkpoint_every,
            "checkpoint_path": self.cache.checkpoint_path(key),
        }
        if self.trace:
            artifacts["trace_path"] = self.cache.trace_path(key)
            artifacts["metrics_path"] = self.cache.metrics_path(key)
        return {"run": spec_fields, "artifacts": artifacts}

    def _resumable(self, key: str) -> bool:
        return self.cache.has_checkpoint(key)

    # ------------------------------------------------------------------
    # inline execution (deterministic queue order)
    # ------------------------------------------------------------------
    def _run_inline(self, runs, keys, payloads, progress) -> List[RunOutcome]:
        executed: List[RunOutcome] = []
        for run, key, payload in zip(runs, keys, payloads):
            resumed = self._resumable(key)
            progress.transition(key, run.label(), "running")
            try:
                history = execute_run(payload)
            except Exception as exc:  # noqa: BLE001 - failure isolation
                executed.append(
                    self._fail(run, key, f"{type(exc).__name__}: {exc}", progress)
                )
                continue
            executed.append(self._finish(run, key, history, resumed, progress))
        return executed

    # ------------------------------------------------------------------
    # pool execution (sharded runs, timeout/retry like repro.runtime)
    # ------------------------------------------------------------------
    def _run_pool(self, runs, keys, payloads, progress) -> List[RunOutcome]:
        n = len(runs)
        resumed_flags = [self._resumable(key) for key in keys]
        raw: List[Optional[Dict[str, Any]]] = [None] * n
        attempts = [0] * n
        pool = ProcessPoolExecutor(max_workers=self.run_workers)
        futures = {i: pool.submit(_pool_worker, payloads[i]) for i in range(n)}
        for key, run in zip(keys, runs):
            progress.transition(key, run.label(), "running")
        pending = list(range(n))
        try:
            while pending:
                i = pending[0]
                started = time.perf_counter()
                while raw[i] is None:
                    try:
                        raw[i] = futures[i].result(timeout=_POLL_S)
                        break
                    except FuturesTimeout:
                        self._poll_traces(runs, keys, pending, progress)
                        waited = time.perf_counter() - started
                        if self.run_timeout_s is None or waited <= self.run_timeout_s:
                            continue
                        cause = f"timeout: no result within {self.run_timeout_s}s"
                    except BrokenExecutor:
                        cause = (
                            "worker death: the run kept crashing its worker "
                            "process"
                        )
                    attempts[i] += 1
                    if attempts[i] > self.run_retries:
                        raw[i] = {
                            "ok": False,
                            "error": f"{cause} after {attempts[i]} attempt(s)",
                        }
                    pool = self._recycle(pool, futures, payloads, pending, raw)
                    started = time.perf_counter()
                pending.pop(0)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

        executed: List[RunOutcome] = []
        for run, key, resumed, outcome in zip(runs, keys, resumed_flags, raw):
            if outcome is None or not outcome.get("ok"):
                error = (outcome or {}).get("error", "no result")
                executed.append(self._fail(run, key, error, progress))
            else:
                history = RunHistory.from_dict(outcome["history"])
                executed.append(self._finish(run, key, history, resumed, progress))
        return executed

    def _recycle(self, pool, futures, payloads, pending, raw):
        """Replace a collapsed/hung pool: bank the runs that already
        finished, resubmit only the ones that did not."""
        for j in pending:
            future = futures[j]
            if raw[j] is None and future.done() and not future.cancelled():
                if future.exception() is None:
                    raw[j] = future.result()
        pool.shutdown(wait=False, cancel_futures=True)
        pool = ProcessPoolExecutor(max_workers=self.run_workers)
        for j in pending:
            if raw[j] is None:
                futures[j] = pool.submit(_pool_worker, payloads[j])
        return pool

    def _poll_traces(self, runs, keys, pending, progress) -> None:
        if not self.trace:
            return
        for j in pending:
            rounds = rounds_completed(self.cache.trace_path(keys[j]))
            if rounds:
                progress.running_rounds(
                    keys[j], runs[j].label(), rounds, runs[j].rounds
                )

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _finish(self, run, key, history, resumed, progress) -> RunOutcome:
        status = "resumed" if resumed else "completed"
        self.cache.store_history(key, history)
        self.registry.record_run(self._run_record(run, key, status, history))
        detail = f"{len(history)} rounds, S_acc={history.final_server_acc:.3f}"
        progress.transition(key, run.label(), status, detail)
        return RunOutcome(key, run.label(), run, status, history)

    def _fail(self, run, key, error, progress) -> RunOutcome:
        self.registry.record_run(
            self._run_record(run, key, "failed", None, error=error)
        )
        progress.transition(key, run.label(), "failed", error)
        return RunOutcome(key, run.label(), run, "failed", error=error)

    def _run_record(
        self, run, key, status, history, error: Optional[str] = None
    ) -> Dict[str, Any]:
        config = run.resolved_config()
        record: Dict[str, Any] = {
            "run_key": key,
            "sweep": self.spec.name,
            "status": status,
            "label": run.label(),
            "algorithm": run.algorithm,
            "config": config,
            "artifacts": {
                "dir": self.cache.run_dir(key),
                "history": self.cache.history_path(key),
                "checkpoint": self.cache.checkpoint_path(key),
            },
        }
        if self.trace:
            record["artifacts"]["trace"] = self.cache.trace_path(key)
            record["artifacts"]["metrics"] = self.cache.metrics_path(key)
        if history is not None:
            last = history.records[-1] if history.records else None
            record.update(
                {
                    "rounds": len(history),
                    "final_server_acc": _finite(history.final_server_acc),
                    "final_client_acc": _finite(history.final_client_acc),
                    "best_server_acc": _finite(history.best_server_acc),
                    "best_client_acc": _finite(history.best_client_acc),
                    "comm_mb": _finite(last.comm_total_mb) if last else None,
                }
            )
        if error is not None:
            record["error"] = error
        return record

    def _record_sweep(self, result: SweepResult, keys: List[str]) -> None:
        counts = result.counts()
        self.registry.record_sweep(
            {
                "name": result.name,
                "spec_hash": result.spec_hash,
                "total": len(result.outcomes),
                "run_keys": keys,
                **counts,
            }
        )
