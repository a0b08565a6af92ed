"""Client-execution runtime: serial and process-parallel executors.

The round engine expresses per-client work as *stages* — "run this client
method with these kwargs across these participants".  An :class:`Executor`
runs one stage and reports per-stage wall time plus any irrecoverable task
failures.  Two implementations:

- :class:`SerialExecutor` — inline, in participant order; exactly the
  behaviour of the historical per-client ``for`` loops.
- :class:`ParallelExecutor` — fans tasks out to a process pool.  Model
  state and RNG state travel with each task (see :mod:`repro.runtime.task`),
  so results are bit-identical to serial execution; the driver folds the
  returned state back into its clients in participant order.

Fault tolerance (parallel only): each task gets ``task_timeout_s`` to
deliver a result and ``task_retries`` extra attempts.  A worker death
(:class:`~concurrent.futures.process.BrokenProcessPool`) recycles the pool
and retries; a task that keeps killing workers is re-executed inline.  A
task that exhausts its timeout budget becomes a :class:`TaskFailure` — the
round engine records the client as a runtime dropout and the round goes on.
If the pool keeps collapsing, the executor degrades to inline execution for
the rest of the stage rather than aborting the run.
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from contextlib import nullcontext
from concurrent.futures import TimeoutError as FuturesTimeout
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..nn.serialize import deserialize_state, serialize_state
from ..obs import NULL_OBS
from ..obs.metrics import DEFAULT_TIME_BUCKETS
from .task import ClientSpec, ClientTask, TaskFailure, TaskResult
from .worker import init_worker, resolve_kwargs, run_task

__all__ = ["Executor", "SerialExecutor", "ParallelExecutor", "make_executor"]

Outcome = Union[TaskResult, TaskFailure]


class Executor:
    """Runs per-client stages and accounts per-stage wall time."""

    name = "base"

    def __init__(self) -> None:
        self._federation = None
        self._stage_times: Dict[str, float] = {}
        self._obs = NULL_OBS

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def bind(self, federation) -> "Executor":
        """Attach the federation whose clients this executor will drive.

        Also adopts the federation's observability bundle, so stages are
        traced and task metrics published when the run is instrumented.
        """
        self._federation = federation
        self._obs = getattr(federation, "obs", None) or NULL_OBS
        return self

    def close(self) -> None:
        """Release worker resources (no-op for inline executors)."""

    # ------------------------------------------------------------------
    # the stage contract
    # ------------------------------------------------------------------
    def run_stage(
        self,
        clients: Sequence,
        method: str,
        kwargs: Optional[dict] = None,
        stage: Optional[str] = None,
    ) -> Tuple[List[Any], List[TaskFailure]]:
        """Run ``method(**kwargs)`` on every client.

        Returns ``(values, failures)``: ``values`` holds the return values
        of the clients whose task succeeded, in input order; ``failures``
        lists the clients that irrecoverably failed (always empty for
        inline execution).
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # timing hooks
    # ------------------------------------------------------------------
    def _record_time(self, stage: str, seconds: float) -> None:
        self._stage_times[stage] = self._stage_times.get(stage, 0.0) + seconds

    # ------------------------------------------------------------------
    # observability hooks (all no-ops unless the run is instrumented)
    # ------------------------------------------------------------------
    def _profile_stage(self, stage: str):
        """Stage-attribution context for the op profiler (no-op when off)."""
        profiler = self._obs.profiler
        if profiler is None:
            return nullcontext()
        return profiler.stage(stage)

    def _stage_span(self, stage: str, num_clients: int):
        return self._obs.tracer.span(
            "stage",
            scope="stage",
            attrs={"stage": stage, "clients": num_clients, "executor": self.name},
        )

    def _publish_outcomes(self, stage: str, outcomes: Sequence[Outcome]) -> None:
        """Emit one client-scoped trace event per task outcome, plus the
        ``runtime/client_task_seconds`` histogram and failure counters."""
        obs = self._obs
        if not obs.enabled:
            return
        metrics = obs.metrics
        hist = (
            metrics.histogram(
                "runtime/client_task_seconds", buckets=DEFAULT_TIME_BUCKETS
            )
            if metrics.enabled
            else None
        )
        for outcome in outcomes:
            if isinstance(outcome, TaskFailure):
                obs.tracer.event(
                    "task_failure",
                    scope="client",
                    attrs={
                        "stage": stage,
                        "client_id": outcome.client_id,
                        "reason": outcome.reason,
                        "detail": outcome.detail,
                    },
                )
                if metrics.enabled:
                    metrics.counter("runtime/task_failures").inc()
            else:
                obs.tracer.event(
                    "client_task",
                    scope="client",
                    attrs={
                        "stage": stage,
                        "client_id": outcome.client_id,
                        "dur_s": outcome.duration_s,
                    },
                )
                if hist is not None:
                    hist.observe(outcome.duration_s)

    def pop_stage_times(self) -> Dict[str, float]:
        """Return accumulated per-stage seconds and reset the ledger."""
        times, self._stage_times = self._stage_times, {}
        return times

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _resolve_inline_kwargs(self, kwargs: Optional[dict]) -> dict:
        shared = {}
        if self._federation is not None:
            shared["public_x"] = self._federation.public_x
        return resolve_kwargs(dict(kwargs or {}), shared)

    def _run_inline(self, client, method: str, kwargs: Optional[dict]) -> TaskResult:
        """Execute one stage entry directly on the driver's client object."""
        start = time.perf_counter()
        with self._obs.profile_model(getattr(client, "model_name", None)):
            value = getattr(client, method)(**self._resolve_inline_kwargs(kwargs))
        return TaskResult(
            client_id=client.client_id,
            value=value,
            duration_s=time.perf_counter() - start,
        )


class SerialExecutor(Executor):
    """Inline execution in participant order — the historical behaviour."""

    name = "serial"

    def run_stage(self, clients, method, kwargs=None, stage=None):
        stage = stage or method
        clients = list(clients)
        start = time.perf_counter()
        with self._stage_span(stage, len(clients)), self._profile_stage(stage):
            results = [self._run_inline(c, method, kwargs) for c in clients]
            self._publish_outcomes(stage, results)
        self._record_time(stage, time.perf_counter() - start)
        return [r.value for r in results], []


class ParallelExecutor(Executor):
    """Process-pool execution with fault-tolerant workers.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to ``min(num_clients, os.cpu_count())``.
    task_timeout_s:
        Seconds to wait for each task's result while collecting; ``None``
        waits indefinitely.  On timeout the pool is recycled and the task
        retried; once retries are exhausted the client becomes a runtime
        dropout for the round.
    task_retries:
        Extra attempts after the first, for timeouts and worker deaths.
    retry_backoff_s:
        Base of the capped exponential backoff slept before each retry
        resubmission: attempt ``k`` waits
        ``min(cap, retry_backoff_s * 2**(k-1))`` scaled into ``[50%,
        100%]`` by a *seeded* jitter draw, so retry timing is reproducible
        for a fixed ``backoff_seed`` yet never synchronises colliding
        retries.  0 (the default) retries immediately — the historical
        behaviour.
    backoff_seed:
        Seed of the jitter stream (defaults to the federation seed via
        :func:`make_executor`).
    """

    name = "parallel"
    # pool collapses tolerated per stage before degrading to inline
    _MAX_RECYCLES_PER_STAGE = 3
    # ceiling on a single backoff sleep, however many retries accumulate
    _BACKOFF_CAP_S = 30.0

    def __init__(
        self,
        max_workers: Optional[int] = None,
        task_timeout_s: Optional[float] = None,
        task_retries: int = 1,
        retry_backoff_s: float = 0.0,
        backoff_seed: int = 0,
    ) -> None:
        super().__init__()
        if task_retries < 0:
            raise ValueError("task_retries must be >= 0")
        if task_timeout_s is not None and task_timeout_s <= 0:
            raise ValueError("task_timeout_s must be positive")
        if retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")
        self.max_workers = max_workers
        self.task_timeout_s = task_timeout_s
        self.task_retries = task_retries
        self.retry_backoff_s = retry_backoff_s
        self._backoff_rng = np.random.default_rng(backoff_seed)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._warned_inline = False

    # ------------------------------------------------------------------
    # pool lifecycle
    # ------------------------------------------------------------------
    def _build_specs(self) -> Tuple[Dict[int, ClientSpec], Dict[str, Any]]:
        specs: Dict[int, ClientSpec] = {}
        for client in self._federation.clients:
            if client.model_name is None:
                continue
            specs[client.client_id] = ClientSpec(
                client_id=client.client_id,
                model_name=client.model_name,
                num_classes=client.num_classes,
                image_shape=tuple(client.x_train.shape[1:]),
                feature_dim=client.model.feature_dim,
                x_train=client.x_train,
                y_train=client.y_train,
                x_test=client.x_test,
                y_test=client.y_test,
            )
        shared = {"public_x": self._federation.public_x}
        return specs, shared

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            if self._federation is None:
                raise RuntimeError("ParallelExecutor must be bound to a federation")
            specs, shared = self._build_specs()
            workers = self.max_workers or min(
                len(self._federation.clients), os.cpu_count() or 1
            )
            self._pool = ProcessPoolExecutor(
                max_workers=max(1, workers),
                initializer=init_worker,
                initargs=(specs, shared),
            )
        return self._pool

    def _recycle_pool(self) -> None:
        if self._pool is not None:
            # cancel_futures drops queued work; a worker stuck in a hung
            # task is abandoned (it exits once the task returns).
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    # ------------------------------------------------------------------
    # task construction / result application
    # ------------------------------------------------------------------
    def _make_task(self, client, method: str, kwargs: dict, stage: str) -> ClientTask:
        return ClientTask(
            client_id=client.client_id,
            method=method,
            kwargs=kwargs,
            state_blob=serialize_state(client.model.state_dict()),
            rng_state=client.rng_state(),
            stage=stage,
            profile=self._obs.profiler is not None,
        )

    def _apply_result(self, client, result: TaskResult) -> None:
        """Fold a worker's state (and profile aggregate) back into the driver."""
        if result.state_blob is not None:
            state, _ = deserialize_state(result.state_blob)
            client.model.load_state_dict(state)
        if result.rng_state is not None:
            client.set_rng_state(result.rng_state)
        if result.profile and self._obs.profiler is not None:
            self._obs.profiler.merge(result.profile)

    # ------------------------------------------------------------------
    # the stage
    # ------------------------------------------------------------------
    def run_stage(self, clients, method, kwargs=None, stage=None):
        stage = stage or method
        clients = list(clients)
        if not clients:
            return [], []
        start = time.perf_counter()
        by_id = {c.client_id: c for c in clients}
        if any(c.model_name is None for c in clients):
            # hand-built clients without a registry spec cannot be shipped
            if not self._warned_inline:
                warnings.warn(
                    "ParallelExecutor: client(s) without model_name; "
                    "running stages inline",
                    RuntimeWarning,
                )
                self._warned_inline = True
            with self._stage_span(stage, len(clients)), self._profile_stage(
                stage
            ):
                results = [self._run_inline(c, method, kwargs) for c in clients]
                self._publish_outcomes(stage, results)
            self._record_time(stage, time.perf_counter() - start)
            return [r.value for r in results], []

        with self._stage_span(stage, len(clients)), self._profile_stage(stage):
            tasks = [
                self._make_task(c, method, dict(kwargs or {}), stage)
                for c in clients
            ]
            outcomes = self._collect(tasks, by_id)
            self._publish_outcomes(stage, outcomes)
            values: List[Any] = []
            failures: List[TaskFailure] = []
            for outcome, client in zip(outcomes, clients):
                if isinstance(outcome, TaskFailure):
                    failures.append(outcome)
                else:
                    self._apply_result(client, outcome)
                    values.append(outcome.value)
            if failures and not values:
                # a stage must not lose every participant: rerun inline (the
                # driver clients are untouched, so this is exactly serial
                # semantics).  A deterministic task exception still propagates.
                results = [self._run_inline(c, method, kwargs) for c in clients]
                self._publish_outcomes(stage, results)
                values = [r.value for r in results]
                failures = []
        self._record_time(stage, time.perf_counter() - start)
        return values, failures

    def _collect(self, tasks: List[ClientTask], by_id: dict) -> List[Outcome]:
        n = len(tasks)
        outcomes: List[Optional[Outcome]] = [None] * n
        attempts = [0] * n
        recycles = 0
        futures = self._submit(tasks, [i for i in range(n)])
        pending = [i for i in range(n)]
        while pending:
            i = pending[0]
            try:
                outcomes[i] = futures[i].result(timeout=self.task_timeout_s)
                pending.pop(0)
                continue
            except FuturesTimeout:
                attempts[i] += 1
                self._harvest(futures, pending, outcomes)
                if attempts[i] > self.task_retries:
                    outcomes[i] = TaskFailure(
                        client_id=tasks[i].client_id,
                        stage=tasks[i].stage,
                        reason="timeout",
                        detail=f"no result within {self.task_timeout_s}s "
                        f"after {attempts[i]} attempt(s)",
                    )
                    pending.pop(0)
            except BrokenExecutor:
                attempts[i] += 1
                self._harvest(futures, pending, outcomes)
                if attempts[i] > self.task_retries:
                    # this task keeps killing workers — run it inline
                    outcomes[i] = self._run_inline(
                        by_id[tasks[i].client_id],
                        tasks[i].method,
                        tasks[i].kwargs,
                    )
                    pending.pop(0)
            # anything else is a genuine task exception raised by client
            # code; it propagates exactly as it would under SerialExecutor

            recycles += 1
            if self._obs.enabled:
                self._obs.tracer.event(
                    "pool_recycle",
                    scope="stage",
                    attrs={"stage": tasks[i].stage, "recycles": recycles},
                )
                if self._obs.metrics.enabled:
                    self._obs.metrics.counter("runtime/pool_recycles").inc()
            self._recycle_pool()
            remaining = [j for j in pending if outcomes[j] is None]
            if recycles > self._MAX_RECYCLES_PER_STAGE:
                # the pool keeps collapsing: finish the stage inline
                for j in remaining:
                    outcomes[j] = self._run_inline(
                        by_id[tasks[j].client_id], tasks[j].method, tasks[j].kwargs
                    )
                break
            self._backoff_sleep(max(attempts[i], 1), tasks[i].stage)
            futures = self._submit(tasks, remaining, futures)
        return [o for o in outcomes if o is not None]

    def _backoff_sleep(self, attempt: int, stage: str) -> float:
        """Sleep the capped exponential backoff before a retry resubmission.

        Returns the seconds slept (0.0 when backoff is disabled).  The
        jitter draw comes from the executor's seeded stream, so the exact
        delay sequence of a run is reproducible.
        """
        if self.retry_backoff_s <= 0:
            return 0.0
        base = min(
            self._BACKOFF_CAP_S, self.retry_backoff_s * (2.0 ** (attempt - 1))
        )
        # "equal jitter": half the delay is deterministic, half scaled by a
        # seeded uniform draw — spreads retries without collapsing to zero
        delay = base * (0.5 + 0.5 * float(self._backoff_rng.random()))
        if self._obs.enabled:
            self._obs.tracer.event(
                "retry_backoff",
                scope="stage",
                attrs={"stage": stage, "attempt": attempt, "backoff_s": delay},
            )
            if self._obs.metrics.enabled:
                self._obs.metrics.counter("runtime/retry_backoffs").inc()
        time.sleep(delay)
        return delay

    def _submit(self, tasks, indices, futures=None):
        futures = dict(futures or {})
        pool = self._ensure_pool()
        for i in indices:
            futures[i] = pool.submit(run_task, tasks[i])
        return futures

    @staticmethod
    def _harvest(futures, pending, outcomes) -> None:
        """Bank results of already-finished tasks before recycling the pool."""
        for j in list(pending):
            fut = futures.get(j)
            if (
                outcomes[j] is None
                and fut is not None
                and fut.done()
                and not fut.cancelled()
                and fut.exception() is None
            ):
                outcomes[j] = fut.result()
                pending.remove(j)

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown
        try:
            self.close()
        except Exception:
            pass


def make_executor(config) -> Executor:
    """Build the executor a :class:`~repro.fl.config.FederationConfig` asks for."""
    kind = config.executor
    if kind == "parallel":
        return ParallelExecutor(
            max_workers=config.max_workers,
            task_timeout_s=config.task_timeout_s,
            task_retries=config.task_retries,
            retry_backoff_s=config.retry_backoff_s,
            backoff_seed=config.seed,
        )
    if kind == "serial":
        return SerialExecutor()
    raise ValueError(f"unknown executor kind '{kind}'")
