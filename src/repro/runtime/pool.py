"""One supervised process pool for every fan-out in the repo.

Its two callers are client stages
(:class:`~repro.runtime.executor.ParallelExecutor`) and whole runs
(:func:`~repro.experiments.harness.run_jobs`, under the sweep scheduler
and ``compare_algorithms``).  Both call :meth:`WorkerPool.run`, which
returns one outcome per payload, in input order: the function's return
value, or :class:`Exhausted` once the item used its ``retries + 1``
attempts.  ``run`` waits on the oldest unfinished
item; its attempt times out ``timeout_s`` after that wait began.  A timeout
or a worker death banks every result that already arrived, kills the
workers and resubmits the rest to new ones.  A death breaks every
in-flight future and so names no culprit: after one, the rest of the call
goes out one item at a time, and only a death while an item is alone in
flight counts as its attempt.  An exception raised by the function itself
propagates, as it would from an inline call.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor, wait
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

__all__ = ["TIMEOUT", "WORKER_DEATH", "Exhausted", "WorkerPool", "usable_cores"]

TIMEOUT = "timeout"
WORKER_DEATH = "worker death"

#: Seconds between ``on_wait`` calls while ``run`` waits on a worker.
_POLL_S = 0.5


def usable_cores(n: int) -> int:
    """``min(n, cores this process may run on)``, at least 1: the worker
    count of a fan-out over ``n`` items.  The cores are the process's CPU
    affinity set where the platform has one (a container or ``taskset``
    may allow fewer than ``os.cpu_count()``)."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return max(1, min(n, cores))


class Exhausted(NamedTuple):
    """An item that used up its attempts without a result."""

    cause: str  # TIMEOUT | WORKER_DEATH
    attempts: int


class WorkerPool:
    """A :class:`ProcessPoolExecutor` under the fault contract above.

    Workers start on the first submission, so ``run([])`` starts no
    process, and are replaced only when a fault forces it: a caller whose
    workers cache state (the client executor) keeps one pool across calls.
    ``recycles`` counts the replacements.
    """

    def __init__(self, max_workers: int, initializer=None, initargs: tuple = ()):
        self.max_workers = max_workers
        self._initializer = initializer
        self._initargs = initargs
        self._executor: Optional[ProcessPoolExecutor] = None
        self.recycles = 0

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        timeout_s: Optional[float] = None,
        retries: int = 0,
        on_wait: Optional[Callable[[List[int]], None]] = None,
    ) -> List[Any]:
        """``fn(payload)`` for every payload, one outcome each, in order.

        ``on_wait(pending)`` runs on every poll while this call waits,
        with the indices of the payloads that have no outcome yet.
        """
        results: Dict[int, Any] = {}
        attempts = [0] * len(payloads)
        queue = list(range(len(payloads)))  # items without an outcome
        futures: Dict[int, Future] = {}
        alone = False  # set by the first worker death of this call
        while queue:
            head = queue[0]
            in_flight = queue[:1] if alone else queue
            try:
                for i in in_flight:
                    if i not in futures:
                        futures[i] = self._pool().submit(fn, payloads[i])
                if self._await(futures[head], timeout_s, on_wait, queue):
                    results[head] = futures.pop(head).result()
                    queue.pop(0)
                    continue
                cause = TIMEOUT
            except BrokenExecutor:
                cause = WORKER_DEATH
                alone = True
            if cause == TIMEOUT or len(in_flight) == 1:
                attempts[head] += 1
            for i, future in futures.items():
                if future.done() and future.exception() is None:
                    results[i] = future.result()
            if head not in results and attempts[head] > retries:
                results[head] = Exhausted(cause, attempts[head])
            queue = [i for i in queue if i not in results]
            futures.clear()
            self._replace_workers()
        return [results[i] for i in range(len(payloads))]

    def close(self) -> None:
        """Shut the workers down once their current work is done."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    # ------------------------------------------------------------------
    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=self._initializer,
                initargs=self._initargs,
            )
        return self._executor

    @staticmethod
    def _await(future: Future, timeout_s, on_wait, pending) -> bool:
        """Wait for ``future``; False once its deadline has passed."""
        deadline = time.perf_counter() + (math.inf if timeout_s is None else timeout_s)
        while not wait([future], min(_POLL_S, deadline - time.perf_counter())).done:
            if time.perf_counter() >= deadline:
                return False
            if on_wait is not None:
                on_wait(pending)
        return True

    def _replace_workers(self) -> None:
        """Kill the current workers; the next submission starts new ones.

        ``shutdown`` alone leaves a hung worker running until its task
        returns, and interpreter exit waits for it.  Python 3.14 adds
        ``ProcessPoolExecutor.terminate_workers``; before it there is no
        public handle, so this kills the processes in the executor's
        private ``_processes`` map (pid -> Process), which is what the 3.14
        method does.  CI runs this on Python 3.10 and 3.12.
        """
        self.recycles += 1
        executor, self._executor = self._executor, None
        processes = list((executor._processes or {}).values())
        executor.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            process.kill()
        for process in processes:
            process.join()
