"""The fault contract of :class:`repro.runtime.pool.WorkerPool`.

Both fan-outs (client stages, sweep runs) rely on it, so it is checked
once here with toy module-level functions and no federation.
"""

import multiprocessing
import os
import time

from repro.runtime.pool import TIMEOUT, WORKER_DEATH, Exhausted, WorkerPool


def _sleep_then_square(payload):
    index, delay = payload
    time.sleep(delay)
    return index * index


def _logged(payload):
    """Append the item's index to a log, then sleep for its delay."""
    log, index, delay = payload
    with open(log, "a", encoding="utf-8") as f:
        f.write(f"{index}\n")
    time.sleep(delay)
    return index


def _die_on_one(payload):
    index, delay = payload
    if index == 1:
        os._exit(1)
    time.sleep(delay)
    return index


def _record_pid_and_hang(path):
    with open(path, "w", encoding="utf-8") as f:
        f.write(str(os.getpid()))
    time.sleep(60.0)


def test_outcomes_follow_input_order_under_shuffled_finish_times():
    delays = [0.3, 0.0, 0.2, 0.05, 0.25, 0.0, 0.1]
    with WorkerPool(3) as pool:
        outcomes = pool.run(
            _sleep_then_square, list(enumerate(delays)), timeout_s=30.0
        )
    assert outcomes == [i * i for i in range(len(delays))]
    assert pool.recycles == 0


def test_finished_items_are_banked_not_rerun_across_a_recycle(tmp_path):
    log = tmp_path / "executions.log"
    delays = [0.0, 0.0, 0.0, 60.0, 0.0, 0.0]  # item 3 outlives its deadline
    with WorkerPool(2) as pool:
        outcomes = pool.run(
            _logged,
            [(str(log), i, d) for i, d in enumerate(delays)],
            timeout_s=2.0,
            retries=0,
        )
    assert outcomes == [0, 1, 2, Exhausted(TIMEOUT, 1), 4, 5]
    assert pool.recycles == 1
    assert sorted(log.read_text().split()) == ["0", "1", "2", "3", "4", "5"]


def test_timeout_exhausts_after_retries_plus_one_attempts(tmp_path):
    log = tmp_path / "executions.log"
    with WorkerPool(1) as pool:
        outcomes = pool.run(_logged, [(str(log), 0, 60.0)], timeout_s=0.5, retries=2)
    assert outcomes == [Exhausted(TIMEOUT, 3)]
    assert log.read_text().split() == ["0", "0", "0"]


def test_a_worker_death_is_charged_only_to_the_item_that_died_alone():
    # item 1 kills its worker while item 0 is in flight beside it
    payloads = [(0, 0.5), (1, 0.0), (2, 0.0), (3, 0.0)]
    with WorkerPool(2) as pool:
        outcomes = pool.run(_die_on_one, payloads, timeout_s=30.0, retries=0)
    assert outcomes == [0, Exhausted(WORKER_DEATH, 1), 2, 3]


def test_a_timed_out_worker_is_killed_not_abandoned(tmp_path):
    pid_file = tmp_path / "pid"
    with WorkerPool(1) as pool:
        outcomes = pool.run(
            _record_pid_and_hang, [str(pid_file)], timeout_s=0.5, retries=0
        )
        assert outcomes == [Exhausted(TIMEOUT, 1)]
        pid = int(pid_file.read_text())
        assert pid not in [p.pid for p in multiprocessing.active_children()]


def test_empty_run_starts_no_worker():
    before = set(multiprocessing.active_children())
    with WorkerPool(2) as pool:
        assert pool.run(_sleep_then_square, []) == []
        assert not set(multiprocessing.active_children()) - before
