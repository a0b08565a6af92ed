"""``SweepProgress`` lines as ``repro sweep`` prints them, in both modes.

Inline, a run's ``running`` line comes right before it starts and its
final line right after it ends; a pool marks every pending run
``running`` up front, then reports each final state in queue order.
"""

import io
import re

import pytest

from repro.sweep import SweepProgress, SweepScheduler

from .test_scheduler import make_spec

LINE = re.compile(r"^\[(\d+)/2\] run ([0-9a-f]{8}) (\S+) (\w+)")


def _progress_lines(tmp_path, run_workers):
    stream = io.StringIO()
    scheduler = SweepScheduler(
        make_spec(algorithms=("fedavg", "fedmd")),
        out_root=str(tmp_path / "out"),
        run_workers=run_workers,
        progress=SweepProgress(0, stream=stream),
    )
    keys = [run.run_key()[:8] for run in scheduler.queue()]
    scheduler.run()
    lines = stream.getvalue().splitlines()
    events = []
    for line in lines[:-1]:
        finished, key, _, state = LINE.match(line).groups()
        events.append((int(finished), keys.index(key), state))
    return events, lines[-1]


@pytest.mark.parametrize(
    "run_workers, expected",
    [
        (1, [(0, 0, "running"), (1, 0, "completed"),
             (1, 1, "running"), (2, 1, "completed")]),
        (2, [(0, 0, "running"), (0, 1, "running"),
             (1, 0, "completed"), (2, 1, "completed")]),
    ],
    ids=["inline", "pool"],
)
def test_running_and_final_lines_keep_their_order(tmp_path, run_workers, expected):
    events, summary = _progress_lines(tmp_path, run_workers)
    assert events == expected
    assert summary == "sweep finished: 2 completed (2/2 runs)"


def test_a_resubmission_reports_cache_hits_only(tmp_path):
    _progress_lines(tmp_path, 1)
    events, summary = _progress_lines(tmp_path, 1)
    assert events == [(1, 0, "cached"), (2, 1, "cached")]
    assert summary == "sweep finished: 2 cached (2/2 runs)"
