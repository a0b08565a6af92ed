"""The benchmark's correctness contract, run from tier-1.

``testpaths`` does not reach ``bench/``, so a change under ``src/`` that
makes a benchmark workload fail a check, or drops an extras key / trace
event / profiler op name that ``bench/layers.py`` reads, would otherwise be
noticed only when the benchmark itself is run.  One traced smoke rep per
workload, each in its own child process exactly as the benchmark starts it.
"""

import json
import math
import os
import subprocess
import sys

import pytest

pytestmark = pytest.mark.slow

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _f:
    MANIFEST = json.load(_f)


@pytest.mark.parametrize("workload", [w["name"] for w in MANIFEST["workloads"]])
def test_traced_smoke_rep_is_correct_and_fills_every_layer_metric(workload, tmp_path):
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-m", "bench.child", "--workload", workload, "--seed", "0",
         "--smoke", "--traced", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        # the registry's spill store asks tempfile for a directory
        env=dict(os.environ, TMPDIR=str(tmp_path)),
    )
    assert proc.returncode == 0, (proc.stdout + proc.stderr)[-2000:]
    with open(out, "r", encoding="utf-8") as f:
        result = json.load(f)
    assert result["attempted"] > 0
    assert result["failed"] == 0, [c for c in result["checks"] if not c["ok"]]
    for metric in MANIFEST["per_layer"]:
        value = result["per_layer"].get(metric["name"])
        assert isinstance(value, (int, float)) and not isinstance(value, bool), metric["name"]
        assert math.isfinite(value), metric["name"]
