"""End-to-end self-tests: they start real child processes (about a minute)."""

import json
import os
import shutil
import subprocess
import sys

from bench import ROOT
from bench.schema import validate_result

FAST = "fedpkd_mlp,sweep_grid,cohort_async"


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "-m", "bench", *args], cwd=cwd, capture_output=True,
        text=True, timeout=600,
    )


def _smoke(tmp_path, name, *extra):
    out = tmp_path / name
    proc = _bench("run", "--smoke", "--out", str(out), *extra)
    with open(out, "r", encoding="utf-8") as f:
        return proc, json.load(f)


def test_two_smoke_runs_agree_exactly_on_everything_that_is_not_a_time(tmp_path):
    proc_a, a = _smoke(tmp_path, "a.json", "--workloads", FAST)
    proc_b, b = _smoke(tmp_path, "b.json", "--workloads", FAST)
    assert proc_a.returncode == 0, proc_a.stdout + proc_a.stderr
    assert proc_b.returncode == 0, proc_b.stdout + proc_b.stderr
    assert validate_result(a) == [] and validate_result(b) == []
    assert os.path.exists(str(tmp_path / "a.json") + ".spans.json")
    for name in FAST.split(","):
        block_a, block_b = a["workloads"][name], b["workloads"][name]
        assert block_a["counts"] == block_b["counts"]
        assert block_a["history_sha256"] == block_b["history_sha256"]
        assert block_a["end_to_end"]["comm_mb"]["values"] == \
            block_b["end_to_end"]["comm_mb"]["values"]
        assert block_a["failed"] == 0 and block_a["attempted"] > 0
        # traced counts repeat exactly too
        for key in ("nn.op_calls", "fl.channel.payloads", "fl.registry.spills",
                    "fl.checkpoint.saves", "sweep.cached"):
            assert block_a["per_layer"][key] == block_b["per_layer"][key], key
        assert block_a["traced"]["attributed_share"] >= 0.90
    # every metric is printed by name with its unit
    assert "wall_s" in proc_a.stdout and "fl.registry.spills" in proc_a.stdout
    # nothing is left behind in the repository tree
    assert not os.path.exists(os.path.join(ROOT, ".bench_tmp"))


def test_an_injected_failing_check_fails_the_run(tmp_path):
    proc, result = _smoke(tmp_path, "fail.json", "--workloads", "cohort_async",
                          "--inject-failure", "cohort_async")
    assert proc.returncode == 1
    block = result["workloads"]["cohort_async"]
    assert block["failed"] >= 1
    assert block["end_to_end"]["fail_ratio"]["median"] > 0
    assert "CHECK FAILED: injected failure" in proc.stdout


def test_measure_prints_the_contract_line(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as f:
        manifest = json.load(f)
    proc = _bench("measure", "--workload", "cohort_async", "--seed", "7",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in manifest["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_measure_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("measure", "--workload", "cohort_async", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
