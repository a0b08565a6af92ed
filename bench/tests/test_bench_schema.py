"""BENCHMARK.json and bench/schema.py say the same thing, within the contract."""

import json
import os
import re
from typing import List

from bench import ROOT
from bench.schema import (
    END_TO_END,
    END_TO_END_BY_NAME,
    NAME_RE,
    PER_LAYER,
    WORKLOADS,
    benchmark_json,
)


def validate_manifest(manifest: dict) -> List[str]:
    """Problems with a ``BENCHMARK.json`` against the builder's contract."""
    problems: List[str] = []
    expected = {"command", "paths", "run_seconds", "workloads", "end_to_end",
                "per_layer"}
    if set(manifest) != expected:
        problems.append(f"keys are {sorted(manifest)}")
        return problems
    names: List[str] = []
    for group, keys in (
        ("workloads", {"name", "why"}),
        ("end_to_end", {"name", "unit", "better", "bound"}),
        ("per_layer", {"name", "unit", "better"}),
    ):
        for entry in manifest[group]:
            if set(entry) != keys:
                problems.append(f"{group} entry has keys {sorted(entry)}")
                continue
            names.append(entry["name"])
            if not NAME_RE.match(entry["name"]):
                problems.append(f"bad name '{entry['name']}'")
            if "why" in entry and (len(entry["why"]) > 200 or "\n" in entry["why"]):
                problems.append(f"why of '{entry['name']}' is not one short line")
            if "unit" in entry and not re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", entry["unit"]):
                problems.append(f"bad unit '{entry['unit']}'")
            if "better" in entry and entry["better"] not in ("lower", "higher"):
                problems.append(f"bad better '{entry['better']}'")
            if "bound" in entry and not 0 <= entry["bound"] <= 0.25:
                problems.append(f"bound of '{entry['name']}' outside [0, 0.25]")
    if len(names) != len(set(names)):
        problems.append("a name is used twice")
    if not 2 <= len(manifest["workloads"]) <= 8:
        problems.append("need 2..8 workloads")
    if not 1 <= len(manifest["end_to_end"]) <= 16:
        problems.append("need 1..16 end_to_end metrics")
    if not 1 <= len(manifest["per_layer"]) <= 128:
        problems.append("need 1..128 per_layer metrics")
    setup = [m for m in manifest["end_to_end"] if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        problems.append("setup_s (s, lower) is required")
    if not (isinstance(manifest["run_seconds"], int) and 1 <= manifest["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number in 1..60")
    return problems


def _manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as f:
        return json.load(f)


def test_committed_manifest_is_generated_from_schema():
    assert _manifest() == benchmark_json()


def test_manifest_meets_the_contract():
    manifest = _manifest()
    assert validate_manifest(manifest) == []
    assert len(manifest["workloads"]) == 6
    assert len(manifest["end_to_end"]) <= 16
    assert len(manifest["per_layer"]) <= 128
    assert len(json.dumps(manifest)) < 64 * 1024
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in manifest[group]:
            assert NAME_RE.match(entry["name"]), entry["name"]
    # the driver appends --workload/--seed/--seconds/--trace to this
    assert manifest["command"] == ["python3", "-m", "bench", "measure"]
    assert manifest["paths"] == ["bench"]


def test_contract_end_to_end_metrics_are_never_zero_or_null():
    # speedup_vs_serial is null off parallel_clients and fail_ratio is 0 on
    # a healthy run, so neither may be listed in BENCHMARK.json
    listed = {m["name"] for m in _manifest()["end_to_end"]}
    assert listed == {"wall_s", "setup_s", "peak_rss_mb", "comm_mb"}
    assert max(m["bound"] for m in _manifest()["end_to_end"]) == \
        END_TO_END_BY_NAME["setup_s"].bound


def test_every_per_layer_metric_names_what_it_should_move():
    end_to_end = {m.name for m in END_TO_END}
    for metric in PER_LAYER:
        assert metric.moves in end_to_end, metric.name
        assert metric.workloads, metric.name
        assert set(metric.workloads) <= set(WORKLOADS), metric.name


def test_validate_manifest_rejects_a_broken_file():
    manifest = benchmark_json()
    manifest["end_to_end"][0]["bound"] = 0.5
    manifest["per_layer"][0]["name"] = "bad name"
    problems = validate_manifest(manifest)
    assert any("bound" in p for p in problems)
    assert any("bad name" in p for p in problems)
