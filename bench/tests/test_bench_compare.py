"""``compare`` verdicts on synthetic result files."""

import copy

from bench.compare import compare, verdict, worsening
from bench.driver import summarize
from bench.schema import END_TO_END, END_TO_END_BY_NAME, EndToEnd

# the verdict rules are tested at fixed bounds, whatever the schema's are
WALL = EndToEnd("wall_s", "s", "lower", 0.10, True, "")
EXACT = EndToEnd("bytes_mb", "MB", "lower", 0.0, True, "")
SPEEDUP = EndToEnd("speedup_vs_serial", "ratio", "higher", 0.10, False, "")
FAIL = END_TO_END_BY_NAME["fail_ratio"]


def test_tight_runs_resolve_a_regression_and_an_improvement():
    base = summarize([10.0, 10.1, 10.2, 9.9, 10.0])
    assert verdict(WALL, base, summarize([10.3, 10.4, 10.2, 10.3, 10.5])) == "ok"
    assert verdict(WALL, base, summarize([11.5, 11.6, 11.4, 11.5, 11.7])) == "regressed"
    assert verdict(WALL, base, summarize([9.0, 9.1, 8.9, 9.0, 9.2])) == "improved"


def test_wide_overlapping_runs_are_unresolved_not_unchanged():
    # IQR/median is ~30%, far above the 10% bound, and the runs overlap:
    # neither "regressed" nor "ok" can be claimed
    a = summarize([8.0, 10.0, 12.0, 9.0, 11.0])
    b = summarize([9.0, 12.0, 14.0, 10.0, 13.0])
    assert verdict(WALL, a, b) == "unresolved"
    # the same spread, but every run of B is worse than every run of A
    c = summarize([18.0, 20.0, 22.0, 19.0, 21.0])
    assert verdict(WALL, a, c) == "regressed"


def test_higher_is_better_and_exact_metrics():
    a = summarize([1.30, 1.31, 1.29])
    assert worsening(SPEEDUP, 1.30, 1.04) > SPEEDUP.bound
    assert verdict(SPEEDUP, a, summarize([1.04, 1.05, 1.03])) == "regressed"
    assert verdict(SPEEDUP, a, summarize([1.50, 1.51, 1.49])) == "improved"
    same = summarize([0.85, 0.85, 0.85])
    assert verdict(EXACT, same, same) == "ok"
    assert verdict(EXACT, same, summarize([0.86, 0.86, 0.86])) == "regressed"
    assert verdict(EXACT, same, summarize([0.80, 0.80, 0.80])) == "improved"
    zero = summarize([0.0, 0.0])
    assert verdict(FAIL, zero, zero) == "ok"
    assert verdict(FAIL, zero, summarize([0.1, 0.1])) == "regressed"


def _result(wall, layer=1.0):
    block = {
        "end_to_end": {m.name: None for m in END_TO_END},
        "per_layer": {"nn.matmul_s": layer, "nn.op_calls": 10},
    }
    block["end_to_end"]["wall_s"] = summarize(wall)
    block["end_to_end"]["comm_mb"] = summarize([0.5] * len(wall))
    return {"workloads": {"fedpkd_mlp": block}}


def test_compare_reports_rows_layer_deltas_and_the_exit_flag():
    a = _result([10.0, 10.1, 9.9])
    lines, regressed = compare(a, copy.deepcopy(a))
    assert not regressed
    assert sum("fedpkd_mlp" in line for line in lines) == 2  # null metrics skipped
    assert not any("per-layer" in line for line in lines)

    worse = 10.0 * (1.0 + 2 * END_TO_END_BY_NAME["wall_s"].bound)
    lines, regressed = compare(a, _result([worse, worse + 0.1, worse - 0.1], layer=2.0))
    assert regressed
    assert any("wall_s" in line and "regressed" in line and f"{worse / 10.0:.3f}" in line
               for line in lines)
    # per-layer deltas are printed with their base and never gated
    assert any("nn.matmul_s" in line and "B/A 2.000" in line for line in lines)
    assert not any("nn.op_calls" in line for line in lines)
