"""``python -m bench compare A.json B.json``: B against the baseline A.

One row per (workload, end-to-end metric) with both medians and quartiles,
the ratio B/A (base = A), and a verdict:

- ``regressed``  — B's median is worse than A's by more than the bound;
- ``unresolved`` — the run-to-run spread (IQR / median, the wider of the
  two files) exceeds the bound and the two sets of runs overlap, so the
  files cannot tell a change of that size from noise;
- ``improved``   — B is better by more than A's own interquartile range;
- ``ok``         — none of the above.

Exit 1 on any ``regressed``.  Per-layer deltas are printed below the table
and never gated: a layer number explains an end-to-end change, it does not
justify one.
"""

from __future__ import annotations

from typing import List, Tuple

from .schema import END_TO_END, EndToEnd


def worsening(metric: EndToEnd, base: float, new: float) -> float:
    """Signed share of the base by which ``new`` is worse (negative =
    better).  A zero base cannot take a share: any move is ±infinity."""
    delta = new - base if metric.better == "lower" else base - new
    if base == 0:
        return 0.0 if delta == 0 else float("inf") * (1 if delta > 0 else -1)
    return delta / abs(base)


def verdict(metric: EndToEnd, a: dict, b: dict) -> str:
    worse = worsening(metric, a["median"], b["median"])
    spread = max(
        (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0
        for s in (a, b)
    )
    overlap = a["min"] <= b["max"] and b["min"] <= a["max"]
    if worse != 0 and spread > metric.bound and overlap:
        return "unresolved"
    if worse > metric.bound:
        return "regressed"
    if worse < 0 and abs(b["median"] - a["median"]) > a["q3"] - a["q1"]:
        return "improved"
    return "ok"


def compare(a: dict, b: dict) -> Tuple[List[str], bool]:
    """``(report lines, any regression)`` for two result files."""
    lines = [
        f"{'workload':<17} {'metric':<18} {'A median [q1, q3]':<30} "
        f"{'B median [q1, q3]':<30} {'B/A':>7}  verdict"
    ]
    regressed = False
    layer_lines: List[str] = []
    for name, block_a in a["workloads"].items():
        block_b = b["workloads"].get(name)
        if block_b is None:
            lines.append(f"{name:<17} (absent from B)")
            continue
        for metric in END_TO_END:
            sa = block_a["end_to_end"].get(metric.name)
            sb = block_b["end_to_end"].get(metric.name)
            if sa is None or sb is None:
                continue
            result = verdict(metric, sa, sb)
            regressed = regressed or result == "regressed"
            ratio = f"{sb['median'] / sa['median']:.3f}" if sa["median"] else "n/a"
            lines.append(
                f"{name:<17} {metric.name:<18} {_cell(sa):<30} {_cell(sb):<30} "
                f"{ratio:>7}  {result}"
            )
        for key, va in block_a["per_layer"].items():
            vb = block_b["per_layer"].get(key)
            if vb is not None and va != vb and (va or vb):
                ratio = f"{vb / va:.3f}" if va else "n/a"
                layer_lines.append(
                    f"{name:<17} {key:<36} {va:>14.4f} -> {vb:>14.4f}  B/A {ratio}"
                )
    if layer_lines:
        lines.append("")
        lines.append("per-layer deltas (traced rep, never gated; base = A):")
        lines.extend(layer_lines)
    return lines, regressed


def _cell(summary: dict) -> str:
    return (f"{summary['median']:.4f} [{summary['q1']:.4f}, {summary['q3']:.4f}] "
            f"n={summary['n']}")
