"""Trace/metrics schema validation behind ``repro lint --traces``.

The importable core of that mode: validate a JSONL trace (and optionally
a metrics export) against the :mod:`repro.obs` schema, then check that
expected scopes and span/event names actually occur.  CI exercises it through the same ``repro lint``
entrypoint as the static rules, so there is one gate to wire, not two.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

__all__ = ["TraceValidation", "validate_traces"]


@dataclass
class TraceValidation:
    """Outcome of one ``--traces`` validation pass."""

    ok: bool
    messages: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)


def validate_traces(
    trace_path: str,
    metrics_path: Optional[str] = None,
    expect_scopes: Sequence[str] = (),
    expect_events: Sequence[str] = (),
) -> TraceValidation:
    """Validate ``trace_path`` (and optionally ``metrics_path``).

    Returns a :class:`TraceValidation`; ``ok`` is False on any schema
    violation, unreadable file, or missing expectation.
    """
    from ..obs import SchemaError, validate_metrics_file, validate_trace_file

    result = TraceValidation(ok=True)

    try:
        count = validate_trace_file(trace_path)
    except (SchemaError, OSError) as exc:
        result.ok = False
        result.errors.append(f"INVALID {trace_path}: {exc}")
        return result
    result.messages.append(f"ok {trace_path}: {count} records")

    if expect_scopes or expect_events:
        with open(trace_path) as f:
            records = [json.loads(line) for line in f if line.strip()]
        scopes = {r.get("scope") for r in records} - {None}
        names = {r["name"] for r in records}
        missing_scopes = sorted(set(expect_scopes) - scopes)
        missing_events = sorted(set(expect_events) - names)
        if missing_scopes:
            result.ok = False
            result.errors.append(f"missing scopes: {missing_scopes}")
        if missing_events:
            result.ok = False
            result.errors.append(f"missing events: {missing_events}")
        if not missing_scopes and not missing_events:
            result.messages.append(f"ok expectations: scopes={sorted(scopes)}")

    if metrics_path:
        try:
            count = validate_metrics_file(metrics_path)
        except (SchemaError, OSError) as exc:
            result.ok = False
            result.errors.append(f"INVALID {metrics_path}: {exc}")
            return result
        result.messages.append(f"ok {metrics_path}: {count} metrics")

    return result
