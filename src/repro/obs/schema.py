"""The trace/metrics wire schema and its validator.

Every line a :class:`~repro.obs.tracer.Tracer` writes is one JSON object
with ``"v": SCHEMA_VERSION`` and one of three record types:

``span``
    A completed timed region.  Fields: ``name``, ``scope`` (one of
    :data:`SCOPES`), ``ts`` (monotonic start, seconds since the tracer
    epoch), ``dur_s``, ``span_id``, ``parent_id`` (``null`` at top level),
    ``seq``, ``attrs``.
``event``
    A point-in-time observation.  Fields: ``name``, ``scope``, ``ts``,
    ``parent_id`` (the enclosing span, or ``null``), ``seq``, ``attrs``.
``marker``
    A file-level lifecycle record.  ``name`` is one of :data:`MARKERS`;
    fields: ``ts``, ``unix_ts`` (wall clock, for cross-process alignment),
    ``seq``, ``attrs``.  Every process that writes to a trace file opens it
    with a marker (``run_start`` for a fresh file, ``resume`` when
    appending to an existing one), and ``seq`` restarts at 0 there.

``attrs`` values are JSON scalars (string / bool / int / float / null) or
flat lists of scalars — nothing deeper, so any line-oriented tool can
consume a trace without recursion.

Metric export lines (see :meth:`~repro.obs.metrics.MetricsRegistry.export`)
are validated by :func:`validate_metrics_record`.

The validator raises :class:`SchemaError` with a message naming the
offending field; the CI smoke job runs it over every line of a real traced
run (``repro trace validate``), together with the scopes and span/event
names that run must have produced.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, Optional, Sequence

__all__ = [
    "SCHEMA_VERSION",
    "RECORD_TYPES",
    "SCOPES",
    "MARKERS",
    "METRIC_KINDS",
    "SchemaError",
    "validate_record",
    "validate_trace_lines",
    "validate_trace_file",
    "validate_metrics_record",
    "validate_metrics_file",
]

SCHEMA_VERSION = 1

RECORD_TYPES = ("span", "event", "marker")

#: Granularity levels of spans/events, outermost first.  ``engine`` covers
#: the async round engine's dispatch/arrival/fault events
#: (:mod:`repro.fl.async_engine`).
SCOPES = (
    "run",
    "round",
    "stage",
    "client",
    "server",
    "checkpoint",
    "engine",
    "profile",
)

#: Allowed marker names.
MARKERS = ("run_start", "resume", "run_end")

METRIC_KINDS = ("counter", "gauge", "histogram")

_SCALAR_TYPES = (str, bool, int, float, type(None))


class SchemaError(ValueError):
    """A trace/metrics record violates the documented schema."""


def _fail(message: str, line: Optional[int]) -> None:
    prefix = f"line {line}: " if line is not None else ""
    raise SchemaError(prefix + message)


def _require(record: Dict[str, Any], key: str, line: Optional[int]) -> Any:
    if key not in record:
        _fail(f"missing required field '{key}'", line)
    return record[key]


def _check_number(value: Any, key: str, line: Optional[int], minimum=None) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"field '{key}' must be a number, got {type(value).__name__}", line)
    if value != value:  # NaN
        _fail(f"field '{key}' must be finite, got NaN", line)
    if minimum is not None and value < minimum:
        _fail(f"field '{key}' must be >= {minimum}, got {value}", line)


def _check_attrs(value: Any, line: Optional[int]) -> None:
    if not isinstance(value, dict):
        _fail(f"field 'attrs' must be an object, got {type(value).__name__}", line)
    for key, item in value.items():
        if not isinstance(key, str):
            _fail(f"attrs key {key!r} must be a string", line)
        if isinstance(item, list):
            for element in item:
                if not isinstance(element, _SCALAR_TYPES):
                    _fail(
                        f"attrs['{key}'] list elements must be JSON scalars, "
                        f"got {type(element).__name__}",
                        line,
                    )
        elif not isinstance(item, _SCALAR_TYPES):
            _fail(
                f"attrs['{key}'] must be a JSON scalar or a flat list, got "
                f"{type(item).__name__}",
                line,
            )


def validate_record(record: Any, line: Optional[int] = None) -> str:
    """Validate one trace record; returns its type.

    ``line`` (1-based) is only used to prefix error messages.
    """
    if not isinstance(record, dict):
        _fail(f"record must be a JSON object, got {type(record).__name__}", line)
    version = _require(record, "v", line)
    if version != SCHEMA_VERSION:
        _fail(f"unknown schema version {version!r} (expected {SCHEMA_VERSION})", line)
    rtype = _require(record, "type", line)
    if rtype not in RECORD_TYPES:
        _fail(f"unknown record type {rtype!r} (expected one of {RECORD_TYPES})", line)
    name = _require(record, "name", line)
    if not isinstance(name, str) or not name:
        _fail("field 'name' must be a non-empty string", line)
    _check_number(_require(record, "ts", line), "ts", line, minimum=0.0)
    seq = _require(record, "seq", line)
    if isinstance(seq, bool) or not isinstance(seq, int) or seq < 0:
        _fail(f"field 'seq' must be a non-negative integer, got {seq!r}", line)
    _check_attrs(_require(record, "attrs", line), line)

    if rtype == "marker":
        if name not in MARKERS:
            _fail(f"unknown marker {name!r} (expected one of {MARKERS})", line)
        _check_number(_require(record, "unix_ts", line), "unix_ts", line, minimum=0.0)
        return rtype

    scope = _require(record, "scope", line)
    if scope not in SCOPES:
        _fail(f"unknown scope {scope!r} (expected one of {SCOPES})", line)
    parent = _require(record, "parent_id", line)
    if parent is not None and (isinstance(parent, bool) or not isinstance(parent, int)):
        _fail(f"field 'parent_id' must be an integer or null, got {parent!r}", line)

    if rtype == "span":
        span_id = _require(record, "span_id", line)
        if isinstance(span_id, bool) or not isinstance(span_id, int) or span_id < 1:
            _fail(f"field 'span_id' must be a positive integer, got {span_id!r}", line)
        _check_number(_require(record, "dur_s", line), "dur_s", line, minimum=0.0)
    return rtype


def validate_trace_lines(
    lines: Iterable[str],
    expect_scopes: Sequence[str] = (),
    expect_events: Sequence[str] = (),
) -> int:
    """Validate a whole trace, line by line; returns the record count.

    Beyond per-record checks this enforces the file-level invariants: the
    first record of the file is a marker, and ``seq`` increases by exactly
    one between consecutive records except across a marker (each writing
    process restarts its sequence at its opening marker).  In the same
    pass it collects the scopes and span/event names seen, and fails if
    any of ``expect_scopes``/``expect_events`` never occurs.
    """
    count = 0
    expected_seq: Optional[int] = None
    scopes = set()
    names = set()
    for lineno, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            _fail("blank line inside trace", lineno)
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            _fail(f"not valid JSON: {exc}", lineno)
        rtype = validate_record(record, line=lineno)
        if count == 0 and rtype != "marker":
            _fail(
                "first record must be a 'run_start' or 'resume' marker, got "
                f"a {rtype}",
                lineno,
            )
        if rtype == "marker":
            expected_seq = record["seq"] + 1
        else:
            if record["seq"] != expected_seq:
                _fail(
                    f"out-of-order seq {record['seq']} (expected "
                    f"{expected_seq}); the trace is corrupt or interleaved",
                    lineno,
                )
            expected_seq += 1
            scopes.add(record["scope"])
        names.add(record["name"])
        count += 1
    if count == 0:
        raise SchemaError("trace is empty")
    missing = [
        f"missing {kind}: {sorted(set(wanted) - seen)}"
        for kind, wanted, seen in (
            ("scopes", expect_scopes, scopes),
            ("events", expect_events, names),
        )
        if set(wanted) - seen
    ]
    if missing:
        raise SchemaError("; ".join(missing))
    return count


def validate_trace_file(
    path: str,
    expect_scopes: Sequence[str] = (),
    expect_events: Sequence[str] = (),
) -> int:
    """Validate a JSONL trace file; returns the record count."""
    with open(path, "r", encoding="utf-8") as f:
        return validate_trace_lines(f, expect_scopes, expect_events)


def validate_metrics_record(record: Any, line: Optional[int] = None) -> str:
    """Validate one metrics-export JSONL record; returns its kind."""
    if not isinstance(record, dict):
        _fail(f"record must be a JSON object, got {type(record).__name__}", line)
    metric = _require(record, "metric", line)
    if not isinstance(metric, str) or "/" not in metric:
        _fail(f"field 'metric' must be a 'scope/name' string, got {metric!r}", line)
    kind = _require(record, "kind", line)
    if kind not in METRIC_KINDS:
        _fail(f"unknown metric kind {kind!r} (expected one of {METRIC_KINDS})", line)
    if kind in ("counter", "gauge"):
        value = _require(record, "value", line)
        if value is not None:  # a never-set gauge exports null
            _check_number(value, "value", line)
    else:
        _check_number(_require(record, "count", line), "count", line, minimum=0)
        _check_number(_require(record, "sum", line), "sum", line)
        buckets = _require(record, "buckets", line)
        if not isinstance(buckets, list):
            _fail("field 'buckets' must be a list of [le, count] pairs", line)
        for pair in buckets:
            if not isinstance(pair, list) or len(pair) != 2:
                _fail("each histogram bucket must be a [le, count] pair", line)
    return kind


def validate_metrics_file(path: str) -> int:
    """Validate a JSONL metrics export; returns the record count."""
    count = 0
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            raw = raw.strip()
            if not raw:
                _fail("blank line inside metrics export", lineno)
            try:
                record = json.loads(raw)
            except json.JSONDecodeError as exc:
                _fail(f"not valid JSON: {exc}", lineno)
            validate_metrics_record(record, line=lineno)
            count += 1
    return count
