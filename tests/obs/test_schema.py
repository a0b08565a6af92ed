"""Schema validator: accepts what the tracer writes, rejects corruption,
and checks a trace's expected scopes/events (``repro trace validate``)."""

import json

import pytest

from repro.cli import main
from repro.obs import SCHEMA_VERSION, SchemaError, validate_record, validate_trace_lines
from repro.obs.schema import validate_metrics_record


def marker(seq=0, name="run_start"):
    return {
        "v": SCHEMA_VERSION,
        "type": "marker",
        "name": name,
        "ts": 0.0,
        "unix_ts": 1e9,
        "seq": seq,
        "attrs": {},
    }


def event(seq, name="tick", scope="run", parent=None):
    return {
        "v": SCHEMA_VERSION,
        "type": "event",
        "name": name,
        "scope": scope,
        "ts": 0.1,
        "parent_id": parent,
        "seq": seq,
        "attrs": {},
    }


def span(seq, span_id=1, parent=None):
    return {
        "v": SCHEMA_VERSION,
        "type": "span",
        "name": "round",
        "scope": "round",
        "ts": 0.1,
        "dur_s": 0.5,
        "span_id": span_id,
        "parent_id": parent,
        "seq": seq,
        "attrs": {"round": 1, "accs": [0.1, None]},
    }


def as_lines(*records):
    return [json.dumps(r) for r in records]


def test_valid_records_pass():
    assert validate_record(marker()) == "marker"
    assert validate_record(event(1)) == "event"
    assert validate_record(span(2)) == "span"


def test_trace_level_validation_passes():
    assert validate_trace_lines(as_lines(marker(), event(1), span(2))) == 3


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda r: r.pop("v"), "missing required field 'v'"),
        (lambda r: r.update(v=99), "unknown schema version"),
        (lambda r: r.update(type="metric"), "unknown record type"),
        (lambda r: r.update(name=""), "non-empty string"),
        (lambda r: r.update(ts=-1.0), "must be >= 0"),
        (lambda r: r.update(seq=-1), "non-negative integer"),
        (lambda r: r.update(attrs=[1]), "must be an object"),
        (lambda r: r.update(attrs={"nested": {"deep": 1}}), "JSON scalar"),
    ],
)
def test_corrupt_event_rejected(mutate, fragment):
    record = event(1)
    mutate(record)
    with pytest.raises(SchemaError, match=fragment):
        validate_record(record)


def test_span_requires_span_id_and_duration():
    bad = span(1)
    bad.pop("span_id")
    with pytest.raises(SchemaError, match="span_id"):
        validate_record(bad)
    bad = span(1)
    bad["dur_s"] = -0.1
    with pytest.raises(SchemaError, match="dur_s"):
        validate_record(bad)


def test_marker_requires_known_name_and_unix_ts():
    bad = marker(name="started")
    with pytest.raises(SchemaError, match="unknown marker"):
        validate_record(bad)
    bad = marker()
    bad.pop("unix_ts")
    with pytest.raises(SchemaError, match="unix_ts"):
        validate_record(bad)


def test_unknown_scope_rejected():
    bad = event(1, scope="galaxy")
    with pytest.raises(SchemaError, match="unknown scope"):
        validate_record(bad)


def test_first_record_must_be_marker():
    with pytest.raises(SchemaError, match="first record"):
        validate_trace_lines(as_lines(event(0)))


def test_out_of_order_seq_rejected():
    with pytest.raises(SchemaError, match="out-of-order seq"):
        validate_trace_lines(as_lines(marker(), event(5)))


def test_seq_restarts_after_resume_marker():
    lines = as_lines(marker(), event(1), marker(seq=0, name="resume"), event(1))
    assert validate_trace_lines(lines) == 4


def test_torn_line_rejected():
    lines = as_lines(marker(), event(1))
    lines[-1] = lines[-1][: len(lines[-1]) // 2]  # simulate a torn write
    with pytest.raises(SchemaError, match="not valid JSON"):
        validate_trace_lines(lines)


def test_empty_trace_rejected():
    with pytest.raises(SchemaError, match="empty"):
        validate_trace_lines([])


def test_metrics_records():
    assert (
        validate_metrics_record({"metric": "a/b", "kind": "counter", "value": 3})
        == "counter"
    )
    # a never-set gauge exports null
    validate_metrics_record({"metric": "a/b", "kind": "gauge", "value": None})
    validate_metrics_record(
        {
            "metric": "a/b",
            "kind": "histogram",
            "count": 2,
            "sum": 1.5,
            "buckets": [[1.0, 1], ["inf", 2]],
        }
    )
    with pytest.raises(SchemaError, match="scope/name"):
        validate_metrics_record({"metric": "flat", "kind": "counter", "value": 1})
    with pytest.raises(SchemaError, match="kind"):
        validate_metrics_record({"metric": "a/b", "kind": "timer", "value": 1})
    with pytest.raises(SchemaError, match="buckets"):
        validate_metrics_record(
            {"metric": "a/b", "kind": "histogram", "count": 0, "sum": 0.0,
             "buckets": "none"}
        )


# ----------------------------------------------------------------------
# repro trace validate
# ----------------------------------------------------------------------


def test_expectations_checked_in_the_validating_pass():
    lines = as_lines(marker(), event(1, name="fedpkd/filter", scope="server"), span(2))
    assert validate_trace_lines(lines, ("round", "server"), ("fedpkd/filter",)) == 3
    with pytest.raises(SchemaError, match=r"missing scopes: \['client'\]"):
        validate_trace_lines(lines, expect_scopes=("client",))
    with pytest.raises(SchemaError, match=r"missing events: \['nope'\]"):
        validate_trace_lines(lines, expect_events=("nope", "round"))


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "run.trace.jsonl"
    records = (marker(), event(1, name="fedpkd/filter", scope="server"), span(2))
    path.write_text("".join(line + "\n" for line in as_lines(*records)))
    return path


def test_trace_validate_valid(trace_file, capsys):
    code = main(
        [
            "trace", "validate", str(trace_file),
            "--expect-scopes", "round,server",
            "--expect-events", "fedpkd/filter",
        ]
    )
    assert code == 0
    assert "ok" in capsys.readouterr().out


def test_trace_validate_missing_expectation(trace_file, capsys):
    assert main(["trace", "validate", str(trace_file), "--expect-scopes", "client"]) == 1
    assert "missing scopes" in capsys.readouterr().err


def test_trace_validate_schema_violation(tmp_path, capsys):
    path = tmp_path / "broken.trace.jsonl"
    path.write_text('{"v": 1, "type": "event"}\n')
    assert main(["trace", "validate", str(path)]) == 1
    assert "INVALID" in capsys.readouterr().err
