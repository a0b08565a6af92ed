"""End-to-end observability: traced runs, resume appending, disabled default."""

import json

import pytest

from repro.algorithms import build_algorithm
from repro.experiments import ExperimentSetting, run_algorithm
from repro.fl.config import TrainingConfig
from repro.obs import NullTracer, validate_metrics_file, validate_trace_file

from ..conftest import make_tiny_federation

FAST_SETTING = dict(
    scale="tiny",
    scale_overrides={
        "n_train": 240, "n_test": 80, "n_public": 60,
        "num_clients": 2, "rounds": 2, "epoch_scale": 0.05,
    },
)


def read_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f]


def _fast_fedpkd(fed):
    from repro.core.fedpkd import FedPKD, FedPKDConfig

    cfg = FedPKDConfig(
        local=TrainingConfig(epochs=1, batch_size=16),
        public=TrainingConfig(epochs=1, batch_size=16),
        server=TrainingConfig(epochs=1, batch_size=16),
    )
    return FedPKD(fed, config=cfg)


def test_traced_fedpkd_run_emits_valid_schema(tiny_bundle, tmp_path):
    trace_path = str(tmp_path / "run.trace.jsonl")
    metrics_path = str(tmp_path / "run.metrics.jsonl")
    fed = make_tiny_federation(
        tiny_bundle, trace_path=trace_path, metrics_path=metrics_path
    )
    try:
        history = _fast_fedpkd(fed).run(rounds=2)
    finally:
        fed.close()

    assert validate_trace_file(trace_path) > 0
    assert validate_metrics_file(metrics_path) > 0

    records = read_records(trace_path)
    scopes = {r.get("scope") for r in records} - {None}
    # the acceptance bar: spans/events cover round, stage and client levels
    assert {"run", "round", "stage", "client", "server"} <= scopes
    names = {r["name"] for r in records}
    assert {"fedpkd/filter", "fedpkd/aggregate", "server_distill",
            "client_task", "round_record", "eval"} <= names

    # FedPKD-specific payloads
    aggregates = [r for r in records if r["name"] == "fedpkd/aggregate"]
    assert aggregates
    assert aggregates[0]["attrs"]["mode"] == "variance"
    weight_var = aggregates[0]["attrs"]["per_class_weight_var"]
    assert isinstance(weight_var, list)
    assert len(weight_var) == tiny_bundle.num_classes
    filters = [r for r in records if r["name"] == "fedpkd/filter"]
    assert len(filters) == 2  # one per round
    attrs = filters[0]["attrs"]
    assert attrs["accepted"] + attrs["rejected"] == attrs["num_public"]

    # metrics snapshot lands in every record's extras
    for record in history.records:
        assert record.extras["channel/uplink_bytes"] > 0
        assert "fedpkd/filter_accepted" in record.extras

    # the trace nests: every non-marker record with a parent points at a
    # span that exists
    span_ids = {r["span_id"] for r in records if r["type"] == "span"}
    for r in records:
        if r["type"] != "marker" and r["parent_id"] is not None:
            assert r["parent_id"] in span_ids


def test_resumed_run_appends_behind_resume_marker(tmp_path):
    trace_path = str(tmp_path / "run.trace.jsonl")
    ckpt_path = str(tmp_path / "run.ckpt")
    setting = ExperimentSetting(
        checkpoint_every=1,
        checkpoint_path=ckpt_path,
        trace_path=trace_path,
        **FAST_SETTING,
    )
    # first process lifetime: one round only
    run_algorithm(setting, "fedpkd", rounds=1)
    first_len = len(read_records(trace_path))

    # second lifetime resumes from the checkpoint and appends
    history = run_algorithm(setting, "fedpkd", rounds=2, resume=True)
    records = read_records(trace_path)
    assert len(records) > first_len
    markers = [r["name"] for r in records if r["type"] == "marker"]
    assert markers[0] == "run_start"
    assert "resume" in markers
    resume = next(r for r in records if r["name"] == "resume")
    assert resume["attrs"]["round_index"] == 1
    # the pre-resume prefix is untouched
    assert records[:first_len] == read_records(trace_path)[:first_len]
    # checkpoint load was traced in the second lifetime
    load_events = [r for r in records if r["name"] == "checkpoint/load"]
    assert load_events and load_events[0]["scope"] == "checkpoint"
    assert validate_trace_file(trace_path) == len(records)
    assert len(history) == 2


def test_observability_disabled_by_default(tiny_bundle, tmp_path):
    fed = make_tiny_federation(tiny_bundle)
    try:
        assert not fed.obs.enabled
        assert isinstance(fed.obs.tracer, NullTracer)
        history = _fast_fedpkd(fed).run(rounds=1)
    finally:
        fed.close()
    # no metrics keys leak into extras when observability is off (the
    # parallel-vs-serial bit-identity tests depend on this)
    for record in history.records:
        assert not any(k.startswith("channel/") for k in record.extras)
        assert not any(k.startswith("fedpkd/filter") for k in record.extras)
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_save_traced(tiny_bundle, tmp_path):
    trace_path = str(tmp_path / "t.jsonl")
    ckpt_path = str(tmp_path / "c.npz")
    fed = make_tiny_federation(tiny_bundle, trace_path=trace_path)
    try:
        _fast_fedpkd(fed).run(
            rounds=1, checkpoint_every=1, checkpoint_path=ckpt_path
        )
    finally:
        fed.close()
    saves = [r for r in read_records(trace_path) if r["name"] == "checkpoint/save"]
    assert saves
    assert saves[0]["scope"] == "checkpoint"
    assert saves[0]["attrs"]["bytes"] > 0
    assert saves[0]["attrs"]["dur_s"] >= 0
