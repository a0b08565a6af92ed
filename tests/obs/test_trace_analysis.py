"""Tests for repro.obs.trace_analysis and the `repro trace` CLI."""

import json

import pytest

from repro.obs import trace_analysis as ta


def _span(scope, name, dur_s, attrs=None, **extra):
    return {
        "v": 1, "type": "span", "scope": scope, "name": name,
        "dur_s": dur_s, "attrs": attrs or {}, **extra,
    }


def _profile_event(stage, model, op, calls, seconds, flops=0.0, nbytes=0.0):
    return {
        "v": 1, "type": "event", "scope": "profile", "name": "profile/op",
        "attrs": {
            "stage": stage, "model": model, "op": op,
            "calls": calls, "seconds": seconds, "flops": flops, "bytes": nbytes,
        },
    }


@pytest.fixture
def synthetic_events():
    return [
        _span("run", "run", 10.0),
        _span("stage", "stage", 2.0, {"stage": "local_train"}),
        _span("stage", "stage", 4.0, {"stage": "local_train"}),
        _span("stage", "stage", 1.0, {"stage": "eval"}),
        # an early cumulative publish, superseded by the later one
        _profile_event("local_train", "mlp", "matmul", 10, 1.0, flops=100.0),
        _profile_event("local_train", "mlp", "matmul", 20, 4.0, flops=200.0),
        _profile_event("local_train", "mlp", "add", 5, 1.0),
        _profile_event("eval", "server", "matmul", 2, 0.5),
    ]


class TestLoading:
    def test_load_trace_skips_blank_lines(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text('{"a": 1}\n\n{"b": 2}\n')
        assert ta.load_trace(str(p)) == [{"a": 1}, {"b": 2}]


class TestStageSummary:
    def test_percentiles_and_totals(self, synthetic_events):
        rows = ta.stage_summary(synthetic_events)
        assert [r["stage"] for r in rows] == ["local_train", "eval"]
        lt = rows[0]
        assert lt["count"] == 2
        assert lt["total_s"] == pytest.approx(6.0)
        assert lt["mean_s"] == pytest.approx(3.0)
        assert lt["p50_s"] == pytest.approx(3.0)


class TestProfileRows:
    def test_last_event_per_key_wins(self, synthetic_events):
        rows = ta.profile_rows(synthetic_events)
        matmul = next(
            r for r in rows if r["op"] == "matmul" and r["stage"] == "local_train"
        )
        assert matmul["calls"] == 20  # not 10+20: publishes are cumulative
        assert matmul["seconds"] == pytest.approx(4.0)

    def test_hot_ops_cumulative_coverage(self, synthetic_events):
        hot = ta.hot_ops(synthetic_events, stage="local_train", top_k=2)
        assert [r["op"] for r in hot] == ["matmul", "add"]
        # denominator is the 6s stage wall, not the 5s profiled sum
        assert hot[0]["cum_frac"] == pytest.approx(4.0 / 6.0)
        assert hot[1]["cum_frac"] == pytest.approx(5.0 / 6.0)

    def test_stage_coverage(self, synthetic_events):
        cov = {r["stage"]: r for r in ta.stage_coverage(synthetic_events)}
        assert cov["local_train"]["coverage"] == pytest.approx(5.0 / 6.0)
        assert cov["eval"]["coverage"] == pytest.approx(0.5)


class TestCriticalPath:
    def _engine_event(self, name, **attrs):
        return {
            "v": 1, "type": "event", "scope": "engine",
            "name": name, "attrs": attrs,
        }

    def test_sync_trace_returns_empty(self, synthetic_events):
        assert ta.critical_path(synthetic_events) == {}

    def test_timelines_and_staleness(self):
        events = [
            self._engine_event(
                "engine/dispatch", client_id=0, version=1, arrival=2.0, delay=2.0
            ),
            self._engine_event(
                "engine/dispatch", client_id=0, version=2, arrival=5.0, delay=3.0
            ),
            self._engine_event(
                "engine/dispatch", client_id=1, version=1, arrival=1.5, delay=0.5
            ),
            self._engine_event(
                "engine/stale_drop", client_id=1, version=1, staleness=3
            ),
            self._engine_event(
                "engine/fault", client_id=0, version=2, cause="crash"
            ),
        ]
        summary = ta.critical_path(events)
        by_id = {c["client_id"]: c for c in summary["clients"]}
        assert by_id[0]["dispatches"] == 2
        assert by_id[0]["total_delay"] == pytest.approx(5.0)
        assert by_id[0]["last_arrival"] == pytest.approx(5.0)
        assert by_id[1]["mean_delay"] == pytest.approx(0.5)
        assert summary["critical_clients"][0] == 0  # slowest first
        assert summary["stale_drops"] == 1
        assert summary["staleness"]["max"] == 3
        assert summary["faults"] == {"crash": 1}

    def test_faults_match_the_engine_counter_on_a_chaos_run(self, tmp_path):
        from repro.experiments import ExperimentSetting, run_algorithm

        plan = {
            "seed": 3,
            "faults": [
                {"kind": "straggler", "client_id": 2, "factor": 10.0},
                {"kind": "crash", "client_id": 1, "round": 1},
                {"kind": "flaky", "client_id": 0, "fail_prob": 0.5,
                 "from_round": 0, "until_round": 4},
                {"kind": "leave", "client_id": 3, "round": 2},
                {"kind": "join", "client_id": 3, "round": 4},
            ],
        }
        trace_path = str(tmp_path / "chaos.trace.jsonl")
        metrics_path = str(tmp_path / "chaos.metrics.jsonl")
        setting = ExperimentSetting(
            scale="tiny", max_staleness=2, buffer_size=2,
            fault_plan=plan, trace_path=trace_path, metrics_path=metrics_path,
        )
        run_algorithm(setting, "fedpkd", rounds=5)

        faults = ta.critical_path(ta.load_trace(trace_path))["faults"]
        injected = [
            r["value"] for r in ta.load_metrics(metrics_path)
            if r.get("metric") == "engine/injected_faults"
        ][-1]
        # every fault the engine counted is reported, churn included
        assert "injected_leave" in faults
        assert sum(faults.values()) == injected


class TestRegistrySummary:
    def test_filters_registry_metrics(self):
        records = [
            {"metric": "registry/spill_writes", "kind": "counter", "value": 7.0},
            {"metric": "registry/live_set_size", "kind": "gauge", "value": 3.0},
            {"metric": "engine/waves", "kind": "counter", "value": 9.0},
            {"metric": "registry/load_s", "kind": "histogram", "count": 2, "sum": 0.5},
        ]
        out = ta.registry_summary(records)
        assert out == {
            "registry/spill_writes": 7.0,
            "registry/live_set_size": 3.0,
            "registry/load_s/count": 2.0,
            "registry/load_s/sum": 0.5,
        }


class TestTraceCli:
    def _write_trace(self, tmp_path, events):
        p = tmp_path / "trace.jsonl"
        p.write_text("".join(json.dumps(e) + "\n" for e in events))
        return str(p)

    def test_summarize(self, tmp_path, capsys, synthetic_events):
        from repro.cli import main

        path = self._write_trace(tmp_path, synthetic_events)
        assert main(["trace", "summarize", path, "--stage", "local_train"]) == 0
        out = capsys.readouterr().out
        assert "local_train" in out
        assert "matmul" in out
        assert "coverage" in out

    def test_critical_path_rejects_sync_trace(self, tmp_path, capsys, synthetic_events):
        from repro.cli import main

        path = self._write_trace(tmp_path, synthetic_events)
        assert main(["trace", "critical-path", path]) == 2
