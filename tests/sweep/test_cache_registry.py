"""Tests for the result cache and the JSONL run registry."""

import json
import os

import pytest

from repro.fl.metrics import RoundRecord, RunHistory
from repro.sweep import (
    RegistryError,
    ResultCache,
    RunRegistry,
    RunSpec,
    parse_where,
)


def tiny_history(algorithm="fedavg", rounds=2):
    history = RunHistory(algorithm, dataset="cifar10")
    for i in range(rounds):
        history.append(RoundRecord(
            round_index=i,
            server_acc=0.5 + 0.1 * i,
            client_accs=[0.4, 0.6],
            comm_uplink_bytes=1024,
            comm_downlink_bytes=2048,
        ))
    return history


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        assert not cache.has_history("k1")
        assert cache.load_history("k1") is None
        cache.store_history("k1", tiny_history())
        assert cache.has_history("k1")
        loaded = cache.load_history("k1")
        assert loaded.algorithm == "fedavg"
        assert len(loaded) == 2

    def test_corrupt_history_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cache.store_history("k1", tiny_history())
        with open(cache.history_path("k1"), "w") as f:
            f.write("{truncated")
        assert cache.load_history("k1") is None

    def test_store_is_atomic(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cache.store_history("k1", tiny_history())
        assert not os.path.exists(cache.history_path("k1") + ".tmp")

    def test_store_config_idempotent(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        run = RunSpec("fedavg", {"seed": 0}, rounds=1)
        path = cache.store_config("k1", run)
        before = open(path).read()
        cache.store_config("k1", run)
        assert open(path).read() == before
        assert json.loads(before)["algorithm"] == "fedavg"

    def test_paths_are_keyed(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        assert cache.checkpoint_path("abc").endswith("abc/run.ckpt")
        assert cache.trace_path("abc").endswith("abc/trace.jsonl")
        assert not cache.has_checkpoint("abc")


class TestRunRegistry:
    def test_append_and_read(self, tmp_path):
        registry = RunRegistry(str(tmp_path / "registry"))
        registry.record_run({"run_key": "a", "status": "completed", "rounds": 2})
        registry.record_run({"run_key": "b", "status": "failed"})
        runs = registry.runs()
        assert set(runs) == {"a", "b"}
        assert runs["a"]["rounds"] == 2

    def test_latest_record_wins(self, tmp_path):
        registry = RunRegistry(str(tmp_path / "registry"))
        registry.record_run({"run_key": "a", "status": "failed"})
        registry.record_run({"run_key": "a", "status": "completed"})
        assert registry.get("a")["status"] == "completed"

    def test_missing_required_fields(self, tmp_path):
        registry = RunRegistry(str(tmp_path / "registry"))
        with pytest.raises(RegistryError, match="run_key"):
            registry.record_run({"status": "completed"})
        with pytest.raises(RegistryError, match="name"):
            registry.record_sweep({"total": 3})

    def test_corrupt_line_raises(self, tmp_path):
        registry = RunRegistry(str(tmp_path / "registry"))
        registry.record_run({"run_key": "a", "status": "completed"})
        with open(registry.runs_path, "a") as f:
            f.write("not json\n")
        with pytest.raises(RegistryError, match="not valid JSON"):
            registry.runs()

    def test_sweep_records(self, tmp_path):
        registry = RunRegistry(str(tmp_path / "registry"))
        registry.record_sweep({"name": "s1", "total": 2})
        registry.record_sweep({"name": "s1", "total": 2})
        assert [s["name"] for s in registry.sweeps()] == ["s1", "s1"]

    def test_empty_registry(self, tmp_path):
        registry = RunRegistry(str(tmp_path / "registry"))
        assert registry.runs() == {}
        assert registry.sweeps() == []
        assert registry.get("missing") is None


class TestQuery:
    @pytest.fixture
    def registry(self, tmp_path):
        registry = RunRegistry(str(tmp_path / "registry"))
        registry.record_run({
            "run_key": "a", "status": "completed", "algorithm": "fedavg",
            "config": {"setting": {"seed": 0, "heterogeneous": False},
                       "overrides": {}},
        })
        registry.record_run({
            "run_key": "b", "status": "failed", "algorithm": "fedpkd",
            "config": {"setting": {"seed": 1, "heterogeneous": True},
                       "overrides": {"delta": 0.5}},
        })
        return registry

    def test_filter_by_top_level_field(self, registry):
        assert [r["run_key"] for r in registry.query({"status": "failed"})] == ["b"]

    def test_filter_by_setting_field(self, registry):
        assert [r["run_key"] for r in registry.query({"seed": "0"})] == ["a"]

    def test_filter_by_override_field(self, registry):
        assert [r["run_key"] for r in registry.query({"delta": "0.5"})] == ["b"]

    def test_booleans_match_lowercase(self, registry):
        assert [r["run_key"] for r in registry.query({"heterogeneous": "true"})] == ["b"]

    def test_conjunction(self, registry):
        assert registry.query({"algorithm": "fedavg", "status": "failed"}) == []

    def test_no_filter_returns_all(self, registry):
        assert len(registry.query()) == 2

    def test_parse_where(self):
        assert parse_where(["a=1", "b=x=y"]) == {"a": "1", "b": "x=y"}

    def test_parse_where_rejects_bare_field(self):
        with pytest.raises(RegistryError, match="field=value"):
            parse_where(["status"])
