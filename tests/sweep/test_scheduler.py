"""Tests for the sweep scheduler: execution, isolation, caching, resume."""

import os

import pytest

from repro.baselines.fedavg import FedAvg
from repro.experiments import harness
from repro.experiments.harness import ExperimentSetting, run_algorithm
from repro.sweep import SweepScheduler, SweepSpec

# keeps every scheduler test at a few seconds total
FAST_OVERRIDES = {
    "n_train": 240, "n_test": 80, "n_public": 60,
    "num_clients": 3, "rounds": 2, "epoch_scale": 0.05,
}


def make_spec(algorithms=("fedavg",), seeds=(0,), rounds=1, name="t", **base):
    return SweepSpec.from_dict({
        "name": name,
        "base": {
            "scale": "tiny",
            "scale_overrides": FAST_OVERRIDES,
            "rounds": rounds,
            **base,
        },
        "axes": {"algorithm": list(algorithms), "seed": list(seeds)},
    })


def make_scheduler(spec, tmp_path, **kwargs):
    return SweepScheduler(spec, out_root=str(tmp_path / "out"), **kwargs)


class TestInlineExecution:
    def test_sweep_completes_all_runs(self, tmp_path):
        spec = make_spec(algorithms=("fedavg", "fedmd"))
        result = make_scheduler(spec, tmp_path).run()
        assert result.counts() == {
            "completed": 2, "resumed": 0, "cached": 0, "failed": 0
        }
        assert result.ok
        for outcome in result.outcomes:
            assert outcome.rounds_done == 1

    def test_histories_match_plain_run_algorithm(self, tmp_path):
        spec = make_spec()
        result = make_scheduler(spec, tmp_path).run()
        swept = result.outcomes[0].history
        direct = run_algorithm(
            ExperimentSetting(
                scale="tiny", seed=0, scale_overrides=FAST_OVERRIDES
            ),
            "fedavg",
            rounds=1,
        )
        for a, b in zip(swept.records, direct.records):
            assert a.server_acc == b.server_acc
            assert a.client_accs == b.client_accs
            assert a.comm_uplink_bytes == b.comm_uplink_bytes
            assert a.comm_downlink_bytes == b.comm_downlink_bytes

    def test_registry_records_completed_runs(self, tmp_path):
        spec = make_spec(algorithms=("fedavg", "fedmd"))
        scheduler = make_scheduler(spec, tmp_path)
        scheduler.run()
        runs = scheduler.registry.runs()
        assert len(runs) == 2
        assert all(r["status"] == "completed" for r in runs.values())
        assert all("final_server_acc" in r for r in runs.values())
        sweeps = scheduler.registry.sweeps()
        assert len(sweeps) == 1 and sweeps[0]["completed"] == 2


class TestFailureIsolation:
    def test_mid_round_crash_is_recorded_not_fatal(self, tmp_path, monkeypatch):
        # fedavg dies inside its second round; its fedmd sibling completes
        original = FedAvg.server_update
        rounds_seen = {"n": 0}

        def boom(self, contributions, client_weights, contributors):
            rounds_seen["n"] += 1
            if rounds_seen["n"] >= 2:
                raise RuntimeError("nan loss at round 2")
            return original(self, contributions, client_weights, contributors)

        monkeypatch.setattr(FedAvg, "server_update", boom)
        spec = make_spec(algorithms=("fedavg", "fedmd"), rounds=2)
        scheduler = make_scheduler(spec, tmp_path)
        result = scheduler.run()

        by_algo = {o.spec.algorithm: o for o in result.outcomes}
        assert by_algo["fedavg"].status == "failed"
        assert "nan loss" in by_algo["fedavg"].error
        assert by_algo["fedmd"].status == "completed"
        assert not result.ok

        failed = scheduler.registry.get(by_algo["fedavg"].run_key)
        assert failed["status"] == "failed"
        assert "nan loss" in failed["error"]

    @pytest.mark.parametrize("run_workers", [1, 2], ids=["inline", "pool"])
    def test_a_runs_own_error_is_recorded_in_either_mode(self, tmp_path, run_workers):
        # FedAvg averages weights, so it rejects heterogeneous client models;
        # FedMD takes them, and must complete beside the failed run
        spec = make_spec(algorithms=("fedavg", "fedmd"), heterogeneous=True)
        scheduler = make_scheduler(spec, tmp_path, run_workers=run_workers)
        result = scheduler.run()

        by_algo = {o.spec.algorithm: o for o in result.outcomes}
        error = "ValueError: fedavg does not support heterogeneous client models"
        assert by_algo["fedavg"].status == "failed"
        assert by_algo["fedavg"].error == error
        assert scheduler.registry.get(by_algo["fedavg"].run_key)["error"] == error
        assert by_algo["fedmd"].status == "completed"
        assert by_algo["fedmd"].rounds_done == 1

    @pytest.mark.parametrize("run_workers", [1, 2], ids=["inline", "pool"])
    def test_an_invalid_runtime_setting_fails_its_runs_only(
        self, tmp_path, run_workers
    ):
        spec = make_spec(algorithms=("fedavg", "fedmd"))
        result = make_scheduler(
            spec, tmp_path, run_workers=run_workers,
            runtime_overrides={"max_workers": 0},
        ).run()
        assert [o.status for o in result.outcomes] == ["failed", "failed"]
        assert {o.error for o in result.outcomes} == {
            "ValueError: max_workers must be >= 1, got 0"
        }

    def test_failed_run_succeeds_on_clean_resubmission(self, tmp_path, monkeypatch):
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return run_algorithm(*args, **kwargs)

        monkeypatch.setattr(harness, "run_algorithm", flaky)
        spec = make_spec()
        assert not make_scheduler(spec, tmp_path).run().ok

        scheduler = make_scheduler(spec, tmp_path)
        result = scheduler.run()
        assert result.ok
        # the later success supersedes the failed record in place
        key = result.outcomes[0].run_key
        assert scheduler.registry.get(key)["status"] != "failed"


class TestResultCaching:
    def test_identical_resubmission_is_all_cache_hits(self, tmp_path, monkeypatch):
        spec = make_spec(algorithms=("fedavg", "fedmd"))
        scheduler = make_scheduler(spec, tmp_path)
        scheduler.run()
        runs_before = open(scheduler.registry.runs_path).read()

        # any training attempt on resubmission is a bug
        monkeypatch.setattr(
            harness, "run_algorithm",
            lambda *args, **kwargs: pytest.fail("cache hit must not execute"),
        )
        rerun = make_scheduler(spec, tmp_path)
        result = rerun.run()
        assert result.counts() == {
            "completed": 0, "resumed": 0, "cached": 2, "failed": 0
        }
        # registry: runs.jsonl untouched, one extra sweep record
        assert open(rerun.registry.runs_path).read() == runs_before
        assert len(rerun.registry.sweeps()) == 2

    def test_cached_history_round_trips(self, tmp_path):
        spec = make_spec()
        first = make_scheduler(spec, tmp_path).run()
        second = make_scheduler(spec, tmp_path).run()
        a = first.outcomes[0].history
        b = second.outcomes[0].history
        assert [r.server_acc for r in a.records] == [r.server_acc for r in b.records]

    def test_overlapping_grid_runs_only_new_cells(self, tmp_path):
        make_scheduler(make_spec(seeds=(0,)), tmp_path).run()
        result = make_scheduler(make_spec(seeds=(0, 1)), tmp_path).run()
        statuses = {o.spec.setting_fields["seed"]: o.status for o in result.outcomes}
        assert statuses == {0: "cached", 1: "completed"}


class TestResume:
    def test_interrupted_run_resumes_bit_identically(self, tmp_path):
        spec = make_spec(rounds=2)
        scheduler = make_scheduler(spec, tmp_path)
        uninterrupted = scheduler.run().outcomes[0]
        assert uninterrupted.status == "completed"

        # simulate a crash after the round-1 autosave: the history never
        # landed but the exact-resume checkpoint did
        key = uninterrupted.run_key
        os.remove(scheduler.cache.history_path(key))
        assert scheduler.cache.has_checkpoint(key)

        resumed = make_scheduler(spec, tmp_path).run().outcomes[0]
        assert resumed.status == "resumed"
        assert len(resumed.history) == len(uninterrupted.history)
        for a, b in zip(resumed.history.records, uninterrupted.history.records):
            assert a.server_acc == b.server_acc
            assert a.client_accs == b.client_accs


class TestValidation:
    def test_bad_constructor_args(self, tmp_path):
        spec = make_spec()
        with pytest.raises(ValueError, match="run_workers"):
            make_scheduler(spec, tmp_path, run_workers=0)
        with pytest.raises(ValueError, match="run_timeout_s"):
            make_scheduler(spec, tmp_path, run_timeout_s=-1)
        with pytest.raises(ValueError, match="run_retries"):
            make_scheduler(spec, tmp_path, run_retries=-1)


@pytest.mark.slow
class TestPoolExecution:
    def test_pool_matches_inline(self, tmp_path):
        spec = make_spec(algorithms=("fedavg", "fedmd"))
        inline = make_scheduler(spec, tmp_path / "a").run()
        pooled = make_scheduler(spec, tmp_path / "b", run_workers=2).run()
        assert pooled.counts()["completed"] == 2
        for key, history in inline.histories().items():
            other = pooled.histories()[key]
            for a, b in zip(history.records, other.records):
                # nan-safe: fedmd has no server model, so server_acc is NaN
                assert (a.server_acc == b.server_acc) or (
                    a.server_acc != a.server_acc and b.server_acc != b.server_acc
                )
                assert a.client_accs == b.client_accs

    def test_timeout_reexecutes_no_finished_run(self, tmp_path, monkeypatch):
        """One run outlives run_timeout_s; recycling the pool must bank the
        runs that already finished instead of executing them again."""
        import time

        from repro.fl.metrics import RoundRecord, RunHistory

        log = tmp_path / "executions.log"

        def fake_run(setting, algorithm, **kwargs):
            seed = setting.seed
            with open(log, "a", encoding="utf-8") as f:
                f.write(f"{seed}\n")
            if seed == 3:
                time.sleep(6.0)  # the run that times out
            history = RunHistory(algorithm)
            history.append(RoundRecord(1, 0.5, [0.5], 1, 1))
            return history

        # the pool forks after this, so its workers run the fake
        monkeypatch.setattr(harness, "run_algorithm", fake_run)
        spec = make_spec(seeds=(0, 1, 2, 3, 4, 5))
        result = make_scheduler(
            spec, tmp_path, run_workers=2, run_timeout_s=1.5, run_retries=0
        ).run()

        by_seed = {o.spec.setting_fields["seed"]: o for o in result.outcomes}
        assert by_seed[3].status == "failed"
        assert "timeout" in by_seed[3].error
        assert all(by_seed[s].status == "completed" for s in (0, 1, 2, 4, 5))
        executions = log.read_text().split()
        assert sorted(executions) == ["0", "1", "2", "3", "4", "5"]

    def test_worker_death_is_charged_to_the_run_that_died(
        self, tmp_path, monkeypatch
    ):
        """A worker death breaks every in-flight run; only the run that
        kills its worker while alone in flight may be charged for it."""
        import time

        from repro.fl.metrics import RoundRecord, RunHistory

        log = tmp_path / "executions.log"

        def fake_run(setting, algorithm, **kwargs):
            seed = setting.seed
            with open(log, "a", encoding="utf-8") as f:
                f.write(f"{seed}\n")
            if seed == 1:
                os._exit(1)
            time.sleep(1.0)
            history = RunHistory(algorithm)
            history.append(RoundRecord(1, 0.5, [0.5], 1, 1))
            return history

        monkeypatch.setattr(harness, "run_algorithm", fake_run)
        spec = make_spec(seeds=(0, 1, 2, 3))
        scheduler = make_scheduler(spec, tmp_path, run_workers=2)
        result = scheduler.run()

        by_seed = {o.spec.setting_fields["seed"]: o for o in result.outcomes}
        assert by_seed[1].status == "failed"
        assert "worker death" in by_seed[1].error
        assert all(by_seed[s].status == "completed" for s in (0, 2, 3))
        executions = log.read_text().split()
        assert executions.count("1") <= scheduler.run_retries + 2
