"""Async round engine: degenerate equivalence, chaos, staleness, resume.

The load-bearing contract is ``test_degenerate_mode_bit_identical``: the
async engine with ``max_staleness=0``, a full buffer, and no fault plan
must reproduce the synchronous engine's history bit-for-bit (CI enforces
this).  Everything else — buffered aggregation, staleness discounts,
injected faults, exact resume mid-pipeline — builds on that baseline.
"""

import numpy as np
import pytest

from repro.core import FedPKD, FedPKDConfig
from repro.fl import (
    AsyncRoundEngine,
    CheckpointError,
    EngineStalledError,
    FaultPlan,
    FederationConfig,
    TrainingConfig,
    load_checkpoint,
    load_history,
    save_checkpoint,
)
from repro.fl.simulation import FederatedAlgorithm

from ..conftest import make_tiny_federation


def fast_config(**overrides):
    defaults = dict(
        local=TrainingConfig(epochs=1, batch_size=16),
        public=TrainingConfig(epochs=1, batch_size=16),
        server=TrainingConfig(epochs=1, batch_size=16),
    )
    defaults.update(overrides)
    return FedPKDConfig(**defaults)


def make_fedpkd(bundle, num_clients=3, seed=0, **fed_kwargs):
    fed = make_tiny_federation(
        bundle,
        num_clients=num_clients,
        client_models="mlp_small",
        server_model="mlp_small",
        seed=seed,
        **fed_kwargs,
    )
    return FedPKD(fed, config=fast_config(), seed=seed)


def _deterministic_extras(record):
    """Record extras minus the wall-clock-dependent ``time/*`` keys."""
    return {k: v for k, v in record.extras.items() if not k.startswith("time/")}


def assert_histories_identical(a, b):
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.round_index == rb.round_index
        # server-model-free algorithms (e.g. FedProto) report NaN server_acc
        assert ra.server_acc == rb.server_acc or (
            np.isnan(ra.server_acc) and np.isnan(rb.server_acc)
        )
        assert ra.client_accs == rb.client_accs
        assert ra.comm_uplink_bytes == rb.comm_uplink_bytes
        assert ra.comm_downlink_bytes == rb.comm_downlink_bytes
        assert _deterministic_extras(ra) == _deterministic_extras(rb)


CHAOS_PLAN = {
    "seed": 3,
    "faults": [
        {"kind": "straggler", "client_id": 2, "factor": 10.0, "jitter": 0.1},
        {"kind": "crash", "client_id": 1, "round": 1},
        {
            "kind": "flaky",
            "client_id": 0,
            "fail_prob": 0.5,
            "from_round": 0,
            "until_round": 4,
        },
        {"kind": "leave", "client_id": 3, "round": 2},
        {"kind": "join", "client_id": 3, "round": 4},
    ],
}


class TestConstruction:
    def test_rejects_non_async_algorithm(self, tiny_federation):
        class _Sync(FederatedAlgorithm):
            name = "sync_only"

        with pytest.raises(ValueError, match="async"):
            AsyncRoundEngine(_Sync(tiny_federation))

    def test_validates_knobs(self, tiny_bundle):
        algo = make_fedpkd(tiny_bundle)
        with pytest.raises(ValueError):
            AsyncRoundEngine(algo, max_staleness=-1)
        with pytest.raises(ValueError):
            AsyncRoundEngine(algo, staleness_alpha=0.0)
        with pytest.raises(ValueError):
            AsyncRoundEngine(algo, buffer_size=0)

    def test_registers_on_algorithm(self, tiny_bundle):
        algo = make_fedpkd(tiny_bundle)
        engine = AsyncRoundEngine(algo)
        assert algo.async_engine is engine

    def test_from_config_reads_knobs(self, tiny_bundle):
        algo = make_fedpkd(tiny_bundle)

        config = FederationConfig(
            engine="async",
            max_staleness=2,
            staleness_alpha=0.9,
            buffer_size=2,
            fault_plan={"faults": [], "seed": 1},
        )
        engine = AsyncRoundEngine.from_config(algo, config)
        assert engine.max_staleness == 2
        assert engine.staleness_alpha == 0.9
        assert engine.buffer_size == 2
        assert isinstance(engine.plan, FaultPlan)


class TestDegenerateEquivalence:
    """max_staleness=0 + full buffer + no faults == the sync engine."""

    def test_degenerate_mode_bit_identical(self, tiny_bundle):
        sync_algo = make_fedpkd(tiny_bundle)
        h_sync = sync_algo.run(3)
        sync_algo.federation.close()

        async_algo = make_fedpkd(tiny_bundle)
        h_async = AsyncRoundEngine(async_algo).run(3)
        async_algo.federation.close()

        assert_histories_identical(h_sync, h_async)
        # server version tracks completed rounds exactly
        assert async_algo.async_engine.version == 3
        np.testing.assert_array_equal(
            sync_algo.global_prototypes, async_algo.global_prototypes
        )

    def test_degenerate_mode_with_participation_dropout(self, tiny_bundle):
        # the engine draws the participation sampler once per wave — the
        # same RNG cadence as the sync loop's per-round active_clients()
        sync_algo = make_fedpkd(tiny_bundle, num_clients=4, dropout_prob=0.4)
        h_sync = sync_algo.run(3)
        sync_algo.federation.close()

        async_algo = make_fedpkd(tiny_bundle, num_clients=4, dropout_prob=0.4)
        h_async = AsyncRoundEngine(async_algo).run(3)
        async_algo.federation.close()

        assert_histories_identical(h_sync, h_async)

    def test_eval_every_matches_sync(self, tiny_bundle):
        sync_algo = make_fedpkd(tiny_bundle)
        h_sync = sync_algo.run(3, eval_every=2)
        sync_algo.federation.close()

        async_algo = make_fedpkd(tiny_bundle)
        h_async = AsyncRoundEngine(async_algo).run(3, eval_every=2)
        async_algo.federation.close()

        assert [r.round_index for r in h_async.records] == [2, 3]
        assert_histories_identical(h_sync, h_async)


class TestVirtualClock:
    def test_clock_advances_without_wall_time(self, tiny_bundle):
        algo = make_fedpkd(tiny_bundle)
        engine = AsyncRoundEngine(algo)
        engine.run(2)
        # nominal service time is 1.0 per dispatch; two full-barrier waves
        # arrive at virtual times 1.0 and 2.0
        assert engine.clock == pytest.approx(2.0)
        algo.federation.close()

    def test_straggler_arrives_late(self, tiny_bundle):
        algo = make_fedpkd(tiny_bundle, num_clients=3)
        plan = {"faults": [{"kind": "straggler", "client_id": 1, "factor": 10.0}]}
        engine = AsyncRoundEngine(
            algo, max_staleness=5, buffer_size=2, fault_plan=plan
        )
        engine.run(1)
        # the two fast clients aggregated at virtual time 1.0; the
        # straggler's dispatch is still in flight at t=11
        assert engine.clock == pytest.approx(1.0)
        assert engine.in_flight >= 1
        algo.federation.close()


class TestBufferAndStaleness:
    def test_buffer_size_triggers_early_aggregation(self, tiny_bundle):
        algo = make_fedpkd(tiny_bundle, num_clients=3)
        engine = AsyncRoundEngine(algo, max_staleness=3, buffer_size=2)
        history = engine.run(3)
        assert len(history.records) == 3
        assert all(np.isfinite(r.server_acc) for r in history.records)

    def test_stale_contribution_discounted_not_dropped(self, tiny_bundle, tmp_path):
        # straggler work lands one version late but within max_staleness:
        # it must be aggregated (with weight alpha**s), not discarded
        algo = make_fedpkd(
            tiny_bundle, num_clients=3, metrics_path=str(tmp_path / "m.jsonl")
        )
        plan = {"faults": [{"kind": "straggler", "client_id": 1, "factor": 1.6}]}
        engine = AsyncRoundEngine(
            algo, max_staleness=3, staleness_alpha=0.5, buffer_size=2,
            fault_plan=plan,
        )
        engine.run(4)
        snapshot = algo.metrics.snapshot()
        assert snapshot.get("engine/stale_contributions", 0) > 0
        algo.federation.close()

    def test_over_stale_contribution_dropped(self, tiny_bundle, tmp_path):
        algo = make_fedpkd(
            tiny_bundle, num_clients=3, metrics_path=str(tmp_path / "m.jsonl")
        )
        # factor 2.5 => the straggler's arrival pops during round 3 at
        # staleness 2 (a larger factor would leave it in-flight forever
        # behind the fast clients and nothing would ever be dropped)
        plan = {"faults": [{"kind": "straggler", "client_id": 1, "factor": 2.5}]}
        engine = AsyncRoundEngine(
            algo, max_staleness=0, buffer_size=2, fault_plan=plan
        )
        engine.run(4)
        snapshot = algo.metrics.snapshot()
        assert snapshot.get("engine/dropped_contributions", 0) > 0
        algo.federation.close()

    def test_alpha_one_keeps_full_weight(self, tiny_bundle):
        algo = make_fedpkd(tiny_bundle, num_clients=3)
        engine = AsyncRoundEngine(
            algo, max_staleness=4, staleness_alpha=1.0, buffer_size=2
        )
        history = engine.run(3)
        assert all(np.isfinite(r.server_acc) for r in history.records)
        algo.federation.close()


class TestFaultInjection:
    def test_chaos_run_completes_with_finite_accuracy(self, tiny_bundle):
        algo = make_fedpkd(tiny_bundle, num_clients=4)
        engine = AsyncRoundEngine(
            algo, max_staleness=2, buffer_size=2, fault_plan=CHAOS_PLAN
        )
        history = engine.run(5)
        assert len(history.records) == 5
        assert all(np.isfinite(r.server_acc) for r in history.records)
        algo.federation.close()

    def test_every_injected_fault_lands_in_dropout_log(self, tiny_bundle):
        algo = make_fedpkd(tiny_bundle, num_clients=4)
        engine = AsyncRoundEngine(
            algo, max_staleness=2, buffer_size=2, fault_plan=CHAOS_PLAN
        )
        engine.run(5)
        causes = {e.reason for e in algo.dropout_log.events}
        assert "injected_crash" in causes
        assert "injected_leave" in causes
        # every injected event names its cause and a valid client
        for event in algo.dropout_log.events:
            assert event.reason.startswith("injected_")
            assert 0 <= event.client_id < 4
            assert event.stage in ("async_dispatch", "async_work")
        algo.federation.close()

    def test_fault_plan_from_file(self, tiny_bundle, tmp_path):
        import json

        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(CHAOS_PLAN))
        algo = make_fedpkd(tiny_bundle, num_clients=4)
        engine = AsyncRoundEngine(
            algo, max_staleness=2, buffer_size=2, fault_plan=str(plan_path)
        )
        history = engine.run(2)
        assert len(history.records) == 2
        algo.federation.close()

    def test_chaos_is_deterministic(self, tiny_bundle):
        def run_once():
            algo = make_fedpkd(tiny_bundle, num_clients=4)
            engine = AsyncRoundEngine(
                algo, max_staleness=2, buffer_size=2, fault_plan=CHAOS_PLAN
            )
            history = engine.run(4)
            events = [
                (e.round_index, e.client_id, e.stage, e.reason)
                for e in algo.dropout_log.events
            ]
            algo.federation.close()
            return history, events

        h1, e1 = run_once()
        h2, e2 = run_once()
        assert_histories_identical(h1, h2)
        assert e1 == e2

    def test_all_clients_leaving_stalls_engine(self, tiny_bundle):
        algo = make_fedpkd(tiny_bundle, num_clients=3)
        plan = {
            "faults": [
                {"kind": "leave", "client_id": cid, "round": 0}
                for cid in range(3)
            ]
        }
        engine = AsyncRoundEngine(algo, fault_plan=plan)
        with pytest.raises(EngineStalledError):
            engine.run(1)
        algo.federation.close()


class TestExactResume:
    def test_chaos_resume_is_bit_identical(self, tiny_bundle, tmp_path):
        ckpt = str(tmp_path / "async.ckpt.npz")

        def engine_for(algo):
            return AsyncRoundEngine(
                algo, max_staleness=2, buffer_size=2, fault_plan=CHAOS_PLAN
            )

        full_algo = make_fedpkd(tiny_bundle, num_clients=4)
        h_full = engine_for(full_algo).run(5)
        full_algo.federation.close()

        head_algo = make_fedpkd(tiny_bundle, num_clients=4)
        engine_for(head_algo).run(3, checkpoint_every=3, checkpoint_path=ckpt)
        head_algo.federation.close()

        tail_algo = make_fedpkd(tiny_bundle, num_clients=4)
        tail_engine = engine_for(tail_algo)
        done = load_checkpoint(tail_algo, ckpt)
        assert done == 3
        h_tail = tail_engine.run(5 - done, history=load_history(ckpt))
        tail_algo.federation.close()

        assert_histories_identical(h_full, h_tail)
        np.testing.assert_array_equal(
            full_algo.global_prototypes, tail_algo.global_prototypes
        )

    def test_in_flight_pipeline_survives_checkpoint(self, tiny_bundle, tmp_path):
        ckpt = str(tmp_path / "pipeline.ckpt.npz")
        plan = {"faults": [{"kind": "straggler", "client_id": 2, "factor": 10.0}]}
        algo = make_fedpkd(tiny_bundle, num_clients=3)
        engine = AsyncRoundEngine(
            algo, max_staleness=5, buffer_size=2, fault_plan=plan
        )
        engine.run(2)
        assert engine.in_flight > 0  # the straggler is mid-flight
        save_checkpoint(algo, ckpt)
        algo.federation.close()

        algo2 = make_fedpkd(tiny_bundle, num_clients=3)
        engine2 = AsyncRoundEngine(
            algo2, max_staleness=5, buffer_size=2, fault_plan=plan
        )
        load_checkpoint(algo2, ckpt)
        assert engine2.in_flight == engine.in_flight
        assert engine2.clock == engine.clock
        assert engine2.version == engine.version
        algo2.federation.close()

    def test_async_checkpoint_refused_by_sync_load(self, tiny_bundle, tmp_path):
        ckpt = str(tmp_path / "async.ckpt.npz")
        algo = make_fedpkd(tiny_bundle)
        AsyncRoundEngine(algo).run(1, checkpoint_every=1, checkpoint_path=ckpt)
        algo.federation.close()

        sync_algo = make_fedpkd(tiny_bundle)
        with pytest.raises(CheckpointError, match="async-engine state"):
            load_checkpoint(sync_algo, ckpt)
        sync_algo.federation.close()

    def test_sync_checkpoint_loads_into_async_engine(self, tiny_bundle, tmp_path):
        # the converse direction is exact: the engine starts with an empty
        # pipeline at the checkpoint's version (degenerate sync state)
        ckpt = str(tmp_path / "sync.ckpt.npz")
        sync_algo = make_fedpkd(tiny_bundle)
        h_sync = sync_algo.run(3)
        sync_algo.federation.close()

        head_algo = make_fedpkd(tiny_bundle)
        head_algo.run(2, checkpoint_every=2, checkpoint_path=ckpt)
        head_algo.federation.close()

        async_algo = make_fedpkd(tiny_bundle)
        engine = AsyncRoundEngine(async_algo)
        done = load_checkpoint(async_algo, ckpt)
        assert done == 2
        assert engine.version == 2
        h_async = engine.run(1, history=load_history(ckpt))
        async_algo.federation.close()
        assert_histories_identical(h_sync, h_async)

    def test_engine_knob_mismatch_refused(self, tiny_bundle, tmp_path):
        ckpt = str(tmp_path / "knobs.ckpt.npz")
        algo = make_fedpkd(tiny_bundle)
        AsyncRoundEngine(algo, staleness_alpha=0.5).run(
            1, checkpoint_every=1, checkpoint_path=ckpt
        )
        algo.federation.close()

        algo2 = make_fedpkd(tiny_bundle)
        AsyncRoundEngine(algo2, staleness_alpha=0.9)
        with pytest.raises(CheckpointError, match="staleness_alpha"):
            load_checkpoint(algo2, ckpt)
        algo2.federation.close()


FAST_SETTING = dict(
    scale="tiny",
    scale_overrides={
        "n_train": 240, "n_test": 80, "n_public": 60,
        "num_clients": 2, "rounds": 2, "epoch_scale": 0.05,
    },
)


class TestHarnessIntegration:
    def test_run_algorithm_async_engine(self):
        from repro.experiments.harness import ExperimentSetting, run_algorithm

        setting = ExperimentSetting(
            engine="async",
            max_staleness=2,
            buffer_size=2,
            fault_plan={
                "faults": [
                    {"kind": "straggler", "client_id": 1, "factor": 4.0}
                ]
            },
            **FAST_SETTING,
        )
        history = run_algorithm(setting, "fedpkd", rounds=2)
        assert len(history.records) == 2
        assert all(np.isfinite(r.server_acc) for r in history.records)

    def test_run_algorithm_async_degenerate_matches_sync(self):
        from repro.experiments.harness import ExperimentSetting, run_algorithm

        h_sync = run_algorithm(
            ExperimentSetting(**FAST_SETTING), "fedpkd", rounds=2
        )
        h_async = run_algorithm(
            ExperimentSetting(engine="async", **FAST_SETTING), "fedpkd", rounds=2
        )
        assert_histories_identical(h_sync, h_async)


class TestFedProtoAsync:
    """FedProto is the second real supports_async implementor."""

    def _make(self, bundle, seed=0):
        from repro.baselines import FedProto, FedProtoConfig
        from repro.fl import TrainingConfig

        fed = make_tiny_federation(bundle, server_model=None, seed=seed)
        return FedProto(
            fed,
            config=FedProtoConfig(local=TrainingConfig(epochs=1, batch_size=16)),
            seed=seed,
        )

    def test_degenerate_mode_bit_identical(self, tiny_bundle):
        sync_algo = self._make(tiny_bundle)
        h_sync = sync_algo.run(3)
        sync_algo.federation.close()

        async_algo = self._make(tiny_bundle)
        h_async = AsyncRoundEngine(async_algo).run(3)
        async_algo.federation.close()

        assert_histories_identical(h_sync, h_async)
        assert async_algo.async_engine.version == 3
        np.testing.assert_array_equal(
            sync_algo.global_prototypes, async_algo.global_prototypes
        )

    def test_staleness_discounts_change_prototypes(self, tiny_bundle):
        from repro.fl.async_engine import FaultPlan

        reference = self._make(tiny_bundle)
        h_ref = reference.run(3)
        reference.federation.close()

        delayed = self._make(tiny_bundle)
        plan = FaultPlan.from_dict(
            {
                "seed": 1,
                "faults": [
                    {"kind": "straggler", "client_id": 0, "factor": 8.0}
                ],
            }
        )
        engine = AsyncRoundEngine(
            delayed, max_staleness=3, staleness_alpha=0.5, fault_plan=plan
        )
        h_delayed = engine.run(3)
        delayed.federation.close()

        assert len(h_delayed.records) == len(h_ref.records)
        assert delayed.global_prototypes is not None
