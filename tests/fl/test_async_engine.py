"""The round engine: full barrier, chaos, staleness, resume.

The full barrier (``max_staleness=0``, a full buffer, no fault plan) is
what every run without async knobs uses; its histories are pinned to the
synchronous loop it replaced, here for the configurations the per-
algorithm pins in ``test_pinned_histories.py`` do not cover.  Everything
else — buffered aggregation, staleness discounts, injected faults, exact
resume mid-pipeline — builds on that baseline.
"""

import hashlib
import json
import math

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

from ..conftest import make_tiny_federation, records_json
from .test_pinned_histories import history_digest


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


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def assert_histories_identical(a, b):
    assert records_json(a) == records_json(b)


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
        # an algorithm without the three round phases cannot be built, so
        # no engine is ever handed one
        class _Sync(FederatedAlgorithm):
            name = "sync_only"

        with pytest.raises(TypeError, match="client_work"):
            _Sync(tiny_federation)

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
        assert isinstance(algo.engine, AsyncRoundEngine)
        assert algo.engine.max_staleness == 0 and algo.engine.plan is None
        engine = AsyncRoundEngine(algo)
        assert algo.engine is engine

    def test_from_config_reads_knobs(self, tiny_bundle):
        algo = make_fedpkd(tiny_bundle)

        config = FederationConfig(
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
    """max_staleness=0 + full buffer + no faults reproduces the retired
    synchronous loop: each history below is pinned to that loop's."""

    def test_degenerate_mode_bit_identical(self, tiny_bundle):
        algo = make_fedpkd(tiny_bundle)
        history = AsyncRoundEngine(algo).run(3)
        algo.federation.close()

        assert history_digest(history) == (
            "2d483acc446d5451f5792ed50e6ef5f82fc805bcb16b4783fb403dd5963c9941"
        )
        # server version tracks completed rounds exactly
        assert algo.engine.version == 3
        assert sha256(algo.global_prototypes.tobytes()) == (
            "89f729daadbfa5da8fbf13011001e4af3908939586709f4a4fe47c3bd11e0c03"
        )

    def test_degenerate_mode_with_participation_dropout(self, tiny_bundle):
        # the engine draws the participation sampler once per wave, the
        # sync loop's cadence of one draw per round
        algo = make_fedpkd(tiny_bundle, num_clients=4, dropout_prob=0.4)
        history = algo.run(3)
        algo.federation.close()

        assert history_digest(history) == (
            "3b36984cad40530b2178640ec8a7050f8577c3db986c87e5f87b8efe8fafe2ec"
        )

    def test_eval_every_matches_sync(self, tiny_bundle):
        algo = make_fedpkd(tiny_bundle)
        history = algo.run(3, eval_every=2)
        algo.federation.close()

        assert [r.round_index for r in history.records] == [2, 3]
        assert history_digest(history) == (
            "b2bcacbec2d4efc7afdc72d22c0f4fee3892ec371e28690b7629564c565689d2"
        )


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

    @pytest.mark.parametrize(
        "fast_only, calls, in_flight", [(True, 0, 1), (False, 1, 0)]
    )
    def test_in_flight_straggler_work_is_never_computed(
        self, tiny_bundle, fast_only, calls, in_flight
    ):
        # compute is lazy at arrival: a buffer the fast clients fill closes
        # the round before the 10x straggler arrives, so its local training
        # never runs; the full barrier waits for it and trains it once
        num_clients = 4
        straggler = num_clients - 1
        algo = make_fedpkd(tiny_bundle, num_clients=num_clients)
        client = algo.clients[straggler]
        train_local = client.train_local
        counter = {"calls": 0}

        def counted_train_local(*args, **kwargs):
            counter["calls"] += 1
            return train_local(*args, **kwargs)

        client.train_local = counted_train_local
        plan = {
            "faults": [
                {"kind": "straggler", "client_id": straggler, "factor": 10.0}
            ]
        }
        engine = AsyncRoundEngine(
            algo,
            max_staleness=2,
            buffer_size=num_clients - 1 if fast_only else num_clients,
            fault_plan=plan,
        )
        try:
            engine.run(1)
        finally:
            algo.federation.close()
        assert counter["calls"] == calls
        assert engine.in_flight == in_flight


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
        ckpt = str(tmp_path / "async.ckpt")

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
        ckpt = str(tmp_path / "pipeline.ckpt")
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
        # engine state resumes only under the knobs it was written with
        ckpt = str(tmp_path / "async.ckpt")
        algo = make_fedpkd(tiny_bundle)
        AsyncRoundEngine(algo, max_staleness=2, buffer_size=2).run(
            1, checkpoint_every=1, checkpoint_path=ckpt
        )
        algo.federation.close()

        sync_algo = make_fedpkd(tiny_bundle)
        with pytest.raises(CheckpointError, match="max_staleness"):
            load_checkpoint(sync_algo, ckpt)
        sync_algo.federation.close()

    def test_engine_knob_mismatch_refused(self, tiny_bundle, tmp_path):
        ckpt = str(tmp_path / "knobs.ckpt")
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

        # the async knobs' defaults are the full barrier: they reproduce
        # the synchronous loop's history
        history = run_algorithm(ExperimentSetting(**FAST_SETTING), "fedpkd", rounds=2)
        assert history_digest(history) == (
            "65162e35ebe808d80e9afc7bc3db3382d803d8baa060a9fd9f9ac02e1c87ecd0"
        )


    def test_async_knobs_alone_change_the_history(self):
        from repro.experiments.harness import ExperimentSetting, run_algorithm

        # no other flag is needed for the knobs to apply
        setting = ExperimentSetting(max_staleness=2, buffer_size=1, **FAST_SETTING)
        history = run_algorithm(setting, "fedpkd", rounds=2)
        assert history_digest(history) != (
            "65162e35ebe808d80e9afc7bc3db3382d803d8baa060a9fd9f9ac02e1c87ecd0"
        )

class TestFedProtoAsync:
    """FedProto: the prototype-only round under the engine."""

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
        algo = self._make(tiny_bundle)
        history = AsyncRoundEngine(algo).run(3)
        algo.federation.close()

        assert history_digest(history) == (
            "cbfd607ed484035e202f8754fbfb2a1786e75a42fa0de2a7d9bba179393177c2"
        )
        assert algo.engine.version == 3
        assert sha256(algo.global_prototypes.tobytes()) == (
            "c3948cc0347d537ad47729c98b4a654a0ee795244d3197f3ce866ffdfe62350d"
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


class TestDispatchAttribution:
    """A client skipped at dispatch is charged to the round its dispatch
    would have joined, not to the round that just finished."""

    def test_leave_at_version_v_lands_in_round_v_plus_1(self, tiny_bundle):
        algo = make_fedpkd(tiny_bundle, num_clients=3)
        plan = {"faults": [{"kind": "leave", "client_id": 2, "round": 1}]}
        AsyncRoundEngine(algo, fault_plan=plan).run(3)
        algo.federation.close()
        leaves = [
            (e.round_index, e.client_id)
            for e in algo.dropout_log.events
            if e.reason == "injected_leave"
        ]
        # dispatches at versions 1 and 2 join rounds 2 and 3
        assert leaves == [(2, 2), (3, 2)]

    def test_empty_shard_dropouts_match_the_sync_loop(self, tiny_bundle):
        from repro.algorithms import build_algorithm

        from .test_registry import GROUPS, drop_class_bundle

        fed = make_tiny_federation(
            drop_class_bundle(tiny_bundle),
            num_clients=len(GROUPS),
            server_model=None,
            partition=("by_classes", {"class_groups": GROUPS}),
        )
        algo = build_algorithm("fedproto", fed, seed=0, epoch_scale=0.1)
        try:
            history = algo.run(3, eval_every=1)
        finally:
            fed.close()
        # what the synchronous loop recorded: client 3 out of every round
        assert [r.extras["runtime_dropouts"] for r in history.records] == [1.0] * 3
        assert [(e.round_index, e.client_id) for e in algo.dropout_log.events] == [
            (1, 3), (2, 3), (3, 3)
        ]
        assert history_digest(history) == (
            "c891edf2c42bdf1161511e7486c01a101799dc4a0d5ca0a473b2fe7d95b09b82"
        )


STRAGGLER_AND_CRASH = {
    "seed": 3,
    "faults": [
        {"kind": "straggler", "client_id": 2, "factor": 3.0},
        {"kind": "crash", "client_id": 1, "round": 1},
    ],
}


@pytest.mark.parametrize(
    "algorithm",
    ["dsfl", "fedavg", "feddf", "fedet", "fedmd", "fedpkd", "fedprox",
     "fedproto", "naive_kd"],
)
def test_every_algorithm_survives_async_chaos(algorithm):
    """Buffered, stale and faulted rounds for every algorithm: each value
    the algorithm promises is finite."""
    from repro.algorithms import algorithm_supports
    from repro.experiments.harness import ExperimentSetting, run_algorithm

    setting = ExperimentSetting(
        max_staleness=2, buffer_size=2, fault_plan=STRAGGLER_AND_CRASH,
        scale="tiny",
        scale_overrides=dict(FAST_SETTING["scale_overrides"], num_clients=4),
    )
    history = run_algorithm(setting, algorithm, rounds=3)
    assert len(history.records) == 3
    for record in history.records:
        values = [v for k, v in record.extras.items() if "/" not in k]
        if algorithm_supports(algorithm, "server_model"):
            values.append(record.server_acc)
        if algorithm_supports(algorithm, "client_metric"):
            values.append(record.mean_client_acc)
        assert all(math.isfinite(v) for v in values), record
