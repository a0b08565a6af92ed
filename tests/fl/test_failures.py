"""Fault plans, the dropout log index, and participation-sampler state."""

import json

import numpy as np
import pytest

from repro.fl import FaultPlan, FaultPlanError, FaultSpec
from repro.fl.failures import DropoutLog, ParticipationSampler


class TestFaultSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            FaultSpec(kind="meteor", client_id=0)

    def test_negative_client(self):
        with pytest.raises(FaultPlanError, match="client_id"):
            FaultSpec(kind="crash", client_id=-1)

    def test_nonpositive_straggler_factor(self):
        with pytest.raises(FaultPlanError, match="factor"):
            FaultSpec(kind="straggler", client_id=0, factor=0.0)

    def test_bad_fail_prob(self):
        with pytest.raises(FaultPlanError, match="fail_prob"):
            FaultSpec(kind="flaky", client_id=0, fail_prob=1.5)

    def test_empty_window(self):
        with pytest.raises(FaultPlanError, match="until_round"):
            FaultSpec(kind="flaky", client_id=0, from_round=3, until_round=3)

    def test_window_membership(self):
        spec = FaultSpec(kind="flaky", client_id=0, from_round=2, until_round=5)
        assert not spec.in_window(1)
        assert spec.in_window(2)
        assert spec.in_window(4)
        assert not spec.in_window(5)

    def test_open_ended_window(self):
        spec = FaultSpec(kind="straggler", client_id=0, from_round=1)
        assert spec.in_window(10_000)


class TestFaultPlanConstruction:
    def test_unknown_top_level_key(self):
        with pytest.raises(FaultPlanError, match="unknown fault-plan keys"):
            FaultPlan.from_dict({"faults": [], "chaos_level": 11})

    def test_unknown_fault_key(self):
        with pytest.raises(FaultPlanError, match="unknown keys"):
            FaultPlan.from_dict(
                {"faults": [{"kind": "crash", "client_id": 0, "when": 3}]}
            )

    def test_faults_must_be_list(self):
        with pytest.raises(FaultPlanError, match="'faults' must be a list"):
            FaultPlan.from_dict({"faults": {"kind": "crash"}})

    def test_missing_required_field(self):
        with pytest.raises(FaultPlanError, match=r"faults\[0\]"):
            FaultPlan.from_dict({"faults": [{"kind": "crash"}]})

    def test_negative_delay_jitter(self):
        with pytest.raises(FaultPlanError, match="delay_jitter"):
            FaultPlan(delay_jitter=-0.1)

    def test_from_file_and_bad_json(self, tmp_path):
        good = tmp_path / "plan.json"
        good.write_text(
            json.dumps({"faults": [{"kind": "crash", "client_id": 1, "round": 2}]})
        )
        plan = FaultPlan.from_file(str(good))
        assert len(plan) == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(FaultPlanError, match="not valid JSON"):
            FaultPlan.from_file(str(bad))
        with pytest.raises(FaultPlanError, match="cannot read"):
            FaultPlan.from_file(str(tmp_path / "missing.json"))

    def test_resolve_coercions(self, tmp_path):
        assert FaultPlan.resolve(None) is None
        plan = FaultPlan()
        assert FaultPlan.resolve(plan) is plan
        from_dict = FaultPlan.resolve({"faults": [], "seed": 5})
        assert isinstance(from_dict, FaultPlan)
        assert from_dict.seed == 5
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"faults": []}))
        assert isinstance(FaultPlan.resolve(str(path)), FaultPlan)
        with pytest.raises(FaultPlanError, match="must be a path"):
            FaultPlan.resolve(42)

    def test_to_dict_round_trip(self):
        plan = FaultPlan.from_dict(
            {
                "seed": 9,
                "delay_jitter": 0.2,
                "faults": [
                    {"kind": "straggler", "client_id": 2, "factor": 10.0,
                     "jitter": 0.3},
                    {"kind": "leave", "client_id": 1, "round": 4},
                ],
            }
        )
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone.to_dict() == plan.to_dict()
        assert clone.seed == 9
        assert clone.delay_jitter == 0.2

    def test_describe(self):
        plan = FaultPlan.from_dict(
            {
                "delay_jitter": 0.1,
                "faults": [
                    {"kind": "crash", "client_id": 0, "round": 1},
                    {"kind": "crash", "client_id": 1, "round": 2},
                    {"kind": "leave", "client_id": 2, "round": 1},
                ],
            }
        )
        assert plan.describe() == "2xcrash,1xleave,jitter=0.1"
        assert FaultPlan().describe() == "empty"


class TestFaultPlanQueries:
    def test_delay_factor_straggler_window(self):
        plan = FaultPlan(
            [FaultSpec(kind="straggler", client_id=1, factor=10.0,
                       from_round=2, until_round=4)]
        )
        assert plan.delay_factor(1, 1) == 1.0
        assert plan.delay_factor(1, 2) == 10.0
        assert plan.delay_factor(1, 4) == 1.0
        assert plan.delay_factor(0, 2) == 1.0  # other clients unaffected

    def test_queries_are_stateless_and_deterministic(self):
        def build():
            return FaultPlan.from_dict(
                {
                    "seed": 13,
                    "delay_jitter": 0.25,
                    "faults": [
                        {"kind": "straggler", "client_id": 0, "factor": 3.0,
                         "jitter": 0.5},
                        {"kind": "flaky", "client_id": 1, "fail_prob": 0.5},
                    ],
                }
            )

        a, b = build(), build()
        for cid in range(3):
            for version in range(6):
                # identical across instances AND across repeated calls on
                # the same instance (no hidden RNG state advances)
                assert a.delay_factor(cid, version) == b.delay_factor(cid, version)
                assert a.delay_factor(cid, version) == a.delay_factor(cid, version)
                assert a.crash_cause(cid, version) == b.crash_cause(cid, version)
                assert a.crash_cause(cid, version) == a.crash_cause(cid, version)

    def test_flaky_fires_sometimes_not_always(self):
        plan = FaultPlan(
            [FaultSpec(kind="flaky", client_id=0, fail_prob=0.5)], seed=0
        )
        causes = {plan.crash_cause(0, v) for v in range(32)}
        assert causes == {None, "injected_flaky"}

    def test_crash_is_single_shot(self):
        plan = FaultPlan([FaultSpec(kind="crash", client_id=2, round=3)])
        assert plan.crash_cause(2, 3) == "injected_crash"
        assert plan.crash_cause(2, 2) is None
        assert plan.crash_cause(2, 4) is None

    def test_churn_latest_event_wins(self):
        plan = FaultPlan(
            [
                FaultSpec(kind="leave", client_id=0, round=2),
                FaultSpec(kind="join", client_id=0, round=5),
            ]
        )
        assert plan.available(0, 0)
        assert plan.available(0, 1)
        assert not plan.available(0, 2)
        assert not plan.available(0, 4)
        assert plan.available(0, 5)
        assert plan.available(1, 3)  # untouched client is always available


class TestDropoutLogIndex:
    def test_per_round_index_matches_events(self):
        log = DropoutLog()
        log.record(1, 0, "local_train", "timeout")
        log.record(1, 0, "uplink", "timeout")  # same client, same round
        log.record(1, 2, "local_train", "worker_death")
        log.record(3, 1, "async_work", "injected_crash")
        assert log.count_for_round(1) == 2
        assert log.count_for_round(2) == 0
        assert log.count_for_round(3) == 1
        assert len(log) == 4

    def test_index_survives_state_round_trip(self):
        log = DropoutLog()
        log.record(1, 0, "local_train", "timeout")
        log.record(2, 1, "async_work", "injected_flaky")
        clone = DropoutLog()
        clone.load_state_dict(log.state_dict())
        assert clone.state_dict() == log.state_dict()
        assert clone.count_for_round(1) == 1
        assert clone.count_for_round(2) == 1


class TestParticipationSamplerState:
    def test_state_round_trip_is_bit_identical(self):
        sampler = ParticipationSampler(10, dropout_prob=0.4, seed=3)
        for _ in range(5):
            sampler.sample()  # advance the stream past its initial state
        state = sampler.state_dict()
        expected = [sampler.sample() for _ in range(20)]

        resumed = ParticipationSampler(10, dropout_prob=0.4, seed=999)
        resumed.load_state_dict(state)
        assert [resumed.sample() for _ in range(20)] == expected

    def test_state_dict_is_deep_copied(self):
        sampler = ParticipationSampler(10, dropout_prob=0.4, seed=3)
        state = sampler.state_dict()
        sampler.sample()  # must not mutate the captured state
        resumed = ParticipationSampler(10, dropout_prob=0.4, seed=0)
        resumed.load_state_dict(state)
        other = ParticipationSampler(10, dropout_prob=0.4, seed=3)
        assert resumed.sample() == other.sample()

    def test_extreme_dropout_topup_is_deterministic(self):
        draws = []
        for _ in range(2):
            sampler = ParticipationSampler(
                20, dropout_prob=0.99, min_available=5, seed=7
            )
            draws.append([sampler.sample() for _ in range(50)])
        assert draws[0] == draws[1]
        for round_sample in draws[0]:
            assert len(round_sample) >= 5
            assert len(set(round_sample)) == len(round_sample)  # no dupes
            assert round_sample == sorted(round_sample)
            assert all(0 <= cid < 20 for cid in round_sample)
