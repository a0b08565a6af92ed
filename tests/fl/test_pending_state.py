"""Pending record extras survive checkpoint/resume.

Stage times, wall time, and runtime dropouts accumulate between
``eval_every`` boundaries.  A checkpoint written between two boundaries
must carry that partial accumulation: without it, a resumed run silently
drops the stage times and dropouts of the rounds since the last record.
"""

from repro.algorithms import build_algorithm
from repro.fl.checkpoint import load_checkpoint, read_checkpoint_meta, save_checkpoint

from ..conftest import make_tiny_federation


def make_algo(bundle, seed=0, **fed_kwargs):
    fed = make_tiny_federation(
        bundle, server_model="mlp_medium", seed=seed, **fed_kwargs
    )
    return build_algorithm("fedpkd", fed, seed=seed, epoch_scale=0.1)


PENDING = {
    "wall_time_s": 3.25,
    "stage_times": {"local_train": 1.5, "public_train": 0.75},
    "dropouts": 2,
}


class TestPendingState:
    def test_fresh_algorithm_has_empty_pending(self, tiny_bundle):
        algo = make_algo(tiny_bundle)
        assert algo.pending_state() == {
            "wall_time_s": 0.0,
            "stage_times": {},
            "dropouts": 0,
        }

    def test_load_pending_state_none_resets(self, tiny_bundle):
        algo = make_algo(tiny_bundle)
        algo.load_pending_state(PENDING)
        algo.load_pending_state(None)  # legacy checkpoint without the key
        assert algo.pending_state()["stage_times"] == {}

    def test_roundtrips_through_checkpoint(self, tiny_bundle, tmp_path):
        path = str(tmp_path / "c.npz")
        algo = make_algo(tiny_bundle)
        algo.load_pending_state(PENDING)
        save_checkpoint(algo, path)
        assert read_checkpoint_meta(path)["pending"] == PENDING

        fresh = make_algo(tiny_bundle)
        load_checkpoint(fresh, path)
        assert fresh.pending_state() == PENDING

    def test_restored_pending_merges_into_next_record(self, tiny_bundle, tmp_path):
        """The first record after a mid-interval resume covers the rounds
        before the save too, not just the post-resume rounds."""
        path = str(tmp_path / "c.npz")
        algo = make_algo(tiny_bundle)
        algo.load_pending_state(PENDING)
        save_checkpoint(algo, path)

        fresh = make_algo(tiny_bundle)
        load_checkpoint(fresh, path)
        history = fresh.run(1, eval_every=1)
        record = history.records[-1]
        # inherited pending amounts are lower bounds: the resumed round
        # adds its own wall time and stage times on top
        assert record.wall_time_s >= 3.25
        assert record.extras["time/local_train"] >= 1.5
        assert record.extras["time/public_train"] >= 0.75
        assert record.extras["runtime_dropouts"] == 2.0
        # the pending ledger is consumed by the record
        assert fresh.pending_state()["stage_times"] == {}

    def test_pending_cleared_at_record_boundary(self, tiny_bundle):
        algo = make_algo(tiny_bundle)
        algo.run(2, eval_every=1)
        assert algo.pending_state() == {
            "wall_time_s": 0.0,
            "stage_times": {},
            "dropouts": 0,
        }

    def test_interrupted_mid_interval_run_keeps_round_timings(
        self, tiny_bundle, tmp_path
    ):
        """The regression this feature exists for: eval_every=2 with
        checkpoint_every=1, interrupted during round 2.  The round-1
        autosave sits between record boundaries; resuming from it must
        produce a round-2 record whose stage times cover round 1 too."""
        import pytest

        path = str(tmp_path / "c.npz")
        algo = make_algo(tiny_bundle)
        original = algo.server_update
        calls = {"n": 0}

        def interrupted(contributions, client_weights, contributors):
            calls["n"] += 1
            if calls["n"] == 2:
                raise KeyboardInterrupt
            return original(contributions, client_weights, contributors)

        algo.server_update = interrupted
        with pytest.raises(KeyboardInterrupt):
            algo.run(2, eval_every=2, checkpoint_every=1, checkpoint_path=path)

        pending = read_checkpoint_meta(path)["pending"]
        assert pending["stage_times"]  # round 1's timings made the save
        assert pending["wall_time_s"] > 0.0

        resumed = make_algo(tiny_bundle)
        assert load_checkpoint(resumed, path) == 1
        history = resumed.run(1, eval_every=2)
        record = history.records[-1]
        assert record.round_index == 2
        # the single record spans both rounds: round 1's checkpointed
        # timings are a floor for what it reports
        for stage, seconds in pending["stage_times"].items():
            assert record.extras[f"time/{stage}"] >= seconds
        assert record.wall_time_s >= pending["wall_time_s"]
