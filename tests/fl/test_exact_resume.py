"""Exact-resume equivalence: resumed runs are bit-identical to uninterrupted.

The paper's headline numbers are cumulative (MB-to-target-accuracy), so a
resume that zeroes the comm ledger or resets an RNG stream silently
corrupts results.  These tests enforce the contract end to end: run N
rounds uninterrupted vs. autosave a checkpoint at N/2, rebuild a *fresh*
federation, resume — the finished histories must match bit for bit
(accuracies, per-client accuracies, comm bytes, extras) under both the
serial and the parallel executor.
"""

import pytest

from repro.algorithms import build_algorithm
from repro.fl.checkpoint import load_checkpoint, load_history

from ..conftest import make_tiny_federation, records_json

ROUNDS = 4

# FedPKD plus two baselines, one of which (FedProto) carries cross-round
# algorithm state outside the models (its global prototypes)
CASES = [
    ("fedpkd", "mlp_medium"),
    ("fedproto", None),
    ("fedmd", None),
]


def _make_algo(bundle, algorithm, server_model, executor, **fed_kwargs):
    fed = make_tiny_federation(
        bundle,
        server_model=server_model,
        executor=executor,
        max_workers=2 if executor == "parallel" else None,
        **fed_kwargs,
    )
    return build_algorithm(algorithm, fed, seed=0, epoch_scale=0.1), fed


def assert_bit_identical(full, resumed):
    assert records_json(full) == records_json(resumed)


@pytest.mark.parametrize("algorithm,server_model", CASES)
@pytest.mark.parametrize("executor", ["serial", "parallel"])
def test_resume_is_bit_identical(
    tiny_bundle, tmp_path, algorithm, server_model, executor
):
    path = str(tmp_path / f"{algorithm}-{executor}.ckpt")

    # uninterrupted reference run
    algo, fed = _make_algo(tiny_bundle, algorithm, server_model, executor)
    try:
        full = algo.run(ROUNDS, eval_every=1)
    finally:
        fed.close()

    # first half, autosaving at the midpoint
    algo, fed = _make_algo(tiny_bundle, algorithm, server_model, executor)
    try:
        algo.run(
            ROUNDS // 2,
            eval_every=1,
            checkpoint_every=ROUNDS // 2,
            checkpoint_path=path,
        )
    finally:
        fed.close()

    # fresh federation + resume for the second half
    algo, fed = _make_algo(tiny_bundle, algorithm, server_model, executor)
    try:
        done = load_checkpoint(algo, path)
        assert done == ROUNDS // 2
        history = load_history(path)
        assert history is not None and len(history.records) == ROUNDS // 2
        resumed = algo.run(ROUNDS - done, eval_every=1, history=history)
    finally:
        fed.close()

    assert_bit_identical(full, resumed)


def test_resume_with_participation_dropout(tiny_bundle, tmp_path):
    """The ParticipationSampler RNG stream must survive the checkpoint."""
    path = str(tmp_path / "dropout.ckpt")

    algo, _ = _make_algo(
        tiny_bundle, "fedproto", None, "serial", dropout_prob=0.4
    )
    full = algo.run(ROUNDS, eval_every=1)

    algo, _ = _make_algo(
        tiny_bundle, "fedproto", None, "serial", dropout_prob=0.4
    )
    algo.run(ROUNDS // 2, eval_every=1, checkpoint_every=ROUNDS // 2,
             checkpoint_path=path)

    algo, _ = _make_algo(
        tiny_bundle, "fedproto", None, "serial", dropout_prob=0.4
    )
    done = load_checkpoint(algo, path)
    resumed = algo.run(ROUNDS - done, eval_every=1, history=load_history(path))

    assert_bit_identical(full, resumed)


def test_harness_resume_flow(tiny_bundle, tmp_path):
    """run_algorithm(resume=True) restores and finishes an interrupted run."""
    from repro.experiments.harness import ExperimentSetting, run_algorithm

    path = str(tmp_path / "harness.ckpt")
    base = dict(dataset="cifar10", scale="tiny", seed=0)

    full = run_algorithm(
        ExperimentSetting(**base), "fedproto", rounds=ROUNDS, eval_every=1
    )

    setting = ExperimentSetting(
        **base, checkpoint_every=ROUNDS // 2, checkpoint_path=path
    )
    run_algorithm(setting, "fedproto", rounds=ROUNDS // 2, eval_every=1)
    resumed = run_algorithm(
        setting, "fedproto", rounds=ROUNDS, eval_every=1, resume=True
    )

    assert_bit_identical(full, resumed)

    # resuming an already-finished run is a no-op returning the history
    again = run_algorithm(
        setting, "fedproto", rounds=ROUNDS, eval_every=1, resume=True
    )
    assert_bit_identical(full, again)


#: One crashed dispatch in round 1, so the run has a runtime dropout to
#: report before the mid-interval save below.
CRASH_IN_ROUND_1 = {"faults": [{"kind": "crash", "client_id": 1, "round": 0}]}


def test_mid_interval_resume_matches_uninterrupted_run(tiny_bundle, tmp_path):
    """eval_every=2 with checkpoint_every=1, interrupted during round 2:
    the round-1 autosave sits between two records.  Resumed with the
    checkpoint's history, the run records what an uninterrupted one does,
    including the runtime dropout of the round before the save."""
    path = str(tmp_path / "mid.ckpt")

    def make():
        return _make_algo(
            tiny_bundle, "fedpkd", "mlp_medium", "serial",
            fault_plan=CRASH_IN_ROUND_1,
        )

    algo, fed = make()
    try:
        full = algo.run(2, eval_every=2)
    finally:
        fed.close()
    assert full.records[-1].extras["runtime_dropouts"] == 1.0

    algo, fed = make()
    original = algo.server_update
    calls = {"n": 0}

    def interrupted(contributions, client_weights, contributors):
        calls["n"] += 1
        if calls["n"] == 2:
            raise KeyboardInterrupt
        return original(contributions, client_weights, contributors)

    algo.server_update = interrupted
    try:
        with pytest.raises(KeyboardInterrupt):
            algo.run(2, eval_every=2, checkpoint_every=1, checkpoint_path=path)
    finally:
        fed.close()

    algo, fed = make()
    try:
        assert load_checkpoint(algo, path) == 1
        resumed = algo.run(1, eval_every=2, history=load_history(path))
    finally:
        fed.close()
    assert_bit_identical(full, resumed)
