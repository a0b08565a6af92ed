"""Observability survives async-engine resume.

The tracer appends to an existing trace behind a ``resume`` marker (it
must never truncate), the restored run stays bit-identical to an
uninterrupted one, and mid-eval-interval pending state (round timings
accumulated between eval records) makes it through the checkpoint.
These are the async-engine counterparts of tests/fl/test_exact_resume.py
and tests/fl/test_pending_state.py.
"""

import json

import pytest

from repro.algorithms import build_algorithm
from repro.experiments.harness import ExperimentSetting, run_algorithm
from repro.fl.async_engine import AsyncRoundEngine
from repro.fl.checkpoint import load_checkpoint, read_checkpoint_meta
from repro.obs import validate_trace_file

from ..conftest import make_tiny_federation
from .test_exact_resume import assert_bit_identical

ROUNDS = 4


def _async_setting(tmp_path, **extra):
    return ExperimentSetting(
        dataset="cifar10",
        scale="tiny",
        seed=0,
        engine="async",
        max_staleness=1,
        buffer_size=2,
        **extra,
    )


def _load_events(path):
    with open(path, "r", encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def test_async_resume_appends_to_trace(tmp_path):
    """Resuming reopens the trace in append mode behind a resume marker."""
    ckpt = str(tmp_path / "async.ckpt")
    trace = str(tmp_path / "async.trace.jsonl")

    setting = _async_setting(
        tmp_path, checkpoint_every=ROUNDS // 2, checkpoint_path=ckpt,
        trace_path=trace,
    )
    run_algorithm(setting, "fedpkd", rounds=ROUNDS // 2, eval_every=1)
    first_half = _load_events(trace)
    assert first_half[0]["name"] == "run_start"

    run_algorithm(setting, "fedpkd", rounds=ROUNDS, eval_every=1, resume=True)

    # the whole file — old half plus appended half — still validates
    count = validate_trace_file(trace)
    events = _load_events(trace)
    assert count == len(events)
    # the first half survived verbatim, then the resume marker
    assert events[: len(first_half)] == first_half
    marker = events[len(first_half)]
    assert marker["name"] == "resume"
    assert marker["attrs"]["round_index"] == ROUNDS // 2
    # the appended half holds the remaining rounds' spans
    resumed_rounds = [
        e for e in events[len(first_half):]
        if e.get("scope") == "round" and e.get("name") == "round"
    ]
    assert len(resumed_rounds) == ROUNDS - ROUNDS // 2


def test_async_resume_is_bit_identical(tmp_path):
    """Checkpoint/restore under the async engine changes no history bits."""
    ckpt = str(tmp_path / "bits.ckpt")

    full = run_algorithm(
        _async_setting(tmp_path), "fedpkd", rounds=ROUNDS, eval_every=1
    )

    setting = _async_setting(
        tmp_path, checkpoint_every=ROUNDS // 2, checkpoint_path=ckpt
    )
    run_algorithm(setting, "fedpkd", rounds=ROUNDS // 2, eval_every=1)
    resumed = run_algorithm(
        setting, "fedpkd", rounds=ROUNDS, eval_every=1, resume=True
    )

    assert_bit_identical(full, resumed)


def _make_async(bundle):
    fed = make_tiny_federation(bundle, server_model="mlp_small")
    algo = build_algorithm("fedpkd", fed, seed=0, epoch_scale=0.1)
    return AsyncRoundEngine(algo, max_staleness=1, buffer_size=2), fed


def test_async_resume_restores_pending_state(tiny_bundle, tmp_path):
    """A checkpoint mid-eval-interval keeps the interval's pending extras.

    With ``eval_every=2`` and ``checkpoint_every=1``, interrupting during
    round 2 leaves round 1's timings only in the checkpoint's pending
    ledger; resuming must fold them into the eventual round-2 record.
    """
    path = str(tmp_path / "pending.ckpt")
    engine, fed = _make_async(tiny_bundle)
    original = engine._run_engine_round
    calls = {"n": 0}

    def interrupted():
        calls["n"] += 1
        if calls["n"] == 2:
            raise KeyboardInterrupt
        return original()

    engine._run_engine_round = interrupted
    try:
        with pytest.raises(KeyboardInterrupt):
            engine.run(
                2, eval_every=2, checkpoint_every=1, checkpoint_path=path
            )
    finally:
        fed.close()

    pending = read_checkpoint_meta(path)["pending"]
    assert pending["stage_times"]  # round 1's timings made the save
    assert pending["wall_time_s"] > 0.0

    engine, fed = _make_async(tiny_bundle)
    try:
        assert load_checkpoint(engine.algo, path) == 1
        history = engine.run(1, eval_every=2)
    finally:
        fed.close()
    record = history.records[-1]
    assert record.round_index == 2
    # the single record spans both rounds: round 1's checkpointed
    # timings are a floor for what it reports
    for stage, seconds in pending["stage_times"].items():
        assert record.extras[f"time/{stage}"] >= seconds
    assert record.wall_time_s >= pending["wall_time_s"]
