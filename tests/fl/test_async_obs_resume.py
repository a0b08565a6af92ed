"""Observability survives async-engine resume.

The tracer appends to an existing trace behind a ``resume`` marker (it
must never truncate), and the restored run stays bit-identical to an
uninterrupted one, also when the checkpoint falls between two records.
These are the async-engine counterparts of tests/fl/test_exact_resume.py.
"""

import json

import pytest

from repro.algorithms import build_algorithm
from repro.experiments.harness import ExperimentSetting, run_algorithm
from repro.fl.async_engine import AsyncRoundEngine
from repro.fl.checkpoint import load_checkpoint, load_history
from repro.obs import validate_trace_file

from ..conftest import make_tiny_federation
from .test_exact_resume import CRASH_IN_ROUND_1, assert_bit_identical

ROUNDS = 4


def _async_setting(tmp_path, **extra):
    return ExperimentSetting(
        dataset="cifar10",
        scale="tiny",
        seed=0,
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
    engine = AsyncRoundEngine(
        algo, max_staleness=1, buffer_size=2, fault_plan=CRASH_IN_ROUND_1
    )
    return engine, fed


def test_async_mid_interval_resume_matches_uninterrupted_run(
    tiny_bundle, tmp_path
):
    """With ``eval_every=2`` and ``checkpoint_every=1``, interrupting
    during round 2 leaves a checkpoint between two records; resumed with
    its history, the run records what an uninterrupted one does, runtime
    dropouts included."""
    path = str(tmp_path / "mid.ckpt")
    engine, fed = _make_async(tiny_bundle)
    try:
        full = engine.run(2, eval_every=2)
    finally:
        fed.close()
    assert full.records[-1].extras["runtime_dropouts"] >= 1.0

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

    engine, fed = _make_async(tiny_bundle)
    try:
        assert load_checkpoint(engine.algo, path) == 1
        resumed = engine.run(1, eval_every=2, history=load_history(path))
    finally:
        fed.close()
    assert_bit_identical(full, resumed)
