"""One pinned history per algorithm, under every executor, a resume, a
bounded registry and tracing with the op profiler on.

Each value is the sha256 of :func:`bench.workloads.canonical_history`
(per-round server accuracy, client accuracies and uplink/downlink bytes)
of a 2-round tiny-scale run with seed 0, recorded from the synchronous
round loop every algorithm ran under before the event engine became the
only one.  They move only when an algorithm's arithmetic or its
communication moves; re-record them in the same change that says so.

With observability off, a history is a function of the run config alone:
every other mode's records equal the serial run's, every field included.
"""

import functools
import hashlib

import pytest

from bench.workloads import canonical_history
from repro.algorithms import build_algorithm
from repro.experiments.harness import ExperimentSetting, run_algorithm
from repro.fl import TrainingConfig
from repro.obs import validate_trace_file

from ..conftest import make_tiny_federation, records_json

PINNED_HISTORIES = {
    "fedpkd": "9cf82b443c4f8b488fe49ada151d3d5fd7353ddd7e4139b19b43515ed547bf94",
    "fedavg": "66a7f956475f761f825805e00ae4ccbeb75cb85aaa704d5ff9d479189e6a271e",
    "fedprox": "544eaad4df1266d9f0fc397a1a92c1e82c64d2590747b34c869fba78651e5b29",
    "feddf": "96b6208f4605bd891fd0b831b9cac2687c54cddd929d37e45ec194d0afd8e0a3",
    "fedmd": "5db92ab07d60ea28eb7d09c2f7beb2c126a545e86a8f65a887b0710aed7557e6",
    "dsfl": "d93f0d8d6aecc4006f4fe0ee073132376bb9ddb9dfeba85f8eea3446e75c1b67",
    "fedet": "479bb4cb0d5d49436932d7c2002502c68ee39b09bfa6ce10a4174b2f9bdc9830",
    "fedproto": "5b3b54e7c4267a4b7bdcdc0c65bfe9ecdca3d1e9e3a0a7b645bdd0767baec297",
    "naive_kd": "f8691bc43d5e3de2b7714873cd1d6b7db9e1cdd0666ebc02753ab329959ec607",
}

ROUNDS = 2

#: Algorithms whose round trains the server model by distillation, and
#: so must trace a ``server_distill`` span.
SERVER_DISTILL_EVENTS = {
    "fedpkd": ("server_distill",),
    "feddf": ("server_distill", "feddf/distill"),
}


def history_digest(history) -> str:
    return hashlib.sha256(canonical_history(history).encode("utf-8")).hexdigest()


def serial(algorithm, tmp_path):
    return _serial(algorithm)


@functools.lru_cache(maxsize=None)
def _serial(algorithm):
    """The reference run, shared by the serial mode and the comparisons."""
    return run_algorithm(ExperimentSetting(scale="tiny"), algorithm, rounds=ROUNDS)


def parallel(algorithm, tmp_path):
    setting = ExperimentSetting(scale="tiny", executor="parallel", max_workers=2)
    return run_algorithm(setting, algorithm, rounds=ROUNDS)


def resumed_at_round_1(algorithm, tmp_path):
    setting = ExperimentSetting(
        scale="tiny", checkpoint_path=str(tmp_path / "run.ckpt"),
        checkpoint_every=1,
    )
    run_algorithm(setting, algorithm, rounds=1)
    return run_algorithm(setting, algorithm, rounds=ROUNDS, resume=True)


def bounded_resumed_at_round_1(algorithm, tmp_path):
    """One live client: every round spills and hydrates through the
    registry's log, and the checkpoint holds only the mutated clients."""
    setting = ExperimentSetting(
        scale="tiny", max_live_clients=1,
        checkpoint_path=str(tmp_path / "run.ckpt"), checkpoint_every=1,
    )
    run_algorithm(setting, algorithm, rounds=1)
    return run_algorithm(setting, algorithm, rounds=ROUNDS, resume=True)


def bounded(algorithm, tmp_path):
    """One live client, no resume: every round spills and hydrates."""
    setting = ExperimentSetting(scale="tiny", max_live_clients=1)
    return run_algorithm(setting, algorithm, rounds=ROUNDS)


def traced_profiled(algorithm, tmp_path):
    """Tracing, metrics export and the op profiler leave the history alone,
    and the trace they write passes the schema with the expected shape."""
    trace = tmp_path / "run.trace.jsonl"
    setting = ExperimentSetting(
        scale="tiny", profile=True, trace_path=str(trace),
        metrics_path=str(tmp_path / "run.metrics.jsonl"),
    )
    history = run_algorithm(setting, algorithm, rounds=ROUNDS)
    validate_trace_file(
        str(trace), expect_scopes=("run", "round", "stage", "profile"),
        expect_events=SERVER_DISTILL_EVENTS.get(algorithm, ("round_record",)),
    )
    return history


@pytest.mark.parametrize("mode", [serial, parallel, resumed_at_round_1,
                                  bounded_resumed_at_round_1, bounded,
                                  traced_profiled],
                         ids=lambda mode: mode.__name__)
@pytest.mark.parametrize("algorithm", sorted(PINNED_HISTORIES))
def test_history_is_pinned(algorithm, mode, tmp_path):
    history = mode(algorithm, tmp_path)
    assert len(history.records) == ROUNDS
    assert history_digest(history) == PINNED_HISTORIES[algorithm], (
        canonical_history(history)
    )
    if mode is not traced_profiled:
        assert records_json(history) == records_json(_serial(algorithm))


def test_full_barrier_round_is_one_stage_per_phase(tiny_bundle):
    """A full-barrier round hands every participant to one client_work
    call, so each per-client phase is one executor stage, not one per
    client — the parallel executor keeps its parallelism."""
    fed = make_tiny_federation(tiny_bundle, executor="parallel", max_workers=2)
    stages = []
    run_stage = fed.executor.run_stage

    def recording(participants, method, kwargs=None, stage=None):
        stages.append((stage, [c.client_id for c in participants]))
        return run_stage(participants, method, kwargs, stage=stage)

    fed.executor.run_stage = recording
    try:
        fast = TrainingConfig(epochs=1, batch_size=16)
        algo = build_algorithm("fedpkd", fed, seed=0, local=fast, public=fast, server=fast)
        algo.run(1)
    finally:
        fed.close()
    local = [ids for stage, ids in stages if stage == "local_train"]
    assert local == [[0, 1, 2]]
    assert [stage for stage, _ in stages] == [
        "local_train", "public_knowledge", "public_train"
    ]
