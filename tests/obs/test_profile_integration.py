"""Profiling must never change results: history bit-identity on vs off.

The acceptance bar for the op-level profiler is that it only *observes*:
a profiled run's history (accuracies, per-client accuracies, comm bytes,
deterministic extras) matches the unprofiled run bit for bit, under both
executors and for a KD algorithm (fedpkd), a prototype one (fedproto) and
one with a proximal term (fedprox).
CI's observability-smoke job runs this file.
"""

import math

import pytest

from repro.algorithms import build_algorithm

from ..conftest import make_tiny_federation

ROUNDS = 2

#: extras keys that legitimately differ with profiling on: the profiler's
#: own gauges and runtime task counters (which also differ serial vs
#: parallel).  Everything else — accuracies, comm bytes, algorithm
#: metrics, channel gauges — must match bit for bit.
_OBS_PREFIXES = ("profile/", "runtime/")


def _core_extras(record):
    return {
        k: v
        for k, v in record.extras.items()
        if not k.startswith(_OBS_PREFIXES)
    }


def assert_histories_match(off, on):
    assert len(off.records) == len(on.records)
    for a, b in zip(off.records, on.records):
        assert a.round_index == b.round_index
        assert a.server_acc == b.server_acc or (
            math.isnan(a.server_acc) and math.isnan(b.server_acc)
        )
        assert a.client_accs == b.client_accs
        assert a.comm_uplink_bytes == b.comm_uplink_bytes
        assert a.comm_downlink_bytes == b.comm_downlink_bytes
        ea, eb = _core_extras(a), _core_extras(b)
        assert ea.keys() == eb.keys()
        for key in ea:
            va, vb = ea[key], eb[key]
            if isinstance(va, float) and math.isnan(va):
                assert isinstance(vb, float) and math.isnan(vb), key
            else:
                assert va == vb, key

CASES = [
    ("fedpkd", "mlp_small"),
    ("fedproto", None),
    ("fedprox", "mlp_small"),
]


def _run(bundle, algorithm, server_model, executor, profile, tmp_path):
    # both variants enable the obs bundle (metrics export) so their round
    # extras carry the same metric snapshot; profiling adds only profile/*
    fed = make_tiny_federation(
        bundle,
        server_model=server_model,
        executor=executor,
        max_workers=2 if executor == "parallel" else None,
        metrics_path=str(tmp_path / f"{executor}-{profile}-metrics.json"),
        profile=profile,
    )
    try:
        algo = build_algorithm(algorithm, fed, seed=0, epoch_scale=0.1)
        return algo.run(ROUNDS, eval_every=1)
    finally:
        fed.close()


@pytest.mark.parametrize("algorithm,server_model", CASES)
def test_profiled_serial_history_bit_identical(
    tiny_bundle, tmp_path, algorithm, server_model
):
    off = _run(
        tiny_bundle, algorithm, server_model, "serial", False, tmp_path
    )
    on = _run(
        tiny_bundle, algorithm, server_model, "serial", True, tmp_path
    )
    assert_histories_match(off, on)


@pytest.mark.parametrize("algorithm,server_model", CASES)
def test_profiled_parallel_history_matches_serial_unprofiled(
    tiny_bundle, tmp_path, algorithm, server_model
):
    serial_off = _run(
        tiny_bundle, algorithm, server_model, "serial", False, tmp_path
    )
    parallel_on = _run(
        tiny_bundle, algorithm, server_model, "parallel", True, tmp_path
    )
    assert_histories_match(serial_off, parallel_on)


def test_profiled_run_collects_local_train_ops(tiny_bundle):
    """The driver profiler actually receives per-stage attribution."""
    fed = make_tiny_federation(tiny_bundle, server_model="mlp_small", profile=True)
    try:
        algo = build_algorithm("fedpkd", fed, seed=0, epoch_scale=0.1)
        algo.run(ROUNDS, eval_every=1)
        rows = fed.obs.profiler.rows()
    finally:
        fed.close()
    stages = {r["stage"] for r in rows}
    assert "local_train" in stages
    assert "server_distill" in stages
    lt_ops = {r["op"] for r in rows if r["stage"] == "local_train"}
    assert "matmul" in lt_ops
    assert "train.glue" in lt_ops
