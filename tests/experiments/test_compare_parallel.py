"""``compare_algorithms`` fans its arms out over the ``WorkerPool``.

Whether the runs go to worker processes or stay inline, every history must
equal a direct ``run_algorithm`` call with the arm's overrides; each arm
keeps its own artifacts; clashing labels are refused up front; and a lost
worker or an algorithm's own error surfaces as a named exception instead
of a hang.
"""

import json
import os
import signal
from contextlib import contextmanager

import pytest

from repro.algorithms import ALGORITHMS as REGISTRY
from repro.experiments import Arm, ExperimentSetting, compare_algorithms, run_algorithm
from repro.experiments import harness
from repro.obs.schema import validate_trace_file
from repro.obs.trace_analysis import load_trace

from .test_harness import FAST

ALGORITHMS = sorted(REGISTRY)


def _comparable(history) -> str:
    """The history minus wall-clock readings, as JSON (NaN == NaN)."""
    payload = history.to_dict()
    for record in payload["records"]:
        record.pop("wall_time_s")
        record["extras"] = {
            k: v for k, v in record["extras"].items() if not k.startswith("time/")
        }
    return json.dumps(payload, sort_keys=True)


@contextmanager
def _time_limit(seconds: int):
    """Raise ``TimeoutError`` in this process if the block outlives
    ``seconds`` (forked workers do not inherit the alarm)."""

    def expire(signum, frame):
        raise TimeoutError(f"no outcome within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def two_cores(monkeypatch):
    """Force the pool path (two workers) whatever the machine has, and
    count the pools ``compare_algorithms`` builds."""
    pools = []

    class CountingPool(harness.WorkerPool):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr(harness, "usable_cores", lambda n: min(n, 2))
    monkeypatch.setattr(harness, "WorkerPool", CountingPool)
    return pools


def test_pool_path_matches_run_algorithm(two_cores):
    setting = ExperimentSetting(**FAST)
    results = compare_algorithms(setting, ALGORITHMS)
    assert len(two_cores) == 1 and two_cores[0].max_workers == 2
    assert list(results) == ALGORITHMS
    for name in ALGORITHMS:
        assert results[name].algorithm == name
        assert _comparable(results[name]) == _comparable(
            run_algorithm(setting, name)
        ), name


def test_parallel_executor_stays_inline_and_matches_run_algorithm(two_cores):
    setting = ExperimentSetting(executor="parallel", max_workers=2, **FAST)
    results = compare_algorithms(setting, ALGORITHMS)
    assert two_cores == []  # the client pool owns the cores: no nested pool
    assert list(results) == ALGORITHMS
    for name in ALGORITHMS:
        assert _comparable(results[name]) == _comparable(
            run_algorithm(setting, name)
        ), name


def test_overrides_reach_their_algorithm_only(two_cores):
    setting = ExperimentSetting(**FAST)
    results = compare_algorithms(
        setting, ["fedavg", Arm("naive_kd", "naive_kd", {"distill_to_clients": False})]
    )
    assert _comparable(results["naive_kd"]) == _comparable(
        run_algorithm(setting, "naive_kd", distill_to_clients=False)
    )
    assert _comparable(results["fedavg"]) == _comparable(
        run_algorithm(setting, "fedavg")
    )


def test_two_arms_of_one_algorithm_keep_their_own_overrides(two_cores):
    setting = ExperimentSetting(**FAST)
    arms = [
        Arm("theta=0.3", "fedpkd", {"select_ratio": 0.3}),
        Arm("no filter", "fedpkd", {"use_filtering": False}),
    ]
    results = compare_algorithms(setting, arms)
    assert len(two_cores) == 1
    assert list(results) == ["theta=0.3", "no filter"]
    for arm in arms:
        assert results[arm.label].algorithm == "fedpkd"
        assert _comparable(results[arm.label]) == _comparable(
            run_algorithm(setting, "fedpkd", **arm.overrides)
        ), arm.label


@pytest.mark.parametrize(
    "arms",
    [
        ["fedavg", Arm("fedavg", "fedprox", {})],
        [Arm("w/o Pro", "fedpkd", {}), Arm("w_o Pro", "fedpkd", {})],
    ],
    ids=["same-label", "same-file-name"],
)
def test_clashing_labels_raise_before_any_run(two_cores, monkeypatch, arms):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(harness, "make_bundle", no_run)
    monkeypatch.setattr(harness, "run_algorithm", no_run)
    with pytest.raises(ValueError, match="arm labels clash"):
        compare_algorithms(ExperimentSetting(**FAST), arms)
    assert two_cores == []


def test_a_labelled_arm_names_its_artifacts_file_safely(tmp_path, two_cores):
    setting = ExperimentSetting(
        out_dir=str(tmp_path),
        trace_path="fig8.trace.jsonl",
        metrics_path="fig8.metrics.jsonl",
        **FAST,
    )
    compare_algorithms(
        setting, ["fedpkd", Arm("w/o Pro", "fedpkd", {"server_prototype_loss": False})]
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "fig8.fedpkd.metrics.jsonl",
        "fig8.fedpkd.trace.jsonl",
        "fig8.w_o_Pro.metrics.jsonl",
        "fig8.w_o_Pro.trace.jsonl",
    ]  # no w/ subdirectory
    for infix in ("fedpkd", "w_o_Pro"):
        trace = tmp_path / f"fig8.{infix}.trace.jsonl"
        validate_trace_file(str(trace), expect_scopes=["run", "round"])
        runs = [e for e in load_trace(str(trace)) if e.get("name") == "run"]
        assert len(runs) == 1 and runs[0]["attrs"]["algorithm"] == "fedpkd"


@pytest.mark.parametrize("pool", [True, False], ids=["pool", "inline"])
def test_every_algorithm_keeps_its_own_artifacts(tmp_path, monkeypatch, pool):
    if pool:
        monkeypatch.setattr(harness, "usable_cores", lambda n: min(n, 2))
    else:
        monkeypatch.setattr(harness, "usable_cores", lambda n: 1)
    setting = ExperimentSetting(
        out_dir=str(tmp_path),
        trace_path="fig5_cifar10.trace.jsonl",
        metrics_path="fig5_cifar10.metrics.jsonl",
        checkpoint_path="fig5_cifar10.ckpt",
        checkpoint_every=1,
        **FAST,
    )
    algorithms = ["fedavg", "fedproto"]
    compare_algorithms(setting, algorithms)
    for name in algorithms:
        trace = tmp_path / f"fig5_cifar10.{name}.trace.jsonl"
        validate_trace_file(str(trace), expect_scopes=["run", "round"])
        runs = [e for e in load_trace(str(trace)) if e.get("name") == "run"]
        assert runs and all(e["attrs"]["algorithm"] == name for e in runs)
        assert (tmp_path / f"fig5_cifar10.{name}.metrics.jsonl").stat().st_size > 0
        assert (tmp_path / f"fig5_cifar10.{name}.ckpt").exists()
    assert not (tmp_path / "fig5_cifar10.trace.jsonl").exists()


def test_an_algorithms_own_error_keeps_its_type(two_cores):
    # FedAvg averages weights, so it rejects heterogeneous client models
    setting = ExperimentSetting(heterogeneous=True, **FAST)
    with pytest.raises(ValueError, match="fedavg does not support heterogeneous"):
        compare_algorithms(setting, ["fedpkd", "fedavg"])


def test_a_lost_worker_raises_a_named_error(two_cores, monkeypatch):
    driver = os.getpid()
    build = harness.build_algorithm

    def dying_build(name, *args, **kwargs):
        if name == "fedproto":
            if os.getpid() == driver:
                raise AssertionError("fedproto ran on the driver, not in a worker")
            os._exit(1)  # the worker dies mid-run, as under the OOM killer
        return build(name, *args, **kwargs)

    # the workers fork from this process after the patch, so they inherit it
    monkeypatch.setattr(harness, "build_algorithm", dying_build)
    setting = ExperimentSetting(**FAST)
    with _time_limit(120), pytest.raises(RuntimeError, match="fedproto.*worker death"):
        compare_algorithms(setting, ["fedavg", "fedproto", "fedpkd"])
