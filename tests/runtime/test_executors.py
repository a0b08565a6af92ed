"""Serial/parallel equivalence and fault tolerance of the runtime.

The headline guarantee of :mod:`repro.runtime` is that a parallel run is
*bit-identical* to a serial one: every field of every history record
must match exactly.  The second guarantee is that a stalled or killed
worker degrades to a per-round dropout instead of aborting the run.
"""

import os
import pickle
import time

import numpy as np
import pytest

import repro.runtime.worker as worker_mod
from repro.algorithms import build_algorithm
from repro.runtime import (
    ClientTask,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
)
from repro.fl import FederationConfig
from repro.obs import trace_analysis

from ..conftest import make_tiny_federation, records_json


def _run(bundle, algorithm, executor, server_model, rounds=2, **cfg_kwargs):
    fed = make_tiny_federation(
        bundle,
        num_clients=3,
        server_model=server_model,
        executor=executor,
        **cfg_kwargs,
    )
    algo = build_algorithm(algorithm, fed, seed=0, epoch_scale=0.2)
    try:
        history = algo.run(rounds, eval_every=1)
    finally:
        fed.close()
    return history, algo


@pytest.fixture
def fault_hook():
    """Install a worker fault hook; always uninstalled afterwards."""

    def install(hook):
        worker_mod.FAULT_HOOK = hook

    yield install
    worker_mod.FAULT_HOOK = None


class TestFactory:
    def test_default_is_serial(self):
        config = FederationConfig(num_clients=2)
        assert isinstance(make_executor(config), SerialExecutor)

    def test_parallel_from_config(self):
        config = FederationConfig(
            num_clients=2, executor="parallel", max_workers=2, task_timeout_s=5.0
        )
        executor = make_executor(config)
        assert isinstance(executor, ParallelExecutor)
        assert executor.max_workers == 2
        assert executor.task_timeout_s == 5.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FederationConfig(num_clients=2, executor="threads")

    def test_task_method_whitelist(self):
        with pytest.raises(ValueError):
            ClientTask(client_id=0, method="__reduce__", kwargs={})


class TestSpecs:
    """A pool start ships the bundle's rows once and per-client indices, so
    a start method that pickles its initializer arguments (spawn,
    forkserver) never pickles the dataset once per client."""

    def test_specs_are_index_sized_and_the_rows_travel_once(self, tiny_bundle):
        fed = make_tiny_federation(tiny_bundle, num_clients=3, executor="parallel")
        try:
            specs, shared = fed.executor._build_specs()
            assert sorted(specs) == [0, 1, 2]
            assert shared["train_x"] is tiny_bundle.train.x
            assert shared["train_y"] is tiny_bundle.train.y
            data_bytes = tiny_bundle.train.x.nbytes
            spec_bytes = sum(len(pickle.dumps(spec)) for spec in specs.values())
            assert spec_bytes < data_bytes / 10, (spec_bytes, data_bytes)
        finally:
            fed.close()

    def test_a_worker_rebuilds_the_drivers_client_data(self, tiny_bundle):
        fed = make_tiny_federation(tiny_bundle, num_clients=3, executor="parallel")
        try:
            worker_mod.init_worker(*fed.executor._build_specs())
            for cid in range(3):
                driver, rebuilt = fed.clients[cid], worker_mod._client_for(cid)
                for name in ("x_train", "x_test"):
                    want = getattr(driver, name)[:]
                    assert getattr(rebuilt, name)[:].tobytes() == want.tobytes()
                for name in ("y_train", "y_test"):
                    want = getattr(driver, name)
                    got = getattr(rebuilt, name)
                    assert got.dtype == want.dtype and np.array_equal(got, want)
        finally:
            worker_mod.init_worker({}, {})
            fed.close()

    def test_a_named_client_without_a_bundle_view_is_refused(self, tiny_bundle):
        fed = make_tiny_federation(tiny_bundle, num_clients=2, executor="parallel")
        try:
            client = fed.clients[1]
            client.x_train = client.x_train[:]
            with pytest.raises(ValueError, match="client 1"):
                fed.executor._build_specs()
        finally:
            fed.close()


class TestEquivalence:
    @pytest.mark.parametrize(
        "algorithm,server_model",
        [("fedavg", "mlp_small"), ("fedpkd", "mlp_medium")],
    )
    def test_parallel_matches_serial_bit_for_bit(
        self, tiny_bundle, algorithm, server_model
    ):
        serial, _ = _run(tiny_bundle, algorithm, "serial", server_model)
        parallel, _ = _run(
            tiny_bundle, algorithm, "parallel", server_model, max_workers=2
        )
        assert len(serial.records) == len(parallel.records) == 2
        assert records_json(serial) == records_json(parallel)

    def test_stage_timings_recorded(self, tiny_bundle, tmp_path):
        # a stage's time is its trace span, summed by `repro trace summarize`
        trace = str(tmp_path / "run.trace.jsonl")
        _run(
            tiny_bundle, "fedavg", "parallel", "mlp_small", rounds=1,
            max_workers=2, trace_path=trace,
        )
        rows = trace_analysis.stage_summary(trace_analysis.load_trace(trace))
        by_stage = {row["stage"]: row for row in rows}
        assert by_stage["local_train"]["count"] == 1
        assert all(row["total_s"] >= 0.0 for row in rows)


class TestFaultTolerance:
    def test_timeout_degrades_to_dropout(self, tiny_bundle, fault_hook):
        def stall_client_zero(task):
            if task.client_id == 0 and task.method == "train_local":
                time.sleep(30.0)

        fault_hook(stall_client_zero)
        fed = make_tiny_federation(
            tiny_bundle,
            num_clients=3,
            server_model="mlp_small",
            executor="parallel",
            max_workers=2,
            task_timeout_s=1.0,
            task_retries=0,
        )
        algo = build_algorithm("fedavg", fed, seed=0, epoch_scale=0.2)
        try:
            history = algo.run(1, eval_every=1)
        finally:
            fed.close()
        # the run completed; client 0 merely missed the round
        assert len(history.records) == 1
        assert [(e.client_id, e.stage, e.reason) for e in algo.dropout_log.events] == [
            (0, "local_train", "timeout")
        ]
        assert history.records[0].extras["runtime_dropouts"] == 1.0
        assert history.records[0].extras["participants"] == 2.0

    def test_every_stalled_task_times_out_however_many_recycles(
        self, tiny_bundle, fault_hook
    ):
        # each timeout replaces the workers; no task may escape its
        # deadline by running inline once the pool has been replaced often
        def stall_first_five(task):
            if task.client_id < 5 and task.method == "train_local":
                time.sleep(60.0)

        fault_hook(stall_first_five)
        fed = make_tiny_federation(
            tiny_bundle,
            num_clients=6,
            server_model="mlp_small",
            executor="parallel",
            max_workers=2,
            task_timeout_s=0.5,
            task_retries=0,
        )
        algo = build_algorithm("fedavg", fed, seed=0, epoch_scale=0.2)
        try:
            algo.run(1, eval_every=1)
        finally:
            fed.close()
        assert [(e.client_id, e.reason) for e in algo.dropout_log.events] == [
            (client_id, "timeout") for client_id in range(5)
        ]

    def test_worker_death_never_aborts_run(self, tiny_bundle, fault_hook):
        def kill_client_zero(task):
            if task.client_id == 0 and task.method == "train_local":
                os._exit(1)

        fault_hook(kill_client_zero)
        fed = make_tiny_federation(
            tiny_bundle,
            num_clients=3,
            server_model="mlp_small",
            executor="parallel",
            max_workers=2,
            task_timeout_s=30.0,
            task_retries=0,
        )
        algo = build_algorithm("fedavg", fed, seed=0, epoch_scale=0.2)
        try:
            history = algo.run(1, eval_every=1)
        finally:
            fed.close()
        # the poisoned task falls back to inline execution (the hook only
        # fires inside workers), so nobody drops and the round completes
        assert len(history.records) == 1
        assert history.records[0].extras["participants"] == 3.0
