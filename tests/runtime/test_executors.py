"""Serial/parallel equivalence and fault tolerance of the runtime.

The headline guarantee of :mod:`repro.runtime` is that a parallel run is
*bit-identical* to a serial one: accuracies, per-client accuracies, and
communication bytes must match exactly (only the ``time/*`` extras may
differ).  The second guarantee is that a stalled or killed worker degrades
to a per-round dropout instead of aborting the run.
"""

import os
import time

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

from ..conftest import make_tiny_federation


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


def _comparable_extras(record):
    return {k: v for k, v in record.extras.items() if not k.startswith("time/")}


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
        for rs, rp in zip(serial.records, parallel.records):
            assert rs.server_acc == rp.server_acc
            assert rs.client_accs == rp.client_accs
            assert rs.comm_uplink_bytes == rp.comm_uplink_bytes
            assert rs.comm_downlink_bytes == rp.comm_downlink_bytes
            assert _comparable_extras(rs) == _comparable_extras(rp)

    def test_stage_timings_recorded(self, tiny_bundle):
        history, _ = _run(
            tiny_bundle, "fedavg", "parallel", "mlp_small", rounds=1, max_workers=2
        )
        times = [k for k in history.records[0].extras if k.startswith("time/")]
        assert "time/local_train" in times
        assert all(history.records[0].extras[k] >= 0.0 for k in times)


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
