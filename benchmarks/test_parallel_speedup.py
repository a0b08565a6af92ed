"""Parallel-executor speedup: the one substrate benchmark that asserts a bar.

Op-level timings (training steps, conv, aggregation, filtering) live in
``python -m bench`` (``nn.probe_*``, ``core.aggregate_s``,
``core.filter_s``); this file keeps only the wall-clock speedup check.
"""

import os
import time

import pytest

IMG = (3, 8, 8)


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="parallel speedup needs at least 4 cores",
)
def test_parallel_executor_speedup(benchmark):
    """An 8-client round with 4 workers must beat serial by >= 1.5x.

    Measures one full FedAvg round per executor (after a warm-up round so
    the parallel pool and worker-side client caches exist), at a scale
    where per-client training dominates serialization overhead.
    """
    from repro.algorithms import build_algorithm
    from repro.data import SyntheticImageTask
    from repro.fl import FederationConfig, build_federation

    task = SyntheticImageTask(
        num_classes=6,
        image_shape=IMG,
        latent_dim=8,
        class_separation=1.5,
        noise_scale=1.0,
        seed=7,
        name="bench",
    )
    bundle = task.make_bundle(n_train=2400, n_test=240, n_public=120, seed=11)

    def round_time(executor):
        config = FederationConfig(
            num_clients=8,
            partition=("dirichlet", {"alpha": 0.5}),
            client_models="mlp_medium",
            server_model="mlp_medium",
            seed=0,
            executor=executor,
            max_workers=4,
        )
        fed = build_federation(bundle, config)
        algo = build_algorithm("fedavg", fed, seed=0)
        try:
            algo.run(1, eval_every=1)  # warm-up: spin up pool + caches
            start = time.perf_counter()
            algo.run(1, eval_every=1, history=None)
            return time.perf_counter() - start
        finally:
            fed.close()

    serial_s = round_time("serial")
    parallel_s = benchmark.pedantic(
        round_time, args=("parallel",), rounds=1, iterations=1
    )
    speedup = serial_s / parallel_s
    benchmark.extra_info["serial_s"] = serial_s
    benchmark.extra_info["speedup"] = speedup
    assert speedup >= 1.5
