"""Bench: regenerate Fig. 3 (communication and accuracy vs public-set size)."""

from repro.experiments import FIGURES

from .conftest import run_once


def test_fig3_comm_scaling(benchmark, scale):
    sizes = (100, 200, 400)
    results = run_once(
        benchmark, FIGURES["fig3"].run, scale=scale, seed=0,
        public_sizes=sizes,
    )
    sweep = results["sweep"]
    benchmark.extra_info["sweep"] = [
        {k: round(float(v), 5) for k, v in point.items()} for point in sweep
    ]
    benchmark.extra_info["model_update_mb"] = round(results["model_update_mb"], 5)

    # Paper claim 1: logit traffic is proportional to the public-set size.
    comm = [p["uplink_mb_per_client_round"] for p in sweep]
    assert comm[0] < comm[1] < comm[2]
    ratio = comm[2] / comm[0]
    assert abs(ratio - sizes[2] / sizes[0]) < 0.01

    # Paper claim 2: with enough public data the per-round logit payload can
    # exceed the one-shot model-update payload trend-wise; at minimum the
    # crossover size is finite and computable.
    per_sample_mb = comm[0] / sizes[0]
    crossover = results["model_update_mb"] / per_sample_mb
    benchmark.extra_info["crossover_public_size"] = int(crossover)
    assert crossover > 0
    print()
    print(FIGURES["fig3"].table(results))
