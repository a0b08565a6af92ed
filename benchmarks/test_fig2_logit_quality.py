"""Bench: regenerate Fig. 2 (per-class logit quality under class-disjoint
non-IID) and check the paper's specialisation claim."""

import numpy as np

from repro.experiments import FIGURES

from .conftest import run_once


def test_fig2_logit_quality(benchmark, scale):
    results = run_once(
        benchmark, FIGURES["fig2"].run, scale=scale, seed=0, local_epochs=40
    )
    acc = results["client_acc"]
    benchmark.extra_info["client1_acc"] = np.round(np.nan_to_num(acc[0]), 3).tolist()
    benchmark.extra_info["client2_acc"] = np.round(np.nan_to_num(acc[1]), 3).tolist()
    benchmark.extra_info["aggregated_acc"] = np.round(
        np.nan_to_num(results["aggregated_acc"]), 3
    ).tolist()

    # Paper claim: each client is accurate on its own classes, weak elsewhere.
    client1_own = np.nanmean(acc[0, :5])
    client1_other = np.nanmean(acc[0, 5:])
    client2_own = np.nanmean(acc[1, 5:])
    client2_other = np.nanmean(acc[1, :5])
    assert client1_own > client1_other
    assert client2_own > client2_other
