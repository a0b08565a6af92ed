"""Benchmark fixtures.

Each benchmark runs one experiment module at the ``tiny`` scale once (the
runs are full FL trainings, so ``rounds=1, iterations=1``) and attaches the
reproduced numbers to ``benchmark.extra_info`` so the regenerated rows are
visible in the benchmark JSON alongside the timings.
"""

from __future__ import annotations

import pytest

import repro  # noqa: F401  pins BLAS to one thread before a test module loads numpy


def run_once(benchmark, fn, **kwargs):
    """Run ``fn(**kwargs)`` once under pytest-benchmark and return its result."""
    result = benchmark.pedantic(fn, kwargs=kwargs, rounds=1, iterations=1)
    return result


@pytest.fixture
def bench_scale():
    """Scale used by benchmarks; override with --bench-scale."""
    return "tiny"


def pytest_addoption(parser):
    parser.addoption(
        "--bench-scale",
        default="tiny",
        choices=("tiny", "small", "paper"),
        help="experiment scale for the figure/table benchmarks",
    )


@pytest.fixture
def scale(request):
    return request.config.getoption("--bench-scale")
