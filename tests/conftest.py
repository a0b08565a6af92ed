"""Shared fixtures: tiny data bundles and federations that keep tests fast."""

from __future__ import annotations

# repro before numpy: importing repro pins BLAS to one thread per process
# (unless the environment says otherwise), which must precede numpy's load
# so the pool tests' forked workers do not oversubscribe the cores
import repro  # noqa: F401  isort: skip

import json

import numpy as np
import pytest

from repro.data import SyntheticImageTask
from repro.fl import FederationConfig, TrainingConfig, build_federation


@pytest.fixture(scope="session")
def tiny_task():
    """A small 6-class task shared across the test session."""
    return SyntheticImageTask(
        num_classes=6,
        image_shape=(3, 6, 6),
        latent_dim=8,
        class_separation=1.5,
        noise_scale=1.0,
        seed=7,
        name="tiny",
    )


@pytest.fixture(scope="session")
def tiny_bundle(tiny_task):
    return tiny_task.make_bundle(n_train=360, n_test=120, n_public=90, seed=11)


@pytest.fixture
def fast_train_cfg():
    return TrainingConfig(epochs=1, batch_size=16, lr=1e-3)


def make_tiny_federation(
    bundle,
    num_clients=3,
    client_models="mlp_small",
    server_model="mlp_small",
    partition=("dirichlet", {"alpha": 0.5}),
    seed=0,
    **kwargs,
):
    config = FederationConfig(
        num_clients=num_clients,
        partition=partition,
        client_models=client_models,
        server_model=server_model,
        feature_dim=16,
        seed=seed,
        **kwargs,
    )
    return build_federation(bundle, config)


def records_json(history) -> str:
    """A history's records as canonical JSON: every field, NaN == NaN."""
    return json.dumps(history.to_dict()["records"], sort_keys=True)


@pytest.fixture
def tiny_federation(tiny_bundle):
    return make_tiny_federation(tiny_bundle)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
