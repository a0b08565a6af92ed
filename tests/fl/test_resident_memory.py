"""A federation's resident memory: one copy of the data plus the weights.

Clients hold :class:`~repro.data.Rows` views of the bundle's train rows,
so materialising every client of a federation costs index vectors, not a
second copy of the dataset; and a model leaves training without the
``.grad`` arrays that would double its footprint.
"""

import tracemalloc

import numpy as np
import pytest

from repro.data import Rows
from repro.experiments import harness
from repro.fl import TrainingConfig
from repro.fl.training import train_supervised
from repro.nn import build_model

#: the 16-client FedPKD federation the ``parallel_clients`` bench runs
SETTING = harness.ExperimentSetting(
    dataset="cifar10",
    partition="dir0.5",
    heterogeneous=True,
    scale="tiny",
    seed=5711,
    scale_overrides={
        "num_clients": 16, "n_train": 6400, "n_test": 640, "n_public": 200,
    },
)


@pytest.fixture(scope="module")
def bundle():
    return harness.make_bundle(SETTING)


def test_materialising_every_client_allocates_no_copy_of_the_data(bundle):
    federation = harness.federation_for(SETTING, "fedpkd", bundle)
    try:
        assert federation.num_clients == 16
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            clients = [federation.clients[cid] for cid in range(16)]
            allocated = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        weights = sum(
            np.asarray(v).nbytes
            for c in clients
            for v in c.model.state_dict().values()
        )
        # what is left besides the weights is indices, labels and objects;
        # one client's rows copied out of the bundle would exceed it
        data_bytes = bundle.train.x.nbytes
        assert allocated - weights < data_bytes / 10, (allocated, weights, data_bytes)
        for c in clients:
            assert isinstance(c.x_train, Rows) and c.x_train.base is bundle.train.x
            assert isinstance(c.x_test, Rows) and c.x_test.base is bundle.train.x
    finally:
        federation.close()


@pytest.mark.parametrize("epochs", [1, 2])
def test_training_drops_every_gradient_on_return(bundle, epochs):
    model = build_model(
        "mlp_small", bundle.num_classes, bundle.image_shape, feature_dim=16, rng=0
    )
    x = Rows(bundle.train.x, np.arange(0, 200, 3))
    y = bundle.train.y[x.index]
    config = TrainingConfig(epochs=epochs, batch_size=16, lr=1e-3, max_grad_norm=1.0)
    loss = train_supervised(model, x, y, config, np.random.default_rng(0))
    assert np.isfinite(loss)
    params = model.parameters()
    assert params and all(p.grad is None for p in params)
