"""Declared carried state: what an algorithm keeps across rounds is named in
``carried_state``, checkpointed exactly, and nothing else may be rebound
once a run has started."""

import numpy as np
import pytest

from repro.algorithms import build_algorithm
from repro.fl.checkpoint import load_checkpoint, save_checkpoint
from repro.fl.simulation import FederatedAlgorithm
from repro.nn import deserialize_state

from ..conftest import make_tiny_federation


class LeakyAlgo(FederatedAlgorithm):
    """Rebinds ``temperature`` in a round without declaring it."""

    name = "leaky"

    def dispatch_state(self):
        return {}

    def client_work(self, participants, snapshot):
        return [{} for _ in participants]

    def server_update(self, contributions, client_weights, contributors):
        self.temperature = 0.5
        return {"participants": float(len(contributors))}


def test_undeclared_rebinding_in_a_round_raises(tiny_federation):
    algo = LeakyAlgo(tiny_federation)
    algo.temperature = 1.0  # before the first round: still construction
    with pytest.raises(AttributeError, match=r"LeakyAlgo\.temperature"):
        algo.run(rounds=1)


@pytest.mark.parametrize("name", ["fedpkd", "fedproto"])
def test_prototype_algorithms_checkpoint_their_prototypes(name, tiny_bundle, tmp_path):
    algo = build_algorithm(name, make_tiny_federation(tiny_bundle), epoch_scale=0.1)
    assert algo.extra_state() == {}  # no prototypes before the first round
    algo.run(rounds=1)
    path = str(tmp_path / f"{name}.ckpt")
    save_checkpoint(algo, path)
    with open(path, "rb") as f:
        arrays, _ = deserialize_state(f.read())
    algo_keys = [key for key in arrays if key.startswith("algo::")]
    assert algo_keys == ["algo::global_prototypes"]
    np.testing.assert_array_equal(
        arrays["algo::global_prototypes"], algo.global_prototypes
    )
    # the loaded prototypes are the resumed run's own copy, not a view
    resumed = build_algorithm(name, make_tiny_federation(tiny_bundle), epoch_scale=0.1)
    load_checkpoint(resumed, path)
    assert resumed.global_prototypes.flags.owndata
    np.testing.assert_array_equal(resumed.global_prototypes, algo.global_prototypes)
