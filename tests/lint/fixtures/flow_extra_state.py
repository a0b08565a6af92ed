# lint-fixture-module: repro.baselines.fx_ckpt
"""FederatedAlgorithm subclasses whose extra_state round-trip is incomplete.

``LeakyAlgo`` mutates two attributes outside ``__init__``: one is never
exported at all (flagged at the store site), the other is exported but
never restored (flagged at the ``extra_state`` definition).  ``SoundAlgo``
round-trips everything and stays clean.
"""

import numpy as np

from ..fl.simulation import FederatedAlgorithm


class LeakyAlgo(FederatedAlgorithm):
    name = "leaky"

    def server_update(self, contributions, client_weights, contributors):
        self.global_logits = np.zeros((4, 2), dtype=np.float64)  # BAD
        self.temperature = 0.5
        return {"participants": float(len(contributors))}

    def extra_state(self):  # BAD
        return {"temperature": self.temperature}

    def load_extra_state(self, state):
        pass


class SoundAlgo(FederatedAlgorithm):
    name = "sound"

    def server_update(self, contributions, client_weights, contributors):
        self.round_scale = 1.0
        return {"participants": float(len(contributors))}

    def extra_state(self):
        return {"round_scale": self.round_scale}

    def load_extra_state(self, state):
        self.round_scale = float(state["round_scale"])
