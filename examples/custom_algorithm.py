"""Extending the framework: write your own FL algorithm in ~50 lines.

Demonstrates the public extension surface: subclass
``repro.fl.FederatedAlgorithm`` and implement its three round phases —
``dispatch_state`` (what clients train against), ``client_work`` (their
local work and metered uplink) and ``server_update`` (fold the uploads in,
each weighted by its staleness discount, and answer).  The round engine
handles dispatch, evaluation, failure injection and history recording,
and runs the algorithm synchronously or asynchronously alike.

The toy algorithm here — "FedTopK" — is a FedMD variant where each client
only uploads logits for the public samples it is most confident about
(top-k by logit variance), cutting uplink traffic.

Run:  python examples/custom_algorithm.py
"""

import argparse

import numpy as np

from repro.data import synthetic_cifar10
from repro.fl import (
    FederationConfig,
    FederatedAlgorithm,
    TrainingConfig,
    build_federation,
)


class FedTopK(FederatedAlgorithm):
    """FedMD-style logit consensus, uploading only confident samples."""

    name = "fedtopk"

    def __init__(self, federation, top_fraction=0.5, seed=0):
        super().__init__(federation, seed=seed)
        self.top_fraction = top_fraction
        self.local_cfg = TrainingConfig(epochs=2, batch_size=32)
        self.digest_cfg = TrainingConfig(epochs=2, batch_size=32)

    def dispatch_state(self):
        return {}  # clients train on their own data only

    def client_work(self, participants, snapshot):
        k = max(1, int(self.top_fraction * len(self.public_x)))
        uploads = []
        for client in participants:
            client.train_local(self.local_cfg)
            logits = client.logits_on(self.public_x)
            confident = np.argsort(logits.var(axis=1))[-k:]
            # upload only the confident subset (plus its indices)
            upload = {
                "logits": logits[confident],
                "indices": confident.astype(np.float32),
            }
            self.channel.upload(client.client_id, upload)
            uploads.append(upload)
        return uploads

    def server_update(self, contributions, client_weights, contributors):
        n_public = len(self.public_x)
        votes = np.zeros((n_public, self.bundle.num_classes))
        counts = np.zeros(n_public)
        for upload, weight in zip(contributions, client_weights):
            confident = upload["indices"].astype(np.int64)
            votes[confident] += weight * upload["logits"]
            counts[confident] += weight
        covered = counts > 0
        consensus = votes[covered] / counts[covered, None]
        x_cov = self.public_x[covered]
        for client in contributors:
            self.channel.download(client.client_id, {"consensus": consensus})
            client.train_public_distill(
                x_cov, consensus, self.digest_cfg, kd_weight=1.0
            )
        return {"covered_fraction": float(covered.mean())}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument("--top-fraction", type=float, default=0.4)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    bundle = synthetic_cifar10(n_train=1500, n_test=500, n_public=400, seed=args.seed)
    config = FederationConfig(
        num_clients=6,
        partition=("dirichlet", {"alpha": 0.3}),
        client_models="mlp_medium",
        server_model=None,
        seed=args.seed,
    )
    federation = build_federation(bundle, config)
    algo = FedTopK(federation, top_fraction=args.top_fraction, seed=args.seed)
    history = algo.run(rounds=args.rounds, verbose=True)
    print()
    print(f"best client accuracy : {history.best_client_acc:.3f}")
    print(f"total communication  : {history.records[-1].comm_total_mb:.2f} MB")
    print(
        "coverage of public set per round:",
        [round(r.extras["covered_fraction"], 2) for r in history.records],
    )


if __name__ == "__main__":
    main()
