"""Deployment diagnostics: inspect *why* FedPKD's mechanisms work.

Runs a short FedPKD training, then uses ``repro.core.prototypes`` to report:

1. prototype separation in the server's feature space (is Algorithm 1's
   distance signal meaningful?),
2. per-round global-prototype drift (is the dual-knowledge loop converging?).

The Fig.-2 logit-quality report (each client's per-class accuracy against
the variance-weighted aggregate) is ``python -m repro experiment fig2``.

Run:  python examples/diagnostics.py
"""

import argparse

import numpy as np

from repro.core import FedPKD, FedPKDConfig
from repro.core.prototypes import prototype_drift, prototype_separation
from repro.data import synthetic_cifar10
from repro.fl import FederationConfig, TrainingConfig, build_federation


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument("--alpha", type=float, default=0.2)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    bundle = synthetic_cifar10(n_train=1600, n_test=500, n_public=400, seed=args.seed)
    config = FederationConfig(
        num_clients=6,
        partition=("dirichlet", {"alpha": args.alpha}),
        client_models="mlp_medium",
        server_model="mlp_large",
        seed=args.seed,
    )
    federation = build_federation(bundle, config)
    fast = TrainingConfig(epochs=3, batch_size=32)
    algo = FedPKD(
        federation,
        config=FedPKDConfig(
            local=fast, public=TrainingConfig(epochs=2), server=TrainingConfig(epochs=8)
        ),
        seed=args.seed,
    )

    proto_history = []
    for _ in range(args.rounds):
        algo.run(rounds=1)
        proto_history.append(algo.global_prototypes.copy())

    # 1. prototype separation in the server feature space
    feats = federation.server.model.extract_features(bundle.test.x)
    report = prototype_separation(feats, bundle.test.y, algo.global_prototypes)
    print("-- prototype geometry (server feature space) --")
    print(f"intra-class distance : {report.intra_class_distance:.3f}")
    print(f"inter-class distance : {report.inter_class_distance:.3f}")
    print(f"separation ratio     : {report.separation_ratio:.2f} "
          f"({'good' if report.separation_ratio > 1 else 'weak'} filtering signal)")

    # 2. prototype drift
    drift = prototype_drift(proto_history)
    print("\n-- global prototype drift per round --")
    print(np.round(drift, 4))

    print("\nper-class logit quality: python -m repro experiment fig2")


if __name__ == "__main__":
    main()
