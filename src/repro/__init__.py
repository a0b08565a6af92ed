"""FedPKD reproduction: prototype-based knowledge distillation for
heterogeneous federated learning (ICDCS 2023).

Quickstart::

    from repro.data import synthetic_cifar10
    from repro.fl import FederationConfig, build_federation
    from repro.algorithms import build_algorithm

    bundle = synthetic_cifar10(seed=0)
    fed = build_federation(bundle, FederationConfig(num_clients=8))
    algo = build_algorithm("fedpkd", fed, epoch_scale=0.2)
    history = algo.run(rounds=10)
    print(history.final_server_acc, history.final_client_acc)

Subpackages
-----------
``repro.nn``
    From-scratch numpy autograd, layers, models, optimisers, losses.
``repro.data``
    Synthetic CIFAR-like tasks, non-IID partitioners, loaders.
``repro.fl``
    Federated simulation framework with communication accounting.
``repro.runtime``
    Client-execution runtime: serial and process-parallel executors with
    fault-tolerant workers (``FederationConfig(executor="parallel")``).
``repro.core``
    FedPKD itself: dual knowledge transfer, variance-weighted aggregation,
    prototype aggregation, data filtering, ensemble distillation, and
    prototype-geometry diagnostics.
``repro.baselines``
    FedAvg, FedProx, FedMD, DS-FL, FedDF, FedET, and the naive-KD pilot.
``repro.experiments``
    Runners that regenerate every figure and table of the paper.
``repro.sweep``
    Multi-run orchestration: declarative grid sweeps, a content-hash
    result cache, and a persistent run registry (``python -m repro
    sweep grid.json``).

BLAS threads: repro parallelises across processes (client executors,
``compare_algorithms``, sweeps), never inside BLAS.  Importing the package
sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS``
to ``1`` unless they are already set; it takes effect only if numpy was
not loaded before ``repro``.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

from . import baselines, core, data, fl, nn, runtime
from .algorithms import ALGORITHMS, algorithm_supports, build_algorithm

__version__ = "1.0.0"

__all__ = [
    "nn",
    "data",
    "fl",
    "core",
    "baselines",
    "runtime",
    "ALGORITHMS",
    "build_algorithm",
    "algorithm_supports",
    "__version__",
]
