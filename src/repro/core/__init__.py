"""FedPKD core: the paper's primary contribution.

- :mod:`~repro.core.prototypes` — prototype computation/aggregation (Eqs. 5, 8) and geometry
- :mod:`~repro.core.aggregation` — logit aggregation rules (Eqs. 3, 6–7, ERA)
- :mod:`~repro.core.filtering` — prototype-based data filtering (Algorithm 1)
- :mod:`~repro.core.distillation` — prototype-based ensemble distillation (Eqs. 11–13)
- :mod:`~repro.core.fedpkd` — the full Algorithm 2 driver
"""

from .aggregation import (
    entropy_reduction_aggregate,
    entropy_weighted_aggregate,
    equal_average_aggregate,
    logit_variances,
    staleness_discounted_aggregate,
    staleness_weights,
    variance_weighted_aggregate,
)
from .distillation import prototype_ensemble_distill
from .fedpkd import FedPKD, FedPKDConfig
from .filtering import FilterResult, prototype_filter, random_filter
from .prototypes import (
    SeparationReport,
    aggregate_prototypes,
    merge_prototypes,
    prototype_coverage,
    prototype_distances,
    prototype_drift,
    prototype_separation,
)

__all__ = [
    "FedPKD",
    "FedPKDConfig",
    "variance_weighted_aggregate",
    "equal_average_aggregate",
    "entropy_reduction_aggregate",
    "entropy_weighted_aggregate",
    "logit_variances",
    "staleness_weights",
    "staleness_discounted_aggregate",
    "aggregate_prototypes",
    "merge_prototypes",
    "prototype_coverage",
    "prototype_distances",
    "prototype_separation",
    "prototype_drift",
    "SeparationReport",
    "prototype_filter",
    "random_filter",
    "FilterResult",
    "prototype_ensemble_distill",
]
