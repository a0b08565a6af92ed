"""Every figure and table of the paper's evaluation, as one table of
declarations.

``FIGURES`` maps the CLI names (``fig1`` … ``fig10``, ``table1``) to a
:class:`Figure`.  ``figure.run(scale=..., seed=..., **options)`` returns the
raw result dict and ``figure.table(results)`` renders it;
``python -m repro experiment NAME`` does both.

A grid figure (Figs. 1, 5–10, Table I) declares the cells the CLI runs
(dataset → partitions), its arms and a ``reduce`` from
``{dataset: {partition: {label: RunHistory}}}`` to its result shape.  One
runner calls :func:`~repro.experiments.harness.compare_algorithms` once per
cell, so every cell's arms run on the same data and fan out over the
worker pool.  Its options narrow the declaration: ``datasets``, ``partitions``
(per dataset), ``arms`` (declared labels, algorithm names or ``Arm``
values) and ``rounds``; any other keyword goes to ``reduce`` (Table I's
``target_fraction``).  Figs. 2 and 3 do not
share a bundle across their points and keep bespoke ``compute`` functions.

The claims each figure reproduces are in DESIGN.md and EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..algorithms import algorithm_supports
from ..core.aggregation import equal_average_aggregate, variance_weighted_aggregate
from ..fl.config import FederationConfig, TrainingConfig
from ..fl.simulation import build_federation
from ..nn.models import build_model
from ..nn.serialize import WIRE_DTYPE
from .harness import (
    Arm,
    ExperimentSetting,
    compare_algorithms,
    format_table,
    make_bundle,
    model_roles,
    run_algorithm,
)

__all__ = ["Figure", "FIGURES", "EXTENDED_ARMS", "fedpkd_sweep"]

Rows = Iterable[Sequence[object]]


@dataclass(frozen=True)
class Figure:
    """One paper figure/table: how to compute its results and print them."""

    title: str
    headers: Tuple[str, ...] = ()
    rows: Optional[Callable[[Dict], Rows]] = None
    #: grid figures: dataset -> partitions, the arms of every cell, and the
    #: step from ``{dataset: {partition: {label: RunHistory}}}`` to results
    grid: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)
    arms: Tuple[Union[str, Arm], ...] = ()
    reduce: Optional[Callable[..., Dict]] = None
    heterogeneous: bool = False
    #: bespoke figures: ``compute(scale=, seed=, **options) -> results``
    compute: Optional[Callable[..., Dict]] = None
    #: bespoke text instead of the aligned table
    render: Optional[Callable[[Dict], str]] = None

    def run(self, scale: str = "tiny", seed: int = 0, **options) -> Dict:
        if self.compute is not None:
            return self.compute(scale=scale, seed=seed, **options)
        return self._run_grid(scale, seed, **options)

    def table(self, results: Dict) -> str:
        if self.render is not None:
            return self.render(results)
        return format_table(self.headers, self.rows(results), title=self.title)

    def _run_grid(
        self,
        scale: str,
        seed: int,
        datasets: Optional[Sequence[str]] = None,
        partitions: Optional[Sequence[str]] = None,
        arms: Optional[Sequence[Union[str, Arm]]] = None,
        rounds: Optional[int] = None,
        **reduce_options,
    ) -> Dict:
        declared = {arm.label: arm for arm in map(Arm.of, self.arms)}
        chosen = list(declared.values()) if arms is None else [
            item if isinstance(item, Arm) else declared.get(item, item) for item in arms
        ]
        grid: Dict = {}
        for dataset in datasets or self.grid:
            grid[dataset] = {}
            for partition in partitions or self.grid[dataset]:
                setting = ExperimentSetting(
                    dataset=dataset,
                    partition=partition,
                    heterogeneous=self.heterogeneous,
                    scale=scale,
                    seed=seed,
                )
                grid[dataset][partition] = compare_algorithms(setting, chosen, rounds=rounds)
        return self.reduce(grid, **reduce_options)


def fedpkd_sweep(key: str, values: Sequence[object]) -> Tuple[Arm, ...]:
    """FedPKD arms sweeping one config field, each labelled by its value."""
    return tuple(Arm(value, "fedpkd", {key: value}) for value in values)


def _per_cell(grid: Dict, metric: Callable) -> Dict:
    """``{dataset: {partition: {label: metric(history)}}}``."""
    return {
        dataset: {
            partition: {label: metric(hist) for label, hist in cell.items()}
            for partition, cell in by_partition.items()
        }
        for dataset, by_partition in grid.items()
    }


def _server_and_client(hist) -> Tuple[Optional[float], float]:
    s_acc = hist.best_server_acc if algorithm_supports(hist.algorithm, "server_model") else None
    return (s_acc, hist.best_client_acc)


def _cell_rows(results: Dict) -> Rows:
    for dataset, by_partition in results.items():
        for partition, cell in by_partition.items():
            for label, (s_acc, c_acc) in cell.items():
                yield [dataset, partition, label, s_acc, c_acc]


def _server_acc_by_arm(grid: Dict) -> Dict:
    """``{dataset: {label: S_acc}}``: the sensitivity sweeps have one
    partition per dataset."""
    return {
        dataset: {
            label: hist.best_server_acc
            for cell in by_partition.values()
            for label, hist in cell.items()
        }
        for dataset, by_partition in grid.items()
    }


# ----------------------------------------------------------------------
# Fig. 2: per-class logit accuracy of two class-disjoint clients
# ----------------------------------------------------------------------
def _per_class_accuracy(logits: np.ndarray, labels: np.ndarray, num_classes: int) -> np.ndarray:
    predictions = logits.argmax(axis=1)
    accs = np.full(num_classes, np.nan)
    for cls in range(num_classes):
        mask = labels == cls
        if mask.any():
            accs[cls] = float((predictions[mask] == cls).mean())
    return accs


def _fig2(scale: str, seed: int, local_epochs: int = 10) -> Dict:
    """Two clients split CIFAR-10 by class (0–4 / 5–9) and train locally.

    Keys: ``class_counts`` (2, C), ``client_acc`` (2, C) of each client's
    logits on the public set, ``aggregated_acc`` (C,) of their equal
    average, ``variance_weighted_acc`` (C,).
    """
    setting = ExperimentSetting(dataset="cifar10", scale=scale, seed=seed)
    bundle = make_bundle(setting)
    sc = setting.scale_config()
    roles = model_roles(sc.model_family, heterogeneous=False)
    config = FederationConfig(
        num_clients=2,
        partition=("by_classes", {"class_groups": [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]}),
        client_models=roles["client_models"],
        server_model=None,
        seed=seed,
    )
    federation = build_federation(bundle, config)
    train_cfg = TrainingConfig(
        epochs=max(1, int(round(local_epochs * sc.epoch_scale))), batch_size=32
    )
    logits = []
    for client in federation.clients:
        client.train_local(train_cfg)
        logits.append(client.logits_on(bundle.public))
    labels = bundle.public_true_labels
    num_classes = bundle.num_classes
    return {
        "class_counts": np.stack([c.class_counts() for c in federation.clients]),
        "client_acc": np.stack([_per_class_accuracy(l, labels, num_classes) for l in logits]),
        "aggregated_acc": _per_class_accuracy(
            equal_average_aggregate(logits), labels, num_classes
        ),
        "variance_weighted_acc": _per_class_accuracy(
            variance_weighted_aggregate(logits), labels, num_classes
        ),
    }


def _fig2_text(results: Dict) -> str:
    with np.printoptions(precision=2, suppress=True):
        return "\n".join([
            FIGURES["fig2"].title,
            f"client train counts:\n {results['class_counts']}",
            f"client 1 acc per class: {results['client_acc'][0]}",
            f"client 2 acc per class: {results['client_acc'][1]}",
            f"equal-average acc     : {results['aggregated_acc']}",
            f"variance-weighted acc : {results['variance_weighted_acc']}",
        ])


# ----------------------------------------------------------------------
# Fig. 3: naive-KD traffic and accuracy vs public-set size
# ----------------------------------------------------------------------
def _fig3(
    scale: str, seed: int, public_sizes: Sequence[int] = (100, 200, 400, 800),
    rounds: Optional[int] = None,
) -> Dict:
    """Per size: server accuracy and per-client uplink MB per round, plus
    the model-update payload (MB) for comparison.  Each size is its own
    bundle."""
    base = ExperimentSetting(dataset="cifar10", partition="dir0.3", scale=scale, seed=seed)
    sc = base.scale_config()
    roles = model_roles(sc.model_family, heterogeneous=False)
    model = build_model(roles["client_models"], 10, (3, 8, 8), rng=seed)
    model_update_mb = model.num_parameters() * WIRE_DTYPE().itemsize / (1024.0**2)
    sweep = []
    for n_public in public_sizes:
        setting = replace(base, scale_overrides={"n_public": int(n_public)})
        history = run_algorithm(setting, "naive_kd", rounds=rounds)
        uplink_mb = history.records[-1].comm_uplink_bytes / (1024.0**2)
        sweep.append(
            {
                "n_public": int(n_public),
                "server_acc": history.best_server_acc,
                "uplink_mb_per_client_round": uplink_mb / (sc.num_clients * len(history)),
            }
        )
    return {"sweep": sweep, "model_update_mb": model_update_mb}


# ----------------------------------------------------------------------
# Table I: traffic to reach a target accuracy
# ----------------------------------------------------------------------
def _table1(grid: Dict, target_fraction: float = 0.8) -> Dict:
    """``{dataset: {partition: {"targets": (client, server), "mb":
    {label: {"client": mb|None, "server": mb|None}}}}}``.

    The paper's absolute targets depend on the data substrate, so the
    targets are ``target_fraction`` of FedPKD's best accuracies in the same
    cell: traffic until a commonly reachable accuracy level.
    """
    results: Dict = {}
    for dataset, by_partition in grid.items():
        results[dataset] = {}
        for partition, histories in by_partition.items():
            anchor = histories["fedpkd"]
            server_target = target_fraction * anchor.best_server_acc
            client_target = target_fraction * anchor.best_client_acc
            mb = {
                label: {
                    "client": hist.comm_to_reach(client_target, metric="client")
                    if algorithm_supports(hist.algorithm, "client_metric") else None,
                    "server": hist.comm_to_reach(server_target, metric="server")
                    if algorithm_supports(hist.algorithm, "server_model") else None,
                }
                for label, hist in histories.items()
            }
            results[dataset][partition] = {"targets": (client_target, server_target), "mb": mb}
    return results


def _table1_rows(results: Dict) -> Rows:
    for dataset, by_partition in results.items():
        for partition, cell in by_partition.items():
            c_target, s_target = cell["targets"]
            for label, mbs in cell["mb"].items():
                yield [dataset, partition, label, f"{c_target:.3f}", mbs["client"],
                       f"{s_target:.3f}", mbs["server"]]


# paper: highly non-IID = {k=3 / k=30, α=0.1}; weakly = {k=5 / k=50, α=0.5}
_FIG5_GRID = {
    "cifar10": ("shards3", "shards5", "dir0.1", "dir0.5"),
    "cifar100": ("shards30", "shards50", "dir0.1", "dir0.5"),
}
_BOTH = ("cifar10", "cifar100")
_FIG5_ARMS = ("fedpkd", "fedavg", "fedprox", "feddf", "fedmd", "dsfl", "fedet")
_CELL_HEADERS = ("dataset", "partition", "algorithm", "S_acc", "C_acc")

# the full method, without the server's prototype loss, without filtering
_FIG8_ARMS = (
    "fedpkd",
    Arm("w/o Pro", "fedpkd", {"server_prototype_loss": False}),
    Arm("w/o D.F.", "fedpkd", {"use_filtering": False}),
)
#: Fig. 8's arms plus two extended ablations (variance weighting replaced
#: by equal averaging, prototype filtering by random subsampling)
EXTENDED_ARMS = _FIG8_ARMS + (
    Arm("equal-agg", "fedpkd", {"aggregation": "equal"}),
    Arm("random-filter", "fedpkd", {"filter_mode": "random"}),
)

FIGURES: Dict[str, Figure] = {
    # motivation: FedAvg vs the naive KD pilot, IID vs Dirichlet(0.3); the
    # pilot only distils into the server (no feedback to the clients)
    "fig1": Figure(
        title="Fig. 1 — server accuracy, FedAvg vs KD-based, IID vs non-IID",
        headers=("dataset", "partition", "FedAvg S_acc", "KD-based S_acc"),
        rows=lambda results: (
            [dataset, partition, accs.get("fedavg"), accs.get("naive_kd")]
            for dataset, by_partition in results.items()
            for partition, accs in by_partition.items()
        ),
        grid={dataset: ("iid", "dir0.3") for dataset in _BOTH},
        arms=("fedavg", Arm("naive_kd", "naive_kd", {"distill_to_clients": False})),
        reduce=lambda grid: _per_cell(grid, lambda hist: hist.best_server_acc),
    ),
    "fig2": Figure(
        title="Fig. 2 — per-class logit accuracy under class-disjoint non-IID",
        compute=_fig2,
        render=_fig2_text,
    ),
    "fig3": Figure(
        title="Fig. 3 — accuracy & per-client communication vs public-set size",
        headers=("public size", "S_acc", "logit MB/client/round", "model-update MB"),
        rows=lambda results: (
            [point["n_public"], point["server_acc"], point["uplink_mb_per_client_round"],
             results["model_update_mb"]]
            for point in results["sweep"]
        ),
        compute=_fig3,
    ),
    # FedMD/DS-FL have no server model: their S_acc is None
    "fig5": Figure(
        title="Fig. 5 — homogeneous-model accuracy comparison",
        headers=_CELL_HEADERS,
        rows=_cell_rows,
        grid=_FIG5_GRID,
        arms=_FIG5_ARMS,
        reduce=lambda grid: _per_cell(grid, _server_and_client),
    ),
    "fig6": Figure(
        title="Fig. 6 — accuracy vs round (highly non-IID)",
        headers=("algorithm", "round", "S_acc", "C_acc"),
        rows=lambda results: (
            [label, rnd, curves["server"][i], curves["client"][i]]
            for label, curves in results.items()
            for i, rnd in enumerate(curves["rounds"])
        ),
        grid={"cifar10": ("dir0.1",)},
        arms=_FIG5_ARMS,
        # one cell: {label: {"rounds", "server", "client"}}
        reduce=lambda grid: {
            label: {
                "rounds": [r.round_index for r in hist.records],
                "server": hist.server_acc_curve(),
                "client": hist.client_acc_curve(),
            }
            for by_partition in grid.values()
            for cell in by_partition.values()
            for label, hist in cell.items()
        },
    ),
    # heterogeneous client models: only the KD methods that tolerate them
    "fig7": Figure(
        title="Fig. 7 — heterogeneous-model accuracy comparison",
        headers=_CELL_HEADERS,
        rows=_cell_rows,
        grid=_FIG5_GRID,
        arms=("fedpkd", "fedmd", "dsfl", "fedet"),
        reduce=lambda grid: _per_cell(grid, _server_and_client),
        heterogeneous=True,
    ),
    "fig8": Figure(
        title="Fig. 8 — FedPKD ablation (highly non-IID)",
        headers=("dataset", "partition", "arm", "S_acc", "C_acc"),
        rows=_cell_rows,
        grid={dataset: ("dir0.1",) for dataset in _BOTH},
        arms=_FIG8_ARMS,
        reduce=lambda grid: _per_cell(
            grid, lambda hist: (hist.best_server_acc, hist.best_client_acc)
        ),
    ),
    "fig9": Figure(
        title="Fig. 9 — server accuracy vs select ratio θ",
        headers=("dataset", "theta", "S_acc"),
        rows=lambda results: (
            [dataset, f"{theta:.0%}", acc]
            for dataset, by_theta in results.items()
            for theta, acc in by_theta.items()
        ),
        grid={dataset: ("dir0.1",) for dataset in _BOTH},
        arms=fedpkd_sweep("select_ratio", (0.3, 0.5, 0.7)),
        reduce=_server_acc_by_arm,
    ),
    "fig10": Figure(
        title="Fig. 10 — server accuracy vs loss mix δ",
        headers=("dataset", "delta", "S_acc"),
        rows=lambda results: (
            [dataset, delta, acc]
            for dataset, by_delta in results.items()
            for delta, acc in by_delta.items()
        ),
        grid={dataset: ("dir0.1",) for dataset in _BOTH},
        arms=fedpkd_sweep("delta", (0.1, 0.3, 0.5, 0.7, 0.9)),
        reduce=_server_acc_by_arm,
    ),
    "table1": Figure(
        title="Table I — communication (MB) to reach target accuracy",
        headers=("dataset", "partition", "algorithm", "C target", "C_acc MB",
                 "S target", "S_acc MB"),
        rows=_table1_rows,
        grid={dataset: ("dir0.5",) for dataset in _BOTH},
        arms=("fedavg", "fedprox", "feddf", "fedmd", "dsfl", "fedpkd"),
        reduce=_table1,
    ),
}
