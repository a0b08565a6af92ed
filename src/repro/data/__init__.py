"""Dataset substrate: synthetic CIFAR-like tasks, partitioners, loaders."""

from .datasets import (
    Dataset,
    FederatedDataBundle,
    SyntheticImageTask,
    make_task,
    synthetic_cifar10,
    synthetic_cifar100,
)
from .loaders import batch_iterator, num_batches
from .partition import (
    partition_by_classes,
    partition_dirichlet,
    partition_iid,
    partition_shards,
    partition_summary,
    split_local_train_test,
)
from .rows import Rows

__all__ = [
    "Dataset",
    "FederatedDataBundle",
    "SyntheticImageTask",
    "make_task",
    "synthetic_cifar10",
    "synthetic_cifar100",
    "batch_iterator",
    "num_batches",
    "Rows",
    "partition_iid",
    "partition_dirichlet",
    "partition_shards",
    "partition_by_classes",
    "partition_summary",
    "split_local_train_test",
]
