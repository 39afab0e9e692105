"""Synthetic and CSV-ingested datasets plus client partitioning.

Classification data is a Gaussian mixture with class means placed on
orthogonal directions at a controllable separation. Partitioning is either
uniform ("iid") or class-skewed via per-class Dirichlet proportions.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .stable_noise import _check_choice, _check_integer, _check_nonnegative, _check_positive

__all__ = [
    "Dataset",
    "PartitionSpec",
    "make_synthetic_classification",
    "partition",
    "train_test_split",
    "load_csv_dataset",
]

_MAX_PARTITION_ATTEMPTS = 100


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (n, p) with integer labels (n,)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y)
        if x.ndim != 2 or y.shape != (x.shape[0],):
            raise ValueError(f"inconsistent dataset shapes {x.shape} / {y.shape}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class PartitionSpec:
    """How to split a dataset across clients."""

    kind: str
    n_clients: int
    concentration: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        _check_choice("kind", self.kind, ("iid", "dirichlet"))
        for name, low in (("n_clients", 1), ("seed", 0)):
            _check_integer(name, getattr(self, name), low)
        if self.kind == "dirichlet":
            _check_positive("concentration", self.concentration)


def make_synthetic_classification(
    n_samples: int,
    feature_dim: int,
    n_classes: int,
    class_separation: float,
    rng: np.random.Generator,
) -> Dataset:
    """Gaussian mixture with unit-variance classes at pairwise mean distance
    `class_separation`.

    Class means sit on orthonormal directions scaled by separation/sqrt(2),
    which requires feature_dim >= n_classes. Labels are balanced up to
    rounding and shuffled. Zero separation collapses all means onto the
    origin.
    """
    for name, value, low in (("n_samples", n_samples, 1), ("feature_dim", feature_dim, 1), ("n_classes", n_classes, 2)):
        _check_integer(name, value, low)
    _check_nonnegative("class_separation", class_separation)
    if n_classes > feature_dim:
        raise ValueError(
            f"need feature_dim >= n_classes for orthogonal class means, "
            f"got {feature_dim} < {n_classes}"
        )
    basis, _ = np.linalg.qr(rng.normal(size=(feature_dim, n_classes)))
    means = basis.T * (class_separation / np.sqrt(2.0))
    y = rng.permutation(np.arange(n_samples) % n_classes)
    x = means[y] + rng.normal(size=(n_samples, feature_dim))
    return Dataset(x=x, y=y)


def _largest_remainder_counts(proportions: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to `total` that best match the proportions."""
    raw = proportions * total
    counts = np.floor(raw).astype(int)
    remainder = total - counts.sum()
    if remainder > 0:
        order = np.argsort(-(raw - counts))
        counts[order[:remainder]] += 1
    return counts


def partition(dataset: Dataset, spec: PartitionSpec) -> list[Dataset]:
    """Assign every sample to exactly one client; no client is left empty.

    "iid" sends each sample to a uniformly random client. "dirichlet" draws
    one Dirichlet proportion vector per class and splits that class's samples
    with largest-remainder rounding. Either way, draws are repeated (up to a
    cap) until all clients are non-empty.
    """
    n = len(dataset)
    if spec.n_clients > n:
        raise ValueError(f"cannot split {n} samples across {spec.n_clients} clients")
    rng = np.random.default_rng(spec.seed)
    for _ in range(_MAX_PARTITION_ATTEMPTS):
        if spec.kind == "iid":
            assignment = rng.integers(spec.n_clients, size=n)
        else:
            assignment = np.empty(n, dtype=int)
            for cls in np.unique(dataset.y):
                idx = rng.permutation(np.flatnonzero(dataset.y == cls))
                proportions = rng.dirichlet(np.full(spec.n_clients, spec.concentration))
                counts = _largest_remainder_counts(proportions, idx.size)
                assignment[idx] = np.repeat(np.arange(spec.n_clients), counts)
        sizes = np.bincount(assignment, minlength=spec.n_clients)
        if sizes.min() > 0:
            return [
                Dataset(x=dataset.x[assignment == cid], y=dataset.y[assignment == cid])
                for cid in range(spec.n_clients)
            ]
    raise ValueError(
        f"failed to draw a partition without empty clients in "
        f"{_MAX_PARTITION_ATTEMPTS} attempts"
    )


def train_test_split(
    dataset: Dataset, test_fraction: float, rng: np.random.Generator
) -> tuple[Dataset, Dataset]:
    """Random split; the test side receives round(n * test_fraction) samples."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n = len(dataset)
    n_test = int(round(n * test_fraction))
    if n_test < 1 or n_test >= n:
        raise ValueError(f"split leaves an empty side: n={n}, test_fraction={test_fraction}")
    order = rng.permutation(n)
    test_idx, train_idx = order[:n_test], order[n_test:]
    return (
        Dataset(x=dataset.x[train_idx], y=dataset.y[train_idx]),
        Dataset(x=dataset.x[test_idx], y=dataset.y[test_idx]),
    )


def load_csv_dataset(path: str | Path, label_column: str) -> Dataset:
    """Read a numeric CSV with a header row into a dataset.

    All non-label columns are parsed as finite floats in file order; the
    label column must hold non-negative integers. Column names must be
    distinct, and a leading byte-order mark is dropped. Parse failures report
    the offending data row (1-based) and column name.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:  # spreadsheets save "CSV UTF-8" with a byte-order mark
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: no rows (empty file)") from None
        header = [name.strip() for name in header]
        if len(set(header)) < len(header):  # a second label column would be read as a feature
            raise ValueError(f"{path}: repeated column name {next(n for n in header if header.count(n) > 1)!r}")
        if label_column not in header:
            raise ValueError(f"{path}: missing label column {label_column!r}")
        label_idx = header.index(label_column)
        xs: list[list[float]] = []
        ys: list[int] = []
        for row_num, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: row {row_num}: expected {len(header)} cells, got {len(row)}"
                )
            features = []
            for i, (name, cell) in enumerate(zip(header, row)):
                where = f"{path}: row {row_num}, column {name!r}"
                try:
                    value = float(cell)
                except ValueError:
                    raise ValueError(f"{where}: non-numeric {'label' if i == label_idx else 'value'} {cell!r}") from None
                if i != label_idx:
                    if not math.isfinite(value):
                        raise ValueError(f"{where}: non-finite value {cell!r}")
                    features.append(value)
                elif not value.is_integer() or value < 0:
                    raise ValueError(f"{where}: label {cell!r} is {'negative' if value.is_integer() else 'not an integer'}")
                else:
                    ys.append(int(value))
            xs.append(features)
    if not xs:
        raise ValueError(f"{path}: no rows (header only)")
    return Dataset(x=np.asarray(xs, dtype=float), y=np.asarray(ys, dtype=int))
