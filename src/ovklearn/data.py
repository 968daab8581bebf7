"""Datasets: synthetic generation, CSV ingestion, splitting, normalization.

The synthetic task draws 20 input features uniformly on [0, 1] and maps
them through the fixed 7-term feature vector

    phi(x) = (x1^2, x4^2, x1*x2, x3*x5, x2, x4, 1)

Each output coordinate is a linear functional <w_i, phi(x)> with its own
weight vector w_i drawn once per dataset from a centred normal with
diagonal covariance.  No noise is added, so the targets are exactly
linear in phi and the weights are recoverable by least squares.

Feature and weight draws use separate child streams spawned from one
seed, so the same seed always reproduces the same dataset bit for bit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, DataError
from .losses import encode_labels

__all__ = [
    "Dataset",
    "SynthSpec",
    "SplitStats",
    "feature_map",
    "gen_synthetic",
    "synthetic_weights",
    "load_csv",
    "save_csv",
    "split_and_normalize",
]

SYNTH_INPUT_DIM = 20

# diagonal of the weight covariance, one entry per phi component
WEIGHT_VARIANCES = np.array([0.5, 0.25, 0.1, 0.05, 0.15, 0.1, 0.15])


@dataclass(frozen=True)
class Dataset:
    """Immutable paired arrays of inputs (n, p) and targets (n, d)."""

    xs: np.ndarray
    ys: np.ndarray
    name: str = ""
    task: str = "regression"

    def __post_init__(self):
        xs = np.array(self.xs, dtype=float)
        ys = np.array(self.ys, dtype=float)
        if xs.ndim != 2 or ys.ndim != 2:
            raise DataError("xs and ys must be 2-D arrays")
        if len(xs) != len(ys):
            raise DataError(f"xs has {len(xs)} rows but ys has {len(ys)}")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise DataError("dataset contains non-finite values")
        if self.task not in ("regression", "classification"):
            raise DataError(f"unknown task {self.task!r}")
        xs.flags.writeable = False
        ys.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __len__(self) -> int:
        return len(self.xs)

    @property
    def input_dim(self) -> int:
        return self.xs.shape[1]

    @property
    def output_dim(self) -> int:
        return self.ys.shape[1]

    def take(self, indices, name: str | None = None) -> "Dataset":
        """Sub-dataset at the given row indices, preserving order."""
        return Dataset(
            self.xs[indices],
            self.ys[indices],
            name=self.name if name is None else name,
            task=self.task,
        )


@dataclass(frozen=True)
class SynthSpec:
    """Shape and seed of a synthetic dataset draw."""

    n_instances: int
    n_outputs: int
    seed: int

    def __post_init__(self):
        if self.n_instances < 1:
            raise ConfigError(f"n_instances must be >= 1, got {self.n_instances}")
        if self.n_outputs < 1:
            raise ConfigError(f"n_outputs must be >= 1, got {self.n_outputs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def feature_map(xs) -> np.ndarray:
    """phi applied to each row; accepts one point or a batch of rows."""
    xs = np.asarray(xs, dtype=float)
    single = xs.ndim == 1
    if single:
        xs = xs[None, :]
    if xs.shape[1] < 5:
        raise DataError(f"feature map needs >= 5 input columns, got {xs.shape[1]}")
    phi = np.column_stack(
        [
            xs[:, 0] ** 2,
            xs[:, 3] ** 2,
            xs[:, 0] * xs[:, 1],
            xs[:, 2] * xs[:, 4],
            xs[:, 1],
            xs[:, 3],
            np.ones(len(xs)),
        ]
    )
    return phi[0] if single else phi


def _streams(seed: int):
    feature_ss, weight_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(feature_ss), np.random.default_rng(weight_ss)


def synthetic_weights(spec: SynthSpec) -> np.ndarray:
    """The (d, 7) weight matrix gen_synthetic uses for this spec."""
    _, rng_w = _streams(spec.seed)
    return rng_w.normal(
        0.0, np.sqrt(WEIGHT_VARIANCES), size=(spec.n_outputs, len(WEIGHT_VARIANCES))
    )


def gen_synthetic(spec: SynthSpec) -> Dataset:
    """Draw the noise-free synthetic regression dataset for this spec."""
    rng_x, _ = _streams(spec.seed)
    xs = rng_x.uniform(0.0, 1.0, size=(spec.n_instances, SYNTH_INPUT_DIM))
    w = synthetic_weights(spec)
    ys = feature_map(xs) @ w.T
    name = f"synthetic-n{spec.n_instances}-d{spec.n_outputs}-seed{spec.seed}"
    return Dataset(xs, ys, name=name)


def _column_name(j: int, header_row) -> str:
    if header_row is not None and j < len(header_row):
        return header_row[j]
    return f"column {j}"


def load_csv(
    path,
    input_cols,
    output_cols,
    header: bool = True,
    *,
    one_hot_classes: int | None = None,
    name: str | None = None,
) -> Dataset:
    """Read a comma-separated file into a Dataset.

    ``input_cols`` and ``output_cols`` are disjoint 0-based column index
    sequences; a negative index raises ``ConfigError``.  With
    ``one_hot_classes`` set, the single output column must hold integer
    class indices, expanded to indicator vectors; the resulting dataset is
    tagged as classification.
    """
    input_cols = [int(j) for j in input_cols]
    output_cols = [int(j) for j in output_cols]
    if not input_cols or not output_cols:
        raise ConfigError("input_cols and output_cols must be non-empty")
    for key, cols in (("input_cols", input_cols), ("output_cols", output_cols)):
        if min(cols) < 0:
            raise ConfigError(f"{key}: column index {min(cols)} is negative")
    clash = set(input_cols) & set(output_cols)
    if clash:
        raise ConfigError(f"input and output columns overlap: {sorted(clash)}")
    if one_hot_classes is not None:
        if len(output_cols) != 1:
            raise ConfigError("one-hot expansion needs exactly one output column")
        if one_hot_classes < 2:
            raise ConfigError(f"need >= 2 classes, got {one_hot_classes}")
    needed = max(max(input_cols), max(output_cols))

    header_row = None
    x_rows, y_rows = [], []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if lineno == 1 and header:
                header_row = [c.strip() for c in row]
                continue
            if not row or all(c.strip() == "" for c in row):
                continue
            if len(row) <= needed:
                raise DataError(
                    f"{path}:{lineno}: need at least {needed + 1} columns, found {len(row)}"
                )
            values = []
            for j in input_cols + output_cols:
                tok = row[j].strip()
                try:
                    values.append(float(tok))
                except ValueError:
                    raise DataError(
                        f"{path}:{lineno}: non-numeric value {tok!r} "
                        f"in {_column_name(j, header_row)}"
                    ) from None
            x_rows.append(values[: len(input_cols)])
            y_rows.append(values[len(input_cols) :])
    if not x_rows:
        raise DataError(f"{path}: no data rows")

    xs = np.array(x_rows)
    ys = np.array(y_rows)
    task = "regression"
    if one_hot_classes is not None:
        labels = ys[:, 0]
        coded = np.empty((len(labels), one_hot_classes))
        for i, v in enumerate(labels):
            if v != int(v):
                raise DataError(f"{path}: class label {v} at data row {i + 1} is not an integer")
            try:
                coded[i] = encode_labels(int(v), one_hot_classes)
            except ValueError as exc:
                raise DataError(f"{path}: data row {i + 1}: {exc}") from None
        ys = coded
        task = "classification"
    return Dataset(xs, ys, name=name if name is not None else str(path), task=task)


def save_csv(path, dataset: Dataset, header: bool = True) -> None:
    """Write x1..xp,y1..yd rows; %.17g so values round-trip exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow(
                [f"x{i + 1}" for i in range(dataset.input_dim)]
                + [f"y{i + 1}" for i in range(dataset.output_dim)]
            )
        for x, y in zip(dataset.xs, dataset.ys):
            writer.writerow([f"{v:.17g}" for v in x] + [f"{v:.17g}" for v in y])


@dataclass(frozen=True)
class SplitStats:
    """Train-set feature statistics applied to both splits (or None)."""

    mean: np.ndarray | None
    std: np.ndarray | None


def split_and_normalize(
    dataset: Dataset, train_fraction: float, seed: int, normalize: bool = False
):
    """Seeded shuffle split, optionally z-scoring inputs with train stats.

    Returns (train, test, stats).  Standard deviations of constant
    features are replaced by 1 so z-scoring never divides by zero.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = len(dataset)
    n_train = int(round(train_fraction * n))
    if n_train < 1 or n_train >= n:
        raise DataError(
            f"degenerate split: {n_train} train / {n - n_train} test from {n} rows"
        )
    perm = np.random.default_rng(seed).permutation(n)
    train = dataset.take(perm[:n_train], name=f"{dataset.name}-train")
    test = dataset.take(perm[n_train:], name=f"{dataset.name}-test")
    if not normalize:
        return train, test, SplitStats(None, None)
    mean = train.xs.mean(axis=0)
    std = train.xs.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    train = Dataset((train.xs - mean) / std, train.ys, name=train.name, task=train.task)
    test = Dataset((test.xs - mean) / std, test.ys, name=test.name, task=test.task)
    return train, test, SplitStats(mean, std)
