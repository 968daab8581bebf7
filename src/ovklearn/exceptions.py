"""Exception types shared across the package, and the shared value checks."""

import math

import numpy as np


class OvkError(Exception):
    """Base class for all ovklearn errors."""


class DimensionMismatch(OvkError, ValueError):
    """Two objects that must share a dimension do not."""

    def __init__(self, what, left, right):
        super().__init__(f"{what}: dimensions differ ({left} vs {right})")
        self.left = left
        self.right = right


class ConfigError(OvkError, ValueError):
    """Invalid configuration (bad parameter value, malformed config key, ...)."""


class NumericsError(OvkError, RuntimeError):
    """Numerical failure: non-finite values or an unsolvable linear system."""


class HypothesisViolation(OvkError, ValueError):
    """A prerequisite inequality of a guarantee does not hold.

    The message names the failing inequality with its actual values.
    """


class DataError(OvkError, ValueError):
    """Malformed dataset file or inconsistent dataset contents."""


def check_positive(name: str, value) -> None:
    """Raise ConfigError unless ``value`` is a finite number > 0.

    Written as ``not value > 0`` so that NaN, for which every comparison
    is False, is rejected too.
    """
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{name} must be finite and > 0, got {value}")


def check_finite(name: str, values) -> None:
    """Raise DataError unless every entry of the array ``values`` is finite."""
    if not np.all(np.isfinite(values)):
        bad = np.count_nonzero(~np.isfinite(values))
        raise DataError(f"non-finite {name}: {bad} of {np.size(values)} entries")


def check_examples(xs, ys, dim: int):
    """``(xs, ys)`` as float arrays once they are (t, p) and (t, dim) and finite.

    Raises DimensionMismatch for a wrong shape, ConfigError for unequal
    lengths and DataError for a non-finite entry.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 2:
        raise DimensionMismatch("input rows", xs.shape, "(t, p)")
    if ys.shape[1:] != (dim,):
        raise DimensionMismatch("target rows", ys.shape, f"(t, {dim})")
    if len(xs) != len(ys):
        raise ConfigError(f"inputs/targets length mismatch: {len(xs)} vs {len(ys)}")
    check_finite("inputs", xs)
    check_finite("targets", ys)
    return xs, ys
