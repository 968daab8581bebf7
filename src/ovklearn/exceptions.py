"""Exception types shared across the package, and the shared value checks.

A numeric setting (mu, dim, lambda, eta0, r, t0, epsilon, a seed, ...) is a
finite real number or an int, never a bool, Python's or numpy's.  It passes
:func:`check_real`, :func:`check_positive` or :func:`check_int`, which raise
ConfigError or return a Python ``float``/``int``: a numpy scalar computes in
double precision and saves as a JSON number.  A caller keeps its own range check.
"""

import math
import numbers

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


def _real(name: str, value, test, rule: str) -> float:
    """``value`` as a Python float; ConfigError unless it is a real number that passes ``test``."""
    # a bool is an int, and np.bool_ no numbers.Real
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an int past the float range
        value = math.inf
    if not test(value):
        raise ConfigError(f"{name} must be {rule}, got {value}")
    return value


def check_real(name: str, value) -> float:
    """``value`` as a Python float; ConfigError unless it is a finite real number."""
    return _real(name, value, math.isfinite, "finite")


def check_positive(name: str, value) -> float:
    """``value`` as a Python float; ConfigError unless it is a finite real number > 0."""
    return _real(name, value, lambda v: math.isfinite(v) and v > 0, "finite and > 0")


def check_int(name: str, value, low: int | None = None) -> int:
    """``value`` as a Python int; ConfigError unless it is an integer (>= ``low`` unless None)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        bound = "" if low is None else f" >= {low}"
        raise ConfigError(f"{name} must be an int{bound}, got {value!r}")
    if low is not None and value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")
    return int(value)


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
