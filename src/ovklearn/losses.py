"""Vector-valued loss functions and one-hot label coding.

Losses expose ``value(z, y)`` and ``gradient(z, y)`` where z is the
prediction and y the target, both vectors in the output space.  The
gradient is taken with respect to z.  Both losses depend on z and y only
through the residual ``r = z - y``; ``evaluate(r)`` returns the value and
the gradient together from an already formed (and trusted) residual,
which is what an online step calls.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, DimensionMismatch

__all__ = [
    "SquaredLoss",
    "EpsilonInsensitive",
    "encode_labels",
    "decode_label",
    "loss_from_name",
]


def _residual(z, y) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    if z.shape != y.shape:
        raise DimensionMismatch("loss arguments", z.shape[-1], y.shape[-1])
    return z - y


@dataclass(frozen=True)
class SquaredLoss:
    """l(z, y) = ||z - y||^2 / 2.

    Convex and smooth but not globally Lipschitz, so ``lipschitz`` is
    None; guarantees for this loss go through bounded targets instead.
    """

    lipschitz = None

    def value(self, z, y) -> float:
        return self.evaluate(_residual(z, y))[0]

    def gradient(self, z, y) -> np.ndarray:
        return self.evaluate(_residual(z, y))[1]

    def evaluate(self, r) -> tuple[float, np.ndarray]:
        return 0.5 * float(r @ r), r

    def name(self) -> str:
        return "squared"


@dataclass(frozen=True)
class EpsilonInsensitive:
    """l(z, y) = max(0, ||z - y|| - epsilon); convex and 1-Lipschitz in z.

    The subgradient 0 is used on the flat region and at the kink
    ||z - y|| == epsilon, which keeps update magnitudes bounded.
    """

    epsilon: float = 0.0
    lipschitz = 1.0

    def __post_init__(self):
        # NaN passes `epsilon < 0` and makes every loss max(0.0, nan) = 0.0
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ConfigError(f"epsilon must be finite and >= 0, got {self.epsilon}")

    def value(self, z, y) -> float:
        return self.evaluate(_residual(z, y))[0]

    def gradient(self, z, y) -> np.ndarray:
        return self.evaluate(_residual(z, y))[1]

    def evaluate(self, r) -> tuple[float, np.ndarray]:
        n = math.sqrt(float(r @ r))
        value = max(0.0, n - self.epsilon)
        if n <= self.epsilon or n == 0.0:
            return value, np.zeros_like(r)
        return value, r / n

    def name(self) -> str:
        return f"eps({self.epsilon:g})"


def loss_from_name(name: str):
    """Parse a loss spec string: ``squared`` or ``eps(0.5)``."""
    name = name.strip()
    if name == "squared":
        return SquaredLoss()
    if name.startswith("eps(") and name.endswith(")"):
        try:
            return EpsilonInsensitive(epsilon=float(name[4:-1]))
        except ValueError as exc:
            raise ConfigError(f"bad epsilon in loss spec {name!r}") from exc
    raise ConfigError(f"unknown loss {name!r} (expected 'squared' or 'eps(E)')")


def encode_labels(class_index: int, d: int) -> np.ndarray:
    """One-hot encoding of a class index into a length-d target vector."""
    if not 0 <= class_index < d:
        raise ValueError(f"class index {class_index} out of range [0, {d})")
    out = np.zeros(d)
    out[class_index] = 1.0
    return out


def decode_label(z) -> int:
    """Argmax decoding; ties resolve to the lowest index."""
    return int(np.argmax(np.asarray(z)))
