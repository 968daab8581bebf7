"""Batch regularised least squares with an operator-valued kernel.

The minimiser of ``(1/t) sum_i ||h(x_i) - y_i||^2 / 2 + (lambda/2) ||h||^2``
over the RKHS is a kernel expansion whose stacked coefficients solve the
td x td block system ``(G + lambda t I) a = y``, with G the block Gram
matrix.  The solve is dense Cholesky: this baseline exists to verify
bounds and accuracy at desk scale, not to scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .exceptions import ConfigError, NumericsError, check_finite, check_positive

__all__ = ["BatchModel", "fit", "regularized_risk"]

_RESIDUAL_TOL = 1e-8


@dataclass
class BatchModel:
    """Fitted expansion: support inputs, one coefficient vector each."""

    kernel: object
    support: np.ndarray
    coeffs: np.ndarray
    lam: float
    norm_sq: float
    _gram: np.ndarray = field(repr=False, default=None)

    def predict(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        check_finite("query", x)
        return self.kernel.expansion(self.support, x, self.coeffs)


def fit(kernel, xs, ys, lam: float) -> BatchModel:
    """Solve the block ridge system for the given training set.

    Raises :class:`NumericsError` when the (jittered) system cannot be
    solved to a relative residual of 1e-8.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    t = len(xs)
    if t < 1:
        raise ConfigError("batch fit needs at least one example")
    check_positive("lambda", lam)
    if len(ys) != t:
        raise ConfigError(f"inputs/targets length mismatch: {t} vs {len(ys)}")
    d = kernel.dim

    ridge = lam * t
    if not math.isfinite(ridge):
        raise NumericsError(f"lambda * t overflows: {lam!r} * {t}")
    gram = kernel.gram(xs)
    y = ys.ravel()
    # lambda t on the diagonal of one copy; no td x td identity is formed
    system = gram.copy()
    system.flat[:: t * d + 1] += ridge
    try:
        factor = scipy.linalg.cho_factor(system)
    except scipy.linalg.LinAlgError:
        jitter = 1e-10 * np.trace(gram) / (t * d)
        try:
            factor = scipy.linalg.cho_factor(system + jitter * np.eye(t * d))
        except scipy.linalg.LinAlgError as exc:
            raise NumericsError(
                f"block system not positive definite even with jitter {jitter:.3e}; "
                f"condition estimate {np.linalg.cond(system):.3e}"
            ) from exc
    a = scipy.linalg.cho_solve(factor, y)

    residual = float(np.linalg.norm(system @ a - y))
    y_norm = float(np.linalg.norm(y))
    rel = residual / y_norm if y_norm > 0 else residual
    # "not <=" so a NaN residual (overflowed factor) also fails
    if not rel <= _RESIDUAL_TOL:
        raise NumericsError(
            f"ill-conditioned block system: relative residual {rel:.3e} "
            f"(condition estimate {np.linalg.cond(system):.3e})"
        )

    coeffs = a.reshape(t, d)
    norm_sq = float(a @ (gram @ a))
    return BatchModel(kernel, xs, coeffs, lam, norm_sq, _gram=gram)


def regularized_risk(model: BatchModel, xs, ys) -> float:
    """Mean squared-loss empirical risk plus the ridge penalty.

    ``(1/n) sum_i ||h(x_i) - y_i||^2 / 2 + (lambda/2) ||h||^2``.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    residuals = model.predict(xs) - ys
    data_term = 0.5 * float(np.mean(np.einsum("ij,ij->i", residuals, residuals)))
    return data_term + 0.5 * model.lam * model.norm_sq
