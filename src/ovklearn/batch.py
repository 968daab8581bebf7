"""Batch regularised least squares with an operator-valued kernel.

The minimiser of ``(1/t) sum_i ||h(x_i) - y_i||^2 / 2 + (lambda/2) ||h||^2``
over the RKHS is a kernel expansion whose t x d coefficients C solve the
td x td block system ``(G + lambda t I) vec(C) = vec(Y)``, with G the block
Gram matrix.  Which solve runs depends on the kernel:

* :class:`~ovklearn.kernels.SeparableGaussian` (``K = k(x, x') J``) has
  ``G = S ⊗ J``, with S the t x t scalar Gram.  With ``J = U diag(l) U^T``
  the system splits into d independent t x t Cholesky systems
  ``(l_j S + lambda t I) c_j = (Y U)_j`` and ``C = [c_j] U^T``:
  d t^3 / 3 flops and O(t^2) memory, and G is never formed.
* :class:`~ovklearn.kernels.NonSeparablePoly` factors the dense block
  system by one Cholesky: (td)^3 / 3 flops.  The system is written into
  one td x td buffer from the t x t inner products and factored in place,
  so it is the only td x td array of the fit.

Both retry a failed factor once with the same diagonal jitter.  The
relative residual and ``||h||^2`` are then computed in the original basis
from ``G vec(C)``, the kernel's ``row_expansion`` over the t x t scalar
Gram (the same expansion a prediction evaluates): ``S C J^T`` or
``mu (P s) 1^T + (1 - mu) (P∘P) C`` with s the row sums of C, O(t^2 d)
from t x t arrays alone.  The fitted model predicts through the online
learners' expansion state, so its queries are checked and evaluated as
theirs are.  This baseline exists to verify bounds and accuracy at desk
scale, not to scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .exceptions import ConfigError, DimensionMismatch, NumericsError
from .exceptions import check_examples, check_positive
from .onorma import _ExpansionState

__all__ = ["BatchModel", "fit", "regularized_risk"]

_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class BatchModel:
    """Fitted expansion: support inputs, one coefficient vector each.

    ``predict`` reads a one-kernel :class:`~ovklearn.onorma._ExpansionState`
    built at construction from ``support`` and ``coeffs``; the fields are
    frozen so that a checkpoint always holds the terms ``predict`` reads.
    """

    kernel: object
    support: np.ndarray
    coeffs: np.ndarray
    lam: float
    norm_sq: float

    def __post_init__(self):
        support = np.asarray(self.support, dtype=float)
        coeffs = np.asarray(self.coeffs, dtype=float)
        t, d = len(support), self.kernel.dim
        if support.ndim != 2 or coeffs.shape != (t, d):
            shapes = (support.shape, coeffs.shape)
            raise DimensionMismatch("support, coeffs", shapes, f"(t, p), (t, {d})")
        state = _ExpansionState([self.kernel])
        state.restore(support, coeffs, range(1, t + 1), support.shape[1])
        object.__setattr__(self, "_state", state)

    def predict(self, x) -> np.ndarray:
        """h at x (one point or a batch of rows)."""
        return self._state.evaluate(x)[0]


def fit(kernel, xs, ys, lam: float) -> BatchModel:
    """Solve the block ridge system for the given training set.

    Raises :class:`NumericsError` when the (jittered) system cannot be
    solved to a relative residual of 1e-8.
    """
    xs, ys = check_examples(xs, ys, kernel.dim)
    t = len(xs)
    if t < 1:
        raise ConfigError("batch fit needs at least one example")
    check_positive("lambda", lam)

    ridge = lam * t
    if not math.isfinite(ridge):
        raise NumericsError(f"lambda * t overflows: {lam!r} * {t}")
    scalar = kernel.scalar_gram(xs)
    solve = _separable_solve if kernel.family == "gaussian" else _dense_solve
    coeffs, cond = solve(kernel, scalar, ys, ridge)
    # G vec(C) in the original basis from the t x t scalar Gram: O(t^2 d)
    applied = kernel.row_expansion(scalar, coeffs, coeffs.sum(axis=1))
    _check_residual(float(np.linalg.norm(applied + ridge * coeffs - ys)), ys, cond)
    return BatchModel(kernel, xs, coeffs, lam, float(np.sum(coeffs * applied)))


def _dense_solve(kernel, p, ys, ridge):
    """Coefficients and a condition estimate from one td x td buffer, factored in place.

    The kernel's Gram writer fills the buffer from the t x t inner products
    P with the same floats as the Kronecker sum.  ONES and I share the
    eigenbasis ``[ones / sqrt(d), complement]``, so the condition estimate
    reads the spectra of ``mu d P + (1 - mu) P∘P`` (the ones direction) and
    ``(1 - mu) P∘P`` (the d - 1 others), two t x t problems.
    """
    t, d = ys.shape
    n = t * d
    system = np.empty((n, n))

    def fill(jitter=0.0):
        """Write ``G + (lambda t + jitter) I`` into the buffer; returns the trace of G."""
        kernel._fill_gram(p, system)
        trace = np.trace(system)
        system.flat[:: n + 1] += ridge
        if jitter:
            system.flat[:: n + 1] += jitter
        return trace

    def solve(jitter):
        if jitter:
            # the failed factor overwrote the buffer
            fill(jitter)
        # the system is symmetric, so its transpose is the Fortran-ordered
        # view LAPACK factors without a copy
        factor = scipy.linalg.cho_factor(system.T, overwrite_a=True)
        return scipy.linalg.cho_solve(factor, ys.ravel())

    def cond():
        squares = (1.0 - kernel.mu) * p * p
        blocks = [kernel.mu * d * p + squares] + ([squares] if d > 1 else [])
        return _condition(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]), ridge)

    coeffs = _solve_or_jitter(solve, 1e-10 * fill() / n, cond)
    return coeffs.reshape(t, d), cond


def _separable_solve(kernel, scalar, ys, ridge):
    """Coefficients and a condition estimate for ``K = k(x, x') J``, a t x t factor per direction.

    With ``J = U diag(l) U^T`` the block Gram ``S ⊗ J`` becomes
    ``S ⊗ diag(l)`` in the rotated outputs ``Y U``; column j of the
    rotated coefficients solves ``(l_j S + lambda t I) c_j = (Y U)_j``.
    The eigenvalues are used as computed (tiny negative ones included).
    """
    t, d = ys.shape
    eigvals, eigvecs = kernel.structure_eig
    rotated = ys @ eigvecs

    def solve(jitter):
        out = np.empty_like(rotated)
        # one t x t buffer for every block, factored in place: the blocks
        # are symmetric, so the transposed view is the Fortran-ordered block
        block = np.empty_like(scalar)
        for j in range(d):
            np.multiply(scalar, eigvals[j], out=block)
            block.flat[:: t + 1] += ridge + jitter
            factor = scipy.linalg.cho_factor(block.T, overwrite_a=True)
            out[:, j] = scipy.linalg.cho_solve(factor, rotated[:, j])
        return out @ eigvecs.T

    def cond():
        # the block system's eigenvalues are s_i l_j + lambda t
        return _condition(np.outer(np.linalg.eigvalsh(scalar), eigvals), ridge)

    # U is orthogonal, so jitter on every block is jitter on the whole system
    jitter = 1e-10 * np.trace(scalar) * np.trace(kernel.structure) / (t * d)
    return _solve_or_jitter(solve, jitter, cond), cond


def _condition(eigvals, ridge) -> float:
    """Condition number of a symmetric system from the eigenvalues of its Gram."""
    spectrum = np.abs(eigvals + ridge)
    with np.errstate(divide="ignore"):
        return spectrum.max() / spectrum.min()


def _solve_or_jitter(solve, jitter, cond):
    """``solve(0.0)``, or ``solve(jitter)`` when a factor is not positive definite."""
    try:
        return solve(0.0)
    except scipy.linalg.LinAlgError:
        try:
            return solve(jitter)
        except scipy.linalg.LinAlgError as exc:
            raise NumericsError(
                f"block system not positive definite even with jitter {jitter:.3e}; "
                f"condition estimate {cond():.3e}"
            ) from exc


def _check_residual(residual, y, cond) -> None:
    y_norm = float(np.linalg.norm(y))
    rel = residual / y_norm if y_norm > 0 else residual
    # "not <=" so a NaN residual (overflowed factor) also fails
    if not rel <= _RESIDUAL_TOL:
        raise NumericsError(
            f"ill-conditioned block system: relative residual {rel:.3e} "
            f"(condition estimate {cond():.3e})"
        )


def regularized_risk(model: BatchModel, xs, ys) -> float:
    """Mean squared-loss empirical risk plus the ridge penalty.

    ``(1/n) sum_i ||h(x_i) - y_i||^2 / 2 + (lambda/2) ||h||^2``.
    """
    xs, ys = check_examples(xs, ys, model.kernel.dim)
    residuals = model.predict(xs) - ys
    data_term = 0.5 * float(np.mean(np.einsum("ij,ij->i", residuals, residuals)))
    return data_term + 0.5 * model.lam * model.norm_sq
