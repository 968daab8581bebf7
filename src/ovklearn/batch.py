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
  system by one Cholesky: (td)^3 / 3 flops and O((td)^2) memory.

Both check the relative residual in the original basis and retry a failed
factor once with the same diagonal jitter.  The fitted model predicts
through the online learners' expansion state, so its queries are checked
and evaluated as theirs are.  This baseline exists to verify bounds and
accuracy at desk scale, not to scale.
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
    solve = _separable_solve if kernel.family == "gaussian" else _dense_solve
    coeffs, norm_sq = solve(kernel, xs, ys, ridge)
    return BatchModel(kernel, xs, coeffs, lam, norm_sq)


def _dense_solve(kernel, xs, ys, ridge):
    """Coefficients and ``||h||^2`` from one td x td Cholesky."""
    t, d = len(xs), kernel.dim
    gram = kernel.gram(xs)
    y = ys.ravel()
    # lambda t on the diagonal of one copy; no td x td identity is formed
    system = gram.copy()
    system.flat[:: t * d + 1] += ridge

    def solve(jitter):
        shifted = system + jitter * np.eye(t * d) if jitter else system
        return scipy.linalg.cho_solve(scipy.linalg.cho_factor(shifted), y)

    def cond():
        return np.linalg.cond(system)

    a = _solve_or_jitter(solve, 1e-10 * np.trace(gram) / (t * d), cond)
    _check_residual(float(np.linalg.norm(system @ a - y)), y, cond)
    return a.reshape(t, d), float(a @ (gram @ a))


def _separable_solve(kernel, xs, ys, ridge):
    """Coefficients and ``||h||^2`` for ``K = k(x, x') J``, a t x t Cholesky per direction.

    With ``J = U diag(l) U^T`` the block Gram ``S ⊗ J`` becomes
    ``S ⊗ diag(l)`` in the rotated outputs ``Y U``; column j of the
    rotated coefficients solves ``(l_j S + lambda t I) c_j = (Y U)_j``.
    The eigenvalues are used as computed (tiny negative ones included)
    and the residual is checked in the original basis.
    """
    t, d = len(xs), kernel.dim
    y = ys.reshape(t, d)
    scalar = kernel.scalar_gram(xs)
    eigvals, eigvecs = kernel.structure_eig
    rotated = y @ eigvecs

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
        spectrum = np.abs(np.outer(np.linalg.eigvalsh(scalar), eigvals) + ridge)
        with np.errstate(divide="ignore"):
            return spectrum.max() / spectrum.min()

    # U is orthogonal, so jitter on every block is jitter on the whole system
    jitter = 1e-10 * np.trace(scalar) * np.trace(kernel.structure) / (t * d)
    coeffs = _solve_or_jitter(solve, jitter, cond)
    # S C J is G vec(C) in the original basis: O(t^2 d), and G is never formed
    applied = (scalar @ coeffs) @ kernel.structure
    _check_residual(float(np.linalg.norm(applied + ridge * coeffs - y)), y, cond)
    return coeffs, float(np.sum(coeffs * applied))


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
