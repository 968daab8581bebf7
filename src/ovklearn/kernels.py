"""Operator-valued kernels on R^p with values in the d x d real matrices.

A kernel K maps a pair of input points to a d x d matrix acting on the
output space.  Two families are provided:

* :class:`SeparableGaussian` -- a Gaussian scalar kernel times a fixed
  symmetric PSD structure matrix J encoding output couplings,
  ``K(x, x') = exp(-||x - x'||^2 / mu) * J``.
* :class:`NonSeparablePoly` -- a convex mix of a rank-one coupling and an
  independent-outputs quadratic term,
  ``K(x, x') = mu * <x, x'> * ONES + (1 - mu) * <x, x'>^2 * I``.

Both are Hermitian (``K(x, x') == K(x', x).T``) and positive-definite:
for any points ``x_k`` and vectors ``y_k``,
``sum_{k,l} <K(x_k, x_l) y_l, y_k> >= 0``.

Kernel objects are immutable and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .exceptions import ConfigError, DimensionMismatch

__all__ = [
    "SeparableGaussian",
    "NonSeparablePoly",
    "default_structure",
    "operator_norm_bound",
    "kernel_from_dict",
]


def default_structure(dim: int) -> np.ndarray:
    """Structure matrix with 1 on the diagonal and 1/10 elsewhere."""
    return 0.9 * np.eye(dim) + 0.1 * np.ones((dim, dim))


def _check_pair(x, x2):
    x = np.asarray(x, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x.shape != x2.shape:
        raise DimensionMismatch("kernel inputs", x.shape[-1], x2.shape[-1])
    return x, x2


class OperatorKernel:
    """Common evaluation helpers; concrete families fill in the formulas.

    Subclasses implement ``__call__`` (the d x d matrix), ``expansion``
    (vectorised evaluation of ``sum_i K(query, support_i) @ coeffs_i``),
    ``gram`` (the stacked td x td block matrix with block (i, j) equal to
    ``K(x_i, x_j)``) and the per-term row methods below.

    Both families write ``K(x_i, x)`` through one scalar per support term,
    the row ``r_i`` (Gaussian weight or inner product).  A single-query
    expansion is ``row_expansion(row(support, x), coeffs)``, and the same
    row gives every cross product ``<K(x_i, x) a, coeffs_i>`` through
    ``row_cross``, so an online step sweeps its support once per kernel.
    The row methods trust their arguments; ``expansion`` checks them.
    """

    dim: int

    def __call__(self, x, x2) -> np.ndarray:
        raise NotImplementedError

    def row(self, support, x) -> np.ndarray:
        """The per-term scalars ``r_i`` of ``K(x_i, x)``, one per support row."""
        raise NotImplementedError

    def row_expansion(self, row, coeffs) -> np.ndarray:
        """``sum_i K(x_i, x) coeffs_i`` from the row of x."""
        raise NotImplementedError

    def row_cross(self, row, coeffs, a) -> np.ndarray:
        """``<K(x_i, x) a, coeffs_i>`` for every i, from the row of x."""
        raise NotImplementedError

    def quad(self, x, a) -> float:
        """``<K(x, x) a, a>`` without forming the d x d matrix."""
        raise NotImplementedError

    def expansion(self, support, query, coeffs) -> np.ndarray:
        support = np.asarray(support, dtype=float)
        coeffs = self._check_coeff(coeffs)
        query = np.asarray(query, dtype=float)
        if len(support) == 0:
            shape = (self.dim,) if query.ndim == 1 else (len(query), self.dim)
            return np.zeros(shape)
        if query.ndim == 1:
            if query.shape[0] != support.shape[1]:
                raise DimensionMismatch("query point", query.shape[0], support.shape[1])
            return self.row_expansion(self.row(support, query), coeffs)
        return self._batch_expansion(support, query, coeffs)

    def _batch_expansion(self, support, queries, coeffs) -> np.ndarray:
        raise NotImplementedError

    def gram(self, xs) -> np.ndarray:
        raise NotImplementedError

    def diag_operator_norm(self, x) -> float:
        """Spectral norm of K(x, x)."""
        return float(np.max(np.abs(np.linalg.eigvalsh(self(x, x)))))

    def _check_coeff(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        if a.shape[-1] != self.dim:
            raise DimensionMismatch("coefficient vector", a.shape[-1], self.dim)
        return a

    def to_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class SeparableGaussian(OperatorKernel):
    """Gaussian scalar kernel times a fixed structure matrix.

    Parameters
    ----------
    mu : float
        Bandwidth, > 0.  Larger mu means a wider kernel.
    dim : int
        Output dimension d.
    structure : ndarray, optional
        Symmetric PSD d x d matrix J.  Defaults to 1 on the diagonal and
        1/10 off-diagonal.
    """

    mu: float
    dim: int
    structure: np.ndarray = field(default=None)

    def __post_init__(self):
        if not self.mu > 0:
            raise ConfigError(f"gaussian kernel requires mu > 0, got {self.mu}")
        if self.dim < 1:
            raise ConfigError(f"output dimension must be >= 1, got {self.dim}")
        J = self.structure
        if J is None:
            J = default_structure(self.dim)
        J = np.array(J, dtype=float)
        if J.shape != (self.dim, self.dim):
            raise DimensionMismatch("structure matrix", J.shape, (self.dim, self.dim))
        if not np.all(np.isfinite(J)):
            raise ConfigError("structure matrix must be finite")
        if not np.allclose(J, J.T, atol=1e-12):
            raise ConfigError("structure matrix must be symmetric")
        eigs = np.linalg.eigvalsh(J)
        # fail fast on an indefinite structure matrix
        if eigs[0] < -1e-9:
            raise ConfigError(
                f"structure matrix must be PSD (smallest eigenvalue {eigs[0]:.3e})"
            )
        J.setflags(write=False)
        object.__setattr__(self, "structure", J)
        # exp(0) = 1, so K(x, x) == J for every x: its spectral norm is fixed
        object.__setattr__(self, "_diag_norm", float(np.max(np.abs(eigs))))

    def __call__(self, x, x2) -> np.ndarray:
        x, x2 = _check_pair(x, x2)
        d = x - x2
        return float(np.exp(-np.dot(d, d) / self.mu)) * self.structure

    def row(self, support, x) -> np.ndarray:
        # w_i = exp(-||x_i - x||^2 / mu), so K(x_i, x) = w_i J
        diffs = support - x
        return np.exp(-np.einsum("ij,ij->i", diffs, diffs) / self.mu)

    def row_expansion(self, row, coeffs) -> np.ndarray:
        return self.structure @ (row @ coeffs)

    def row_cross(self, row, coeffs, a) -> np.ndarray:
        return row * (coeffs @ (self.structure @ a))

    def quad(self, x, a) -> float:
        # exp(0) = 1, so K(x, x) == J for every x
        return float(a @ (self.structure @ a))

    def _batch_expansion(self, support, queries, coeffs) -> np.ndarray:
        # exp(-sq / mu) in place: one n x s buffer instead of three
        w = cdist(queries, support, "sqeuclidean")
        np.negative(w, out=w)
        w /= self.mu
        np.exp(w, out=w)
        return (w @ coeffs) @ self.structure

    def gram(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        scalar = np.exp(-cdist(xs, xs, "sqeuclidean") / self.mu)
        return np.kron(scalar, self.structure)

    def diag_operator_norm(self, x) -> float:
        return self._diag_norm

    def to_dict(self) -> dict:
        return {
            "family": "gaussian",
            "mu": self.mu,
            "dim": self.dim,
            "structure": self.structure.tolist(),
        }


@dataclass(frozen=True)
class NonSeparablePoly(OperatorKernel):
    """Inner-product kernel mixing all-output coupling with independence.

    ``K(x, x') = mu * <x, x'> * ONES + (1 - mu) * <x, x'>^2 * I`` with
    mu in [0, 1].  mu = 1 gives the fully coupled linear kernel, mu = 0
    the uncoupled quadratic one.
    """

    mu: float
    dim: int

    def __post_init__(self):
        if not 0.0 <= self.mu <= 1.0:
            raise ConfigError(f"poly kernel requires mu in [0, 1], got {self.mu}")
        if self.dim < 1:
            raise ConfigError(f"output dimension must be >= 1, got {self.dim}")

    def __call__(self, x, x2) -> np.ndarray:
        x, x2 = _check_pair(x, x2)
        dot = float(np.dot(x, x2))
        d = self.dim
        return self.mu * dot * np.ones((d, d)) + (1.0 - self.mu) * dot * dot * np.eye(d)

    # ONES @ a == sum(a) * ones, so every product below costs O(d) per term

    def row(self, support, x) -> np.ndarray:
        # p_i = <x_i, x>, so K(x_i, x) = mu p_i ONES + (1 - mu) p_i^2 I
        return support @ x

    def row_expansion(self, row, coeffs) -> np.ndarray:
        return self.mu * float(row @ coeffs.sum(axis=1)) * np.ones(self.dim) + (
            1.0 - self.mu
        ) * ((row * row) @ coeffs)

    def row_cross(self, row, coeffs, a) -> np.ndarray:
        return self.mu * float(np.sum(a)) * (row * coeffs.sum(axis=1)) + (
            1.0 - self.mu
        ) * ((row * row) * (coeffs @ a))

    def quad(self, x, a) -> float:
        dot = float(x @ x)
        total = float(np.sum(a))
        return self.mu * dot * total * total + (1.0 - self.mu) * dot * dot * float(a @ a)

    def _batch_expansion(self, support, queries, coeffs) -> np.ndarray:
        p = queries @ support.T
        coupled = self.mu * (p @ coeffs.sum(axis=1))[:, None] * np.ones(self.dim)
        p *= p  # in place: no second n x s buffer
        return coupled + (1.0 - self.mu) * (p @ coeffs)

    def gram(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        p = xs @ xs.T
        d = self.dim
        return np.kron(self.mu * p, np.ones((d, d))) + np.kron(
            (1.0 - self.mu) * p * p, np.eye(d)
        )

    def to_dict(self) -> dict:
        return {"family": "poly", "mu": self.mu, "dim": self.dim}


def operator_norm_bound(kernel: OperatorKernel, xs) -> float:
    """Empirical bound kappa^2 = max over the dataset of ||K(x, x)||_op.

    This is a lower bound of the true supremum over the whole input space;
    reports quoting it should flag the substitution.
    """
    xs = np.asarray(xs, dtype=float)
    if len(xs) == 0:
        raise ValueError("operator_norm_bound needs a non-empty dataset")
    return max(kernel.diag_operator_norm(x) for x in xs)


def kernel_from_dict(spec: dict) -> OperatorKernel:
    """Rebuild a kernel from its ``to_dict`` representation."""
    family = spec.get("family")
    if family == "gaussian":
        structure = spec.get("structure")
        if structure is not None:
            structure = np.asarray(structure, dtype=float)
        return SeparableGaussian(mu=spec["mu"], dim=spec["dim"], structure=structure)
    if family == "poly":
        return NonSeparablePoly(mu=spec["mu"], dim=spec["dim"])
    raise ConfigError(f"unknown kernel family {family!r}")
