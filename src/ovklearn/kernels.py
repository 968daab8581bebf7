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

The kernels of one family share each support sweep (squared distances or
inner products); see :class:`OperatorKernel`.  A sweep for many queries at
once is one BLAS product of the queries with the support: the Gaussian
family writes each squared distance in its centred GEMM form, clamped at
0, whose predictions agree with the single-point sweep's within 1e-12
relative.  Each family writes its expansion ``sum_i K(x_i, x) c_i`` once,
in ``row_expansion``, for one query or a block of them; the online step,
every multi-row predict and the batch Gram product ``G vec(C)`` (the
expansion over the t x t ``scalar_gram``) all call it.  A poly kernel also
reads each term's coefficient sum, which the expansion state keeps, so no
row method reduces over the support.  Every model, online or batch, feeds
the row methods in one place, ``onorma._ExpansionState``.

Kernel objects are immutable and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError, DimensionMismatch, check_positive

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

    Subclasses implement ``__call__`` (the d x d matrix), ``gram`` (the
    stacked td x td block matrix with block (i, j) equal to ``K(x_i, x_j)``)
    and the row methods below, from which every model evaluates its
    expansion ``sum_i K(x_i, x) coeffs_i``.

    Both families write ``K(x_i, x)`` through one scalar per support term,
    ``r_i`` (Gaussian weight or inner product), and every kernel of a
    ``family`` derives it from the same family row: the squared distances
    ``||x_i - x||^2`` or the inner products ``<x_i, x>``.  ``row`` sweeps
    the support once for that row and ``scalars`` maps it elementwise to
    the kernel's own ``r_i``, so a bank of kernels sweeps its support once
    per family, not once per kernel.  Many queries are swept through
    ``row_sweep(support)``, which does the per-support work once and
    returns a function writing the (B, s) family rows of a block of B
    queries into a caller's buffer with one BLAS product; over the support
    itself it gives ``scalar_gram``.  ``row_expansion`` and ``row_cross``
    read the scalars: one query's expansion is
    ``row_expansion(scalars(row(support, x)), coeffs, sums)``, a block's
    takes its (B, s) scalars, and over the t x t ``scalar_gram`` it is the
    block Gram product ``G vec(coeffs)`` of the batch solves and the norm
    oracle, with G never formed.  The same scalars give every cross
    product ``<K(x_i, x) a, coeffs_i>``.
    ``sums`` holds each term's coefficient sum ``sum_k coeffs[i, k]``,
    read only by a kernel with ``reads_sums`` set (the poly family, whose
    all-ones block needs it), and ``None`` for a kernel without.
    The row methods trust their arguments; the caller, the expansion state
    of :mod:`ovklearn.onorma`, checks them and keeps the sums.
    """

    family: str
    dim: int
    reads_sums = False

    def __call__(self, x, x2) -> np.ndarray:
        raise NotImplementedError

    def row(self, support, x) -> np.ndarray:
        """The family row of one point x over the support, (s,)."""
        raise NotImplementedError

    def row_sweep(self, support):
        """``rows(queries, out)``: the family rows of (B, p) queries, written into (B, s) ``out``.

        The work that depends on the support alone is done here, once for
        every block of queries swept over it.
        """
        raise NotImplementedError

    def scalars(self, row, out=None) -> np.ndarray:
        """The per-term scalars ``r_i`` of ``K(x_i, x)``, elementwise from the family row."""
        raise NotImplementedError

    def row_expansion(self, scalars, coeffs, sums, scratch=None, out=None) -> np.ndarray:
        """``sum_i K(x_i, x) coeffs_i`` from the (s,) scalars of one x, or of B queries from (B, s).

        The result goes into ``out`` ((d,) or (B, d)), and ``None`` allocates.
        A kernel that needs a buffer the size of the scalars writes it into
        ``scratch``: the scalars are overwritten only when ``scratch`` is
        ``scalars``, and ``None`` allocates.
        """
        raise NotImplementedError

    def row_cross(self, row, coeffs, sums, a) -> np.ndarray:
        """``<K(x_i, x) a, coeffs_i>`` for every i, from the scalars of x."""
        raise NotImplementedError

    def quad(self, x, a) -> float:
        """``<K(x, x) a, a>`` without forming the d x d matrix."""
        raise NotImplementedError

    def scalar_gram(self, xs) -> np.ndarray:
        """The t x t matrix of per-term scalars ``r(x_i, x_k)``, from the family rows."""
        xs = np.asarray(xs, dtype=float)
        row = self.row_sweep(xs)(xs, np.empty((len(xs), len(xs))))
        return self.scalars(row, out=row)

    def gram(self, xs) -> np.ndarray:
        raise NotImplementedError

    def diag_operator_norm(self, x) -> float:
        """Spectral norm of K(x, x)."""
        return float(np.max(np.abs(np.linalg.eigvalsh(self(x, x)))))

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

    The block Gram of t points is ``S ⊗ J`` with S the t x t scalar Gram
    (:meth:`scalar_gram`).  ``structure_eig`` holds J's eigenpairs
    ``(l, U)``, ``J = U diag(l) U^T``, which split a batch ridge solve
    into d independent t x t systems (see :mod:`ovklearn.batch`).
    """

    mu: float
    dim: int
    structure: np.ndarray = field(default=None)

    family = "gaussian"

    def __post_init__(self):
        check_positive("gaussian kernel mu", self.mu)
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
        # an asymmetric J makes K(x, x') differ from K(x', x)^T
        asymmetry = np.max(np.abs(J - J.T))
        if asymmetry > 1e-12 * np.max(np.abs(J)):
            raise ConfigError(f"structure matrix must be symmetric, |J - J^T| = {asymmetry:.3e}")
        # eigvalsh and eigh differ in the last bit (1.3 at d = 4 and the
        # default J), and every bound constant reads the eigvalsh value
        eigs = np.linalg.eigvalsh(J)
        # fail fast on an indefinite structure matrix
        if eigs[0] < -1e-9:
            raise ConfigError(
                f"structure matrix must be PSD (smallest eigenvalue {eigs[0]:.3e})"
            )
        pairs = np.linalg.eigh(J)
        for arr in (J, *pairs):
            arr.setflags(write=False)
        object.__setattr__(self, "structure", J)
        object.__setattr__(self, "structure_eig", tuple(pairs))
        # exp(0) = 1, so K(x, x) == J for every x: its spectral norm is fixed
        object.__setattr__(self, "_diag_norm", float(np.max(np.abs(eigs))))

    def __call__(self, x, x2) -> np.ndarray:
        x, x2 = _check_pair(x, x2)
        d = x - x2
        return float(np.exp(-np.dot(d, d) / self.mu)) * self.structure

    def row(self, support, x) -> np.ndarray:
        # ||x_i - x||^2: the same for every mu and J
        diffs = support - x
        return np.einsum("ij,ij->i", diffs, diffs)

    def row_sweep(self, support):
        # ||q - x_i||^2 = ||q - c||^2 + ||x_i - c||^2 - 2 <q - c, x_i - c> with c
        # the support mean: centred, the cancellation scales with the spread of
        # the inputs, not with their distance from the origin (uncentred,
        # inputs shifted by 1e3 moved predictions by 7e-10 relative); rounding
        # can leave it below 0
        centre = support.mean(axis=0)
        centred = support - centre
        norms = np.einsum("ij,ij->i", centred, centred)
        scaled = -2.0 * centred.T  # exact: a power of two

        def rows(queries, out):
            q = queries - centre
            np.matmul(q, scaled, out=out)
            out += norms
            out += np.einsum("ij,ij->i", q, q)[:, None]
            return np.maximum(out, 0.0, out=out)

        return rows

    def scalars(self, row, out=None) -> np.ndarray:
        # w_i = exp(-||x_i - x||^2 / mu), so K(x_i, x) = w_i J
        w = np.negative(row, out=out)
        w /= self.mu
        return np.exp(w, out=w)

    def row_expansion(self, scalars, coeffs, sums, scratch=None, out=None) -> np.ndarray:
        # row b is J (w_b C) for any J; one query's floats are those of J @ (w @ C)
        return np.matmul(scalars @ coeffs, self.structure.T, out=out)

    def row_cross(self, row, coeffs, sums, a) -> np.ndarray:
        return row * (coeffs @ (self.structure @ a))

    def quad(self, x, a) -> float:
        # exp(0) = 1, so K(x, x) == J for every x
        return float(a @ (self.structure @ a))

    def gram(self, xs) -> np.ndarray:
        return np.kron(self.scalar_gram(xs), self.structure)

    def diag_operator_norm(self, x) -> float:
        return self._diag_norm

    def to_dict(self) -> dict:
        return {
            "family": self.family,
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

    The coupled part ``ONES @ c_i`` is ``sum(c_i) * ones``, so the row
    methods read the stored terms' coefficient sums (``reads_sums``)
    instead of reducing the coefficients on every call.
    """

    mu: float
    dim: int

    family = "poly"
    reads_sums = True

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
        # p_i = <x_i, x>: the same for every mu
        return support @ x

    def row_sweep(self, support):
        # over the support itself this is a matrix times its own transpose,
        # which numpy computes bitwise symmetric
        return lambda queries, out: np.matmul(queries, support.T, out=out)

    def scalars(self, row, out=None) -> np.ndarray:
        # K(x_i, x) = mu p_i ONES + (1 - mu) p_i^2 I reads p_i itself
        return row

    def row_expansion(self, scalars, coeffs, sums, scratch=None, out=None) -> np.ndarray:
        # the coupled part first: the squares may overwrite the scalars
        coupled = self.mu * (scalars @ sums)
        squares = np.multiply(scalars, scalars, out=scratch)
        out = np.multiply(squares @ coeffs, 1.0 - self.mu, out=out)
        out += coupled[..., None]
        return out

    def row_cross(self, row, coeffs, sums, a) -> np.ndarray:
        return self.mu * float(np.sum(a)) * (row * sums) + (
            1.0 - self.mu
        ) * ((row * row) * (coeffs @ a))

    def quad(self, x, a) -> float:
        dot = float(x @ x)
        total = float(np.sum(a))
        return self.mu * dot * total * total + (1.0 - self.mu) * dot * dot * float(a @ a)

    def gram(self, xs) -> np.ndarray:
        """The td x td block Gram ``mu P ⊗ ONES + (1 - mu) (P∘P) ⊗ I``, P the inner products.

        Written by :meth:`_fill_gram` into one buffer, with no Kronecker terms.
        """
        p = self.scalar_gram(xs)
        t = len(p)
        return self._fill_gram(p, np.empty((t * self.dim, t * self.dim)))

    def _fill_gram(self, p, out) -> np.ndarray:
        """Write the block Gram of the t x t inner products ``p`` into the td x td ``out``.

        mu p goes into every entry of each block and ``(1 - mu) p^2`` onto its
        diagonal: entry for entry the floats of the Kronecker sum.
        """
        t, d = len(p), self.dim
        blocks = out.reshape(t, d, t, d)
        np.multiply(p[:, None, :, None], self.mu, out=blocks)
        squares = (1.0 - self.mu) * p * p
        for a in range(d):
            blocks[:, a, :, a] += squares
        return out

    def to_dict(self) -> dict:
        return {"family": self.family, "mu": self.mu, "dim": self.dim}


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
