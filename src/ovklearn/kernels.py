"""Operator-valued kernels on R^p with values in the d x d real matrices.

A kernel K maps a pair of input points to a d x d matrix acting on the
output space.  Two families are provided, by name in :data:`FAMILIES`,
each with its section norm ``||K(x, x)||_op`` in closed form:

* :class:`SeparableGaussian` -- a Gaussian scalar kernel times a fixed
  symmetric PSD structure matrix J encoding output couplings,
  ``K(x, x') = exp(-||x - x'||^2 / mu) * J``; the norm is ``||J||``.
* :class:`NonSeparablePoly` -- a convex mix of a rank-one coupling and an
  independent-outputs quadratic term,
  ``K(x, x') = mu * <x, x'> * ONES + (1 - mu) * <x, x'>^2 * I``; the norm
  is ``mu d |x|^2 + (1 - mu) |x|^4``.

Both are Hermitian (``K(x, x') == K(x', x).T``) and positive-definite:
for any points ``x_k`` and vectors ``y_k``,
``sum_{k,l} <K(x_k, x_l) y_l, y_k> >= 0``.

A learner evaluates its kernels through one bank per family, the family's
step code (:class:`KernelBank`), which writes each result at its kernel's
place in the learner's kernel order.  A bank is the only code that
evaluates an expansion ``sum_i K(x_i, x) c_i`` at query points, one point
or a block of rows.  A step calls each bank twice: ``expand`` before the
loss evaluates the expansion at the step's point and keeps that sweep, and
``norm_terms`` after it writes the new coefficient's quadratic forms and,
for a Gaussian bank under truncation, its cross products from that kept
sweep, so each product is computed once.  A Gaussian
bank's point sweep is one BLAS product of a point's centred
``[-2 (x - c), 1, ||x - c||^2]`` with each term's centred row
``[x_i - c, ||x_i - c||^2, 1]``, which the expansion state keeps for it
(:func:`centred_rows`); the bank maps those squared distances to its
scalars once per distinct ``mu``, makes one ``w C`` product per distinct
``mu`` and one ``J`` product per distinct structure matrix, with the bits
of each member's one-kernel forms given the distances
(:class:`_GaussianBank`).  A poly bank evaluates through the kernel's
finite feature map: the expansion state keeps the feature sums
``F = [v; M_1; ...; M_d]``, ``v = sum_i S_i x_i`` and
``M_k = sum_i c_ik x_i x_i^T``, of its folded terms and a few pending
rows, and every member reads ``mu (q . v) + (1 - mu) q^T M_k q`` plus a
sweep of those rows (:class:`_PolyBank`).

A predict on n rows over s terms in R^p with d outputs takes one path per
family (each bank's ``expand_rows``):

* *Gaussian*, O(n s (p + 2d)): blocks of rows are swept over the support,
  with the work the members share done once per block.  A block reads the
  kept centred rows: its exponents are one product of the rows with the
  block's ``[-2 (q - c), 1, ||q - c||^2]``, scaled by ``-1 / mu`` of the
  bank's last kernel, and every other distinct ``mu`` multiplies them by
  ``mu_last / mu``, so no block divides; each distinct ``mu`` takes one
  ``exp`` and one ``w C``, as a step does.
* *Poly*, O(n (p^2 d + B (p + 2d))) for at most B pending rows: each block
  of rows reads the kept feature sums and sweeps the pending rows, the
  step's path for one point, whatever the support size.  A support that
  was never folded (under B terms) is all pending, so it is swept.

Both paths, and ``scalar_gram`` (each family's t x t matrix of per-term
scalars, the same exponent product over the points' own centred rows for
a Gaussian), round differently from the step's one-point evaluation, which
for a Gaussian divides each squared distance by ``-mu``
(:class:`_GaussianBank`): multi-row predictions agree with one-point
predictions within 1e-12 relative.  Each kernel keeps its family's
expansion over a scalar Gram, ``row_expansion``, for the batch Gram
product ``G vec(C)`` and the norm oracle.

Kernel objects are immutable and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .exceptions import ConfigError, DimensionMismatch, check_int, check_positive, check_real

# A step's products skip numpy's Python-level dispatch, which costs more
# than their arithmetic on a few hundred terms: ``ndarray.dot`` makes the
# BLAS call of ``@`` (the same floats) without the matmul ufunc's set-up,
# about 0.4 us a call, and a stored term's centred norm calls the C
# function to which np.einsum, at its default optimize=False, passes its
# operands (numpy < 2 keeps the wrapper)
try:
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:
    _einsum = np.einsum

__all__ = [
    "SeparableGaussian",
    "NonSeparablePoly",
    "FAMILIES",
    "default_structure",
    "operator_norm_bound",
    "kernel_from_dict",
]

# a block of queries' rows takes about this many bytes, so it stays in cache
_BLOCK_BYTES = 1 << 20

# while every centred norm ||x_i - c||^2 and ||x - c||^2 is at most this, each
# of the point sweep's p + 2 terms is at most 2^1001 in size, so none overflows
_SAFE_NORM = 2.0**1000


def default_structure(dim: int) -> np.ndarray:
    """Structure matrix with 1 on the diagonal and 1/10 elsewhere."""
    return 0.9 * np.eye(dim) + 0.1 * np.ones((dim, dim))


def centred_rows(support, centre, out) -> float:
    """Write ``[x_i - c, ||x_i - c||^2, 1]`` for each support row into the (s, p + 2) ``out``.

    These are the rows the Gaussian point sweep reads
    (:meth:`_GaussianBank.distances`), one per stored term.  Returns the
    largest norm written (0 for none), which bounds the sweep's terms.
    """
    p = len(centre)
    rows = np.subtract(support, centre, out=out[:, :p])
    norms = np.einsum("ij,ij->i", rows, rows, out=out[:, p])
    out[:, p + 1] = 1.0
    return float(norms.max(initial=0.0))


def centred_row(x, centre, out):
    """:func:`centred_rows` of one point into the (p + 2,) ``out``, same floats; returns its norm."""
    p = len(centre)
    u = np.subtract(x, centre, out=out[:p])
    out[p] = norm = _einsum("i,i->", u, u)
    out[p + 1] = 1.0
    return norm


def centred_exponents(rows, centre, queries, scale, out) -> np.ndarray:
    """``scale * ||q - x_i||^2`` of (B, p) queries and :func:`centred_rows` ``rows``, into (B, s) ``out``.

    One product of the rows with each query's ``[-2 (q - c), 1, ||q - c||^2]``
    scaled by ``scale`` (``-1 / mu``), so nothing the size of ``out``
    divides.  Centred, the cancellation scales with the spread of the
    inputs, not with their distance from the origin (uncentred, inputs
    shifted by 1e3 moved predictions by 7e-10 relative); rounding can leave
    the product above 0, so it is clamped at 0 from above.
    """
    p = len(centre)
    left = np.empty((len(queries), p + 2))
    u = np.subtract(queries, centre, out=left[:, :p])
    left[:, p] = scale
    np.einsum("ij,ij->i", u, u, out=left[:, p + 1])
    left[:, p + 1] *= scale
    u *= -2.0 * scale
    np.matmul(left, rows.T, out=out)
    return np.minimum(out, 0.0, out=out)


def _check_pair(x, x2):
    x = np.asarray(x, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x.shape != x2.shape:
        raise DimensionMismatch("kernel inputs", x.shape[-1], x2.shape[-1])
    return x, x2


class KernelBank:
    """The kernels of one family, at ``columns`` of a learner's kernel list.

    A bank is its family's step code.  Each method reads the stored terms
    from ``terms = (support, raw, features, centred)``, the live views the
    expansion state takes once per call (``features``, the poly feature
    sums with the pending rows, is None unless a bank ``reads_features``,
    and ``centred``, the rows of :func:`centred_rows` with their centre and
    a bound on their norms, None unless a bank ``reads_centred``), shares
    the work its members have in common and writes member j's result at
    ``columns[j]`` of a list or array in the learner's kernel order.  A step
    calls each bank twice:

    * ``expand(terms, scale, x, gs)``, before the loss, writes every
      ``scale * g_j(x)`` into ``gs`` and returns ``kept``, its one sweep
      ``sweep(terms, x)``;
    * ``norm_terms(kept, x_sq, a, a_sq, quads, cross)``, after the loss,
      writes every ``<K_j(x, x) a, a>`` into ``quads`` from the step's
      ``x_sq = <x, x>`` and ``a_sq = <a, a>``.  A bank that
      ``keeps_crosses`` (the Gaussian family's), given
      ``cross = (crosses, raw_a)``, also adds every
      ``<K_j(x_i, x) raw_a, raw_i>`` into its member's column of the stored
      terms' ``crosses``, one column per member in bank order.  These read
      x, a and the raw terms alone, so the shrink between the calls changes
      no result.

    ``expand_rows(terms, queries, gs)`` writes every
    ``sum_i K_j(x_i, q) raw_i`` at the (n, p) query rows into the (n, d)
    ``gs[j]``.  The queries go in blocks whose rows take about
    ``_BLOCK_BYTES`` (:func:`_block_size`), so no n x s array is formed, and
    each block shares its members' work as the step does.
    """

    reads_features = False
    reads_centred = False
    keeps_crosses = False

    def __init__(self, kernels, columns):
        self.kernels = tuple(kernels)
        self.columns = tuple(columns)


def _block_size(n, width):
    """The row count B of a block of queries whose (B, width) rows take about ``_BLOCK_BYTES``."""
    return max(1, min(n, _BLOCK_BYTES // (8 * width)))  # float64 rows


class _GaussianBank(KernelBank):
    """Gaussians ``exp(-||x_i - x||^2 / mu) J``: one product for the distances, J products per J.

    The step's point sweep (:meth:`distances`) reads each term's centred
    row ``[x_i - c, n_i, 1]``, ``n_i = ||x_i - c||^2``, which the expansion
    state keeps for this bank (``reads_centred``): with ``u = x - c``, one
    BLAS product of the rows with ``[-2 u, 1, ||u||^2]`` gives every
    ``||x_i - x||^2 = n_i + ||u||^2 - 2 <x_i - c, u>``, clamped at 0,
    within a small multiple of ``eps (n_i + ||u||^2)`` of the exact one.
    Past a centred norm of 2^1000 the rows are centred at x and scaled by a
    power of two, so a distance may overflow to inf (kernel value 0) but is
    never NaN.

    ``scalars`` divides the distances by the column of the distinct ``-mu``
    into one (u, s) buffer and takes ``exp`` in place, so members with
    equal ``mu`` share a row: member j reads row ``row_index[j]``.  The
    sweep keeps those rows and the raw coefficients for :meth:`norm_terms`.
    Members with equal ``mu`` share one :meth:`weighted_sum` ``w C``, and
    members whose J are equal bit for bit share :meth:`quad` and
    :meth:`cross_vector`, which :meth:`norm_terms` scales by each member's
    scalars.  Given the distances, every result has the bits of the
    member's own one-point forms (``exp(row / -mu)``, ``J (w C)``,
    ``<J a, a>``, ``w (C J a)``): IEEE division and ``exp`` are elementwise.

    A block of query rows (:meth:`expand_rows`) reads the same kept rows
    and divides nothing: :func:`centred_exponents` scales each query's
    factor by ``-1 / mu`` of the last member, whose exponents the product
    gives, and every other distinct ``mu`` multiplies them by
    ``mu_last / mu``.  Each distinct ``mu`` then takes one ``exp`` and one
    :meth:`weighted_sum`, and each member one ``J`` product, as in
    :meth:`expand`.  These exponents round differently from the quotients
    of the point path, by a few ulps.
    """

    reads_centred = True
    keeps_crosses = True

    def __init__(self, kernels, columns):
        super().__init__(kernels, columns)
        mus, structures = {}, {}
        # member j reads the scalars row of its mu, row_index[j]
        self.row_index = [mus.setdefault(k.mu, len(mus)) for k in self.kernels]
        # one mu divides by a float: a (1, 1) column costs more than the divide
        self._negmu = -next(iter(mus)) if len(mus) == 1 else np.array([[-mu] for mu in mus])
        # per distinct J: the first member's J and its transpose, whose
        # products serve the (column, scalars row) of every member with that J
        for j, i, k in zip(self.columns, self.row_index, self.kernels):
            J = k.structure
            structures.setdefault(J.tobytes(), (J, J.T, []))[2].append((j, i))
        self._structures = list(structures.values())
        # per distinct J, J and the (column of the cross sums, scalars row) of
        # each member: the cross sums keep the bank's members alone, in their order
        place = {j: c for c, j in enumerate(self.columns)}
        self._crossers = [(J, [(place[j], i) for j, i in members]) for J, _, members in self._structures]
        # a block's exponents are the last member's; (scalars row, mu_last / mu)
        # of every other distinct mu, then the last member's own row, whose
        # exp is taken in place
        last = self.kernels[-1].mu
        self._block_scale = -1.0 / last
        self._block_ratios = [(i, last / mu) for mu, i in mus.items() if mu != last]
        self._block_ratios.append((mus[last], None))

    def distances(self, terms, x) -> np.ndarray:
        """``||x_i - x||^2`` for every stored term: one product with the kept centred rows."""
        rows, centre, peak = terms[3]
        p = len(centre)
        v = np.empty(p + 2)
        u = np.subtract(x, centre, out=v[:p])
        uu = float(u.dot(u))
        e = 0
        if not (uu <= _SAFE_NORM and peak <= _SAFE_NORM):
            # out of range: the terms centred at x itself, so u = 0 and each row's
            # norm is its distance, after an exact scaling by 2^-e that brings
            # every entry under 2^480, so no square or sum overflows
            support = terms[0]
            top = max(float(np.abs(support).max(initial=0.0)), float(np.abs(x).max()))
            e = max(math.frexp(top)[1] - 480, 0)
            rows = np.empty_like(rows)
            centred_rows(np.ldexp(support, -e), np.ldexp(x, -e), rows)
            u[:] = 0.0
            uu = 0.0
        v[p] = 1.0
        v[p + 1] = uu
        u *= -2.0
        row = rows.dot(v)
        np.maximum(row, 0.0, out=row)
        if e:
            # back by 2^(2e): a distance may overflow to inf, never to NaN
            np.ldexp(row, 2 * e, out=row)
        return row

    def sweep(self, terms, x) -> tuple:
        # the distances, the same for every mu and J, as scalars; with the raw terms
        return self.scalars(self.distances(terms, x)), terms[1]

    def scalars(self, row) -> list:
        # one row of row / -mu per distinct mu, which rounds as each member's scalars does
        w = row / self._negmu
        np.exp(w, out=w)
        return [w] if w.ndim == 1 else list(w)

    def expand(self, terms, scale, x, gs) -> tuple:
        kept = scalars, raw = self.sweep(terms, x)
        sums = [self.weighted_sum(w, raw) for w in scalars]
        for _, structure_t, members in self._structures:
            for j, i in members:
                # the floats of J (w C), as each member's row_expansion gives them
                gs[j] = scale * sums[i].dot(structure_t)
        return kept

    def expand_rows(self, terms, queries, gs) -> None:
        raw, (rows, centre, _) = terms[1], terms[3]
        n, s = len(queries), len(rows)
        block = _block_size(n, s)
        exponents = np.empty((block, s))
        scratch = np.empty((block, s)) if len(self._block_ratios) > 1 else None
        sums = [None] * len(self._block_ratios)
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            e = centred_exponents(rows, centre, queries[lo:hi], self._block_scale, exponents[: hi - lo])
            for i, ratio in self._block_ratios:
                w = e if ratio is None else np.multiply(e, ratio, out=scratch[: hi - lo])
                sums[i] = self.weighted_sum(np.exp(w, out=w), raw)
            for _, structure_t, members in self._structures:
                for j, i in members:
                    np.matmul(sums[i], structure_t, out=gs[j][lo:hi])

    def norm_terms(self, kept, x_sq, a, a_sq, quads, cross) -> None:
        for structure, _, members in self._structures:
            quad = self.quad(structure, a)
            for j, _ in members:
                quads[j] = quad
        if cross is not None:
            crosses, raw_a = cross
            scalars, raw = kept
            for structure, crossers in self._crossers:
                v = self.cross_vector(structure, raw, raw_a)
                for c, i in crossers:
                    column = crosses[:, c]
                    column += scalars[i] * v

    @staticmethod
    def weighted_sum(w, coeffs) -> np.ndarray:
        """``w C``: the coefficients weighted by one mu's scalars, for every member with that mu."""
        return w.dot(coeffs)

    @staticmethod
    def quad(structure, a) -> float:
        """``<J a, a>``, which is ``<K(x, x) a, a>`` for every x as exp(0) = 1."""
        return float(a.dot(structure.dot(a)))

    @staticmethod
    def cross_vector(structure, coeffs, a) -> np.ndarray:
        """``<J a, coeffs_i>`` for every i; times each term's scalar it is the cross product."""
        return coeffs.dot(structure.dot(a))


class _PolyBank(KernelBank):
    """Poly kernels ``mu <x_i, x> ONES + (1 - mu) <x_i, x>^2 I``, read through their feature map.

    ``K(x_i, q) c_i = mu <x_i, q> S_i ones + (1 - mu) <x_i, q>^2 c_i`` with
    ``S_i = sum_k c_ik``, so ``sum_i K(x_i, q) c_i`` is
    ``mu (q . v) ones + (1 - mu) (q^T M_k q)_k`` with ``v = sum_i S_i x_i``
    and ``M_k = sum_i c_ik x_i x_i^T``: every member reads the same two sums,
    ``linear = sum_i <x_i, q> S_i`` and ``quadratic_k = sum_i <x_i, q>^2 c_ik``
    (:meth:`sums_at`).  The expansion state keeps this bank's ``features``
    (``reads_features``): the rows ``F = [v; M_1; ...; M_d]``
    (:meth:`feature_sums`) of a folded range of its terms, and fewer than B
    pending rows, the stored terms not yet folded and, with negated
    coefficients, the dropped terms still folded.  A query reads ``F q`` in
    O(p^2 d) (:meth:`read_features`) and sweeps the pending rows in
    O(B (p + 2d)) (:meth:`plus_pending`), whatever the support size; a
    support that was never folded is all pending, so it is swept.  One point
    (the step's :meth:`sweep`) and a block of rows (:meth:`expand_rows`)
    take the same path, so a poly step costs O(p^2 d + B (p + 2d)).

    The bank keeps no cross sums: under truncation the state downdates a
    dropped term's norm share from an evaluation at its point
    (:meth:`drop_shares`), whose reading of F it takes for B terms at a time.
    """

    reads_features = True

    @staticmethod
    def feature_sums(support, coeffs) -> np.ndarray:
        """The (1 + p d, p) rows ``[v; M_1; ...; M_d]`` (see the class) of the (s, p) points and (s, d) raw coefficients.

        Row ``1 + k p + b`` is column b of M_k.  One product per block of
        support rows whose right-hand factor ``[S_i, c_i1 x_i, ..., c_id x_i]``
        takes about ``_BLOCK_BYTES``.
        """
        (s, p), d = support.shape, coeffs.shape[1]
        columns = np.zeros((p, 1 + p * d))
        block = max(1, min(s, _BLOCK_BYTES // (8 * (1 + p * d))))
        right = np.empty((block, 1 + p * d))
        for lo in range(0, s, block):
            x, c = support[lo : lo + block], coeffs[lo : lo + block]
            r = right[: len(x)]
            np.add.reduce(c, axis=1, out=r[:, 0])
            np.multiply(c[:, :, None], x[:, None, :], out=r[:, 1:].reshape(len(x), d, p))
            columns += x.T @ r
        return columns.T

    @staticmethod
    def read_features(features, q) -> tuple:
        """``(q . v, (q^T M_k q)_k)`` from the feature rows ``F``, at one point (p,) or a block (B, p)."""
        p = q.shape[-1]
        if q.ndim == 1:
            rows = features.dot(q)
            return float(rows[0]), rows[1:].reshape(-1, p).dot(q)
        rows = q.dot(features.T)
        quadratic = np.matmul(rows[:, 1:].reshape(len(q), -1, p), q[:, :, None])
        return rows[:, 0], quadratic[:, :, 0]

    def sums_at(self, features, pending, q) -> tuple:
        """``(linear, quadratic)`` over the stored terms in raw units, at one point (p,) or a block (B, p).

        ``F``'s reading (:meth:`read_features`) plus the pending rows' (:meth:`plus_pending`).
        """
        folded = None if features is None else self.read_features(features, q)
        return self.plus_pending(folded, pending, q)

    @staticmethod
    def plus_pending(folded, pending, q) -> tuple:
        """``folded``, a reading of ``F`` at q or None, plus a sweep of the (points, raw) pending rows.

        The sweep's ``linear`` is ``sum_k sum_i <x_i, q> c_ik``, and the
        squared inner products overwrite the inner products for ``quadratic``.
        """
        support, coeffs = pending
        if q.ndim == 1:
            p = support.dot(q)
            linear = sum(p.dot(coeffs).tolist())
        else:
            p = q.dot(support.T)
            linear = np.add.reduce(p.dot(coeffs), axis=1)
        quadratic = np.multiply(p, p, out=p).dot(coeffs)
        if folded is not None:
            linear = linear + folded[0]
            quadratic += folded[1]
        return linear, quadratic

    def sweep(self, terms, x) -> tuple:
        # the step's one evaluation at x; norm_terms reads nothing of it
        return self.sums_at(*terms[2], x)

    def expand(self, terms, scale, x, gs) -> tuple:
        kept = linear, quadratic = self.sweep(terms, x)
        for j, kernel in zip(self.columns, self.kernels):
            gs[j] = scale * ((1.0 - kernel.mu) * quadratic + kernel.mu * linear)
        return kept

    def norm_terms(self, kept, x_sq, a, a_sq, quads, cross) -> None:
        # a Python sum: the C reduction costs more than its d additions
        total = sum(a.tolist())
        for j, kernel in zip(self.columns, self.kernels):
            mu = kernel.mu
            quads[j] = mu * x_sq * total * total + (1.0 - mu) * x_sq * x_sq * a_sq

    def drop_shares(self, folded, pending, x, raw, shares) -> None:
        """Write every member's ``2 <g_j(x), raw> - <K_j(x, x) raw, raw>`` into ``shares``, in raw units.

        ``(x, raw)`` is the oldest stored term, which the feature sums and
        the pending rows still hold, and ``folded`` the feature sums' reading
        at x (None when none are kept): dropping the term changes
        ``||g_j||^2`` by ``-scale^2`` times this share.
        """
        linear, quadratic = self.plus_pending(folded, pending, x)
        x_sq, total, raw_sq = float(x.dot(x)), sum(raw.tolist()), float(raw.dot(raw))
        linear, uncoupled = linear * total, float(quadratic.dot(raw))
        for j, kernel in zip(self.columns, self.kernels):
            mu = kernel.mu
            cross = mu * linear + (1.0 - mu) * uncoupled
            quad = mu * x_sq * total * total + (1.0 - mu) * x_sq * x_sq * raw_sq
            shares[j] = 2.0 * cross - quad

    def expand_rows(self, terms, queries, gs) -> None:
        features, pending = terms[2]
        widest = max(len(pending[0]), 0 if features is None else len(features), 1)
        block = _block_size(len(queries), widest)
        for lo in range(0, len(queries), block):
            hi = min(lo + block, len(queries))
            linear, quadratic = self.sums_at(features, pending, queries[lo:hi])
            for j, kernel in zip(self.columns, self.kernels):
                out = np.multiply(quadratic, 1.0 - kernel.mu, out=gs[j][lo:hi])
                out += (kernel.mu * linear)[:, None]


class OperatorKernel:
    """Common evaluation helpers; concrete families fill in the formulas.

    Subclasses implement ``__call__`` (the d x d matrix, for the oracles
    only), ``scalar_gram``, ``row_expansion``, ``fill_gram`` (the td x td
    block Gram that :meth:`gram` returns) and the closed-form
    ``diag_operator_norm``.

    Both families write ``K(x_i, x_k)`` through one scalar per pair of
    points, ``r_ik`` (Gaussian weight or inner product): ``scalar_gram``
    gives the t x t matrix of them, and ``row_expansion`` reads it as the
    block Gram product ``G vec(coeffs)`` of the batch solves and the norm
    oracle, with G never formed.  ``sums`` holds each term's coefficient
    sum ``sum_k coeffs[i, k]``, which the poly family's all-ones block
    reads and a Gaussian ignores.

    A learner's kernels are evaluated at query points through their
    family's ``bank`` (see :class:`KernelBank`), which the expansion state
    of :mod:`ovklearn.onorma` builds and feeds with checked terms.
    """

    family: str
    mu: float
    dim: int
    bank: type  # the family's KernelBank

    def __call__(self, x, x2) -> np.ndarray:
        """The d x d matrix ``K(x, x2)``, which no library path builds."""
        raise NotImplementedError

    def scalar_gram(self, xs) -> np.ndarray:
        """The t x t matrix of per-pair scalars ``r(x_i, x_k)`` of the (t, p) points."""
        raise NotImplementedError

    def row_expansion(self, scalars, coeffs, sums, scratch=None, out=None) -> np.ndarray:
        """``sum_i K(x_i, x) coeffs_i`` from the (s,) scalars of one x, or of B points from (B, s).

        The result goes into ``out`` ((d,) or (B, d)), and ``None`` allocates.
        A kernel that needs a buffer the size of the scalars writes it into
        ``scratch``: the scalars are overwritten only when ``scratch`` is
        ``scalars``, and ``None`` allocates.  It trusts its arguments.
        """
        raise NotImplementedError

    def gram(self, xs) -> np.ndarray:
        """The td x td block Gram, block (i, k) equal to ``K(x_i, x_k)``, in one array."""
        scalar = self.scalar_gram(xs)
        n = len(scalar) * self.dim
        return self.fill_gram(scalar, np.empty((n, n)))

    def fill_gram(self, scalar, out) -> np.ndarray:
        """Write the block Gram of a t x t ``scalar_gram`` into the td x td ``out``; returns it."""
        raise NotImplementedError

    def diag_operator_norm(self, x) -> float:
        """Spectral norm of K(x, x), in each family's closed form."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        """The constructor arguments as JSON values, ``family`` first."""
        return {"family": self.family, "mu": self.mu, "dim": self.dim}


# eigh splits a repeated eigenvalue by a few ulps of ||J|| (the default J's
# triple 0.9 at d = 4 by 1-7, a rotated diagonal at d = 512 by under 30);
# eigenvalues within this many ulps of ||J|| count as equal
_EIG_GROUP_ULPS = 64


def _eigen_groups(eigvals, norm) -> tuple:
    """``(l_g, slice)`` per run of the ascending ``eigvals`` within tolerance of its first, ``l_g``."""
    tol = _EIG_GROUP_ULPS * np.finfo(float).eps * norm
    groups, lo = [], 0
    for j in range(1, len(eigvals) + 1):
        if j == len(eigvals) or eigvals[j] - eigvals[lo] > tol:
            groups.append((float(eigvals[lo]), slice(lo, j)))
            lo = j
    return tuple(groups)


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
    into d independent t x t systems, and ``structure_groups`` one
    ``(l_g, slice)`` per run of equal eigenvalues, whose systems share a
    factor (see :mod:`ovklearn.batch`): two for the default J, one for
    the identity.
    """

    mu: float
    dim: int
    structure: np.ndarray = field(default=None)

    family = "gaussian"
    bank = _GaussianBank

    def __post_init__(self):
        object.__setattr__(self, "mu", check_positive("gaussian kernel mu", self.mu))
        object.__setattr__(self, "dim", check_int("output dimension", self.dim, 1))
        J = self.structure
        if J is None:
            J = default_structure(self.dim)
        try:
            J = np.array(J, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"structure matrix must be a d x d array of numbers: {exc}") from None
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
        # exp(0) = 1, so K(x, x) == J for every x: its spectral norm is fixed
        norm = float(np.max(np.abs(eigs)))
        object.__setattr__(self, "structure", J)
        object.__setattr__(self, "structure_eig", tuple(pairs))
        object.__setattr__(self, "structure_groups", _eigen_groups(pairs[0], norm))
        object.__setattr__(self, "_diag_norm", norm)

    def __call__(self, x, x2) -> np.ndarray:
        x, x2 = _check_pair(x, x2)
        d = x - x2
        return float(np.exp(-np.dot(d, d) / self.mu)) * self.structure

    def scalar_gram(self, xs) -> np.ndarray:
        # exp of the exponent product over the points' own rows, centred at their mean
        xs = np.asarray(xs, dtype=float)
        t, p = xs.shape
        centre = xs.mean(axis=0)
        rows = np.empty((t, p + 2))
        centred_rows(xs, centre, rows)
        w = centred_exponents(rows, centre, xs, -1.0 / self.mu, np.empty((t, t)))
        # K(x_i, x_k) = J exactly wherever x_i = x_k, the diagonal included,
        # where the product leaves a rounding residue; equal points' entries
        # share one residue, so a diagonal alone would split a duplicate pair.
        # Points are keyed by their bytes, with -0.0 made 0.0, and the t x t
        # mask is built only when two points are equal
        keys = np.add(xs, 0.0, order="C").view(np.dtype((np.void, 8 * p))).ravel()
        distinct, point = np.unique(keys, return_inverse=True)
        if len(distinct) == t:
            np.fill_diagonal(w, 0.0)
        else:
            w[point[:, None] == point[None, :]] = 0.0
        return np.exp(w, out=w)

    def row_expansion(self, scalars, coeffs, sums, scratch=None, out=None) -> np.ndarray:
        # row b is J (w_b C) for any J; one query's floats are those of J @ (w @ C)
        return np.matmul(scalars @ coeffs, self.structure.T, out=out)

    def fill_gram(self, scalar, out) -> np.ndarray:
        # S ⊗ J entry for entry: s_ik J_ab, the floats of np.kron
        t, d = len(scalar), self.dim
        np.multiply(scalar[:, None, :, None], self.structure[:, None, :], out=out.reshape(t, d, t, d))
        return out

    def diag_operator_norm(self, x) -> float:
        return self._diag_norm

    def to_dict(self) -> dict:
        return {**super().to_dict(), "structure": self.structure.tolist()}


@dataclass(frozen=True)
class NonSeparablePoly(OperatorKernel):
    """Inner-product kernel mixing all-output coupling with independence.

    ``K(x, x') = mu * <x, x'> * ONES + (1 - mu) * <x, x'>^2 * I`` with
    mu in [0, 1].  mu = 1 gives the fully coupled linear kernel, mu = 0
    the uncoupled quadratic one.

    The coupled part ``ONES @ c_i`` is ``sum(c_i) * ones``, so
    ``row_expansion`` reads each term's coefficient sum, which its caller
    reduces once, and a learner's bank folds it into its feature sums.
    """

    mu: float
    dim: int

    family = "poly"
    bank = _PolyBank

    def __post_init__(self):
        object.__setattr__(self, "mu", check_real("poly kernel mu", self.mu))
        object.__setattr__(self, "dim", check_int("output dimension", self.dim, 1))
        if not 0.0 <= self.mu <= 1.0:
            raise ConfigError(f"poly kernel requires mu in [0, 1], got {self.mu}")

    def __call__(self, x, x2) -> np.ndarray:
        x, x2 = _check_pair(x, x2)
        dot = float(np.dot(x, x2))
        d = self.dim
        return self.mu * dot * np.ones((d, d)) + (1.0 - self.mu) * dot * dot * np.eye(d)

    def scalar_gram(self, xs) -> np.ndarray:
        # the inner products: a matrix times its own transpose, which numpy
        # computes bitwise symmetric
        xs = np.asarray(xs, dtype=float)
        return xs @ xs.T

    def row_expansion(self, scalars, coeffs, sums, scratch=None, out=None) -> np.ndarray:
        # the coupled part first: the squares may overwrite the scalars
        coupled = self.mu * (scalars @ sums)
        squares = np.multiply(scalars, scalars, out=scratch)
        out = np.multiply(squares @ coeffs, 1.0 - self.mu, out=out)
        out += coupled[..., None]
        return out

    def fill_gram(self, p, out) -> np.ndarray:
        # mu p into every entry of each block and (1 - mu) p^2 onto its diagonal:
        # entry for entry the floats of mu P ⊗ ONES + (1 - mu) (P∘P) ⊗ I
        t, d = len(p), self.dim
        blocks = out.reshape(t, d, t, d)
        np.multiply(p[:, None, :, None], self.mu, out=blocks)
        squares = (1.0 - self.mu) * p * p
        for a in range(d):
            blocks[:, a, :, a] += squares
        return out

    def diag_operator_norm(self, x) -> float:
        # eigenvalues mu d q + (1 - mu) q^2 (along ones) and (1 - mu) q^2, both >= 0
        q = float(np.dot(x, x))
        return self.mu * self.dim * q + (1.0 - self.mu) * q * q


def operator_norm_bound(kernel: OperatorKernel, xs) -> float:
    """Empirical bound kappa^2 = max over the dataset of ||K(x, x)||_op.

    This is a lower bound of the true supremum over the whole input space;
    reports quoting it should flag the substitution.
    """
    xs = np.asarray(xs, dtype=float)
    if len(xs) == 0:
        raise ConfigError("operator_norm_bound needs a non-empty dataset")
    return max(kernel.diag_operator_norm(x) for x in xs)


# every family by the name its specs and checkpoints carry
FAMILIES = {cls.family: cls for cls in (SeparableGaussian, NonSeparablePoly)}


def kernel_from_dict(spec) -> OperatorKernel:
    """Rebuild a kernel from its ``to_dict`` dict; any other spec raises ``ConfigError``."""
    if not isinstance(spec, dict):
        raise ConfigError(f"kernel spec must be a dict, got {spec!r}")
    family = spec.get("family")
    cls = FAMILIES.get(family) if isinstance(family, str) else None
    if cls is None:
        raise ConfigError(f"unknown kernel family {family!r}")
    missing = [f.name for f in fields(cls) if f.name not in spec and f.default is MISSING]
    if missing:
        raise ConfigError(f"{family} kernel spec lacks {', '.join(missing)}")
    return cls(**{f.name: spec[f.name] for f in fields(cls) if f.name in spec})
