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
place in the learner's kernel order and keeps its family's cache of the
stored terms.  A bank is the only code that evaluates an expansion
``sum_i K(x_i, x) c_i`` at query points, one point or a block of rows.  A
Gaussian bank keeps each term's centred row, so its point sweep is one
BLAS product, and does the work its members share once per distinct
``mu`` or structure matrix (:class:`_GaussianBank`).  A poly bank
evaluates through the kernel's finite feature map, from the feature sums
``F = [v; M_1; ...; M_d]`` of its folded terms plus a sweep of a few
pending rows (:class:`_PolyBank`).

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

# a poly bank's unfolded terms, and its dropped terms that are still folded,
# join its feature sums in one product once this many have gathered
_FOLD = 64

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

    A bank is its family's step code, and it owns its family's cache of the
    expansion state's terms (:class:`ovklearn.onorma._ExpansionState`),
    kept in the state's buffer rows.  It reads the terms from the state,
    shares the work its members have in common and writes member j's result
    at ``columns[j]`` of a list or array in the learner's kernel order.  A
    step calls each bank twice:

    * ``expand(state, x, gs)``, before the loss, writes every
      ``scale * g_j(x)`` into ``gs`` and returns ``kept``, its one sweep;
    * ``norm_terms(kept, x_sq, a, a_sq, quads)``, after the loss, writes
      every ``<K_j(x, x) a, a>`` into ``quads`` from the step's
      ``x_sq = <x, x>`` and ``a_sq = <a, a>``.  These read x and a alone,
      so the shrink between the calls changes no result.

    ``expand_rows(state, queries, gs)`` writes every
    ``sum_i K_j(x_i, q) raw_i`` at the (n, p) query rows into the (n, d)
    ``gs[j]``.  The queries go in blocks whose rows take about
    ``_BLOCK_BYTES`` (:func:`_block_size`), so no n x s array is formed, and
    each block shares its members' work as the step does.

    The state raises an event whenever its terms change, and the bank keeps
    its cache in step:

    * ``stored(state, kept, x, raw, quads)``: a term came in at the last
      live row, with raw coefficient ``raw``; ``kept`` and ``quads`` are the
      step's, and ``kept`` is None when the support was empty;
    * ``dropped(state, k, x, raw, norms_sq)``: the oldest term, at row k,
      has left; the bank subtracts its share of each member's
      ``||g_j||^2`` from ``norms_sq[j]``;
    * ``restored(state)``: the state holds saved terms at scale 1, in
      buffers of as many rows;
    * ``moved(state, old, cap, x)``: the live rows ``old`` moved to the
      first rows of fresh buffers of ``cap`` rows, before x comes in;
    * ``rescaled(state, scale)``: the raw coefficients were multiplied by
      ``scale``, the old lazy scale, which is now 1.
    """

    def __init__(self, kernels, columns):
        self.kernels = tuple(kernels)
        self.columns = tuple(columns)


def _block_size(n, width):
    """The row count B of a block of queries whose (B, width) rows take about ``_BLOCK_BYTES``."""
    return max(1, min(n, _BLOCK_BYTES // (8 * width)))  # float64 rows


class _GaussianBank(KernelBank):
    """Gaussians ``exp(-||x_i - x||^2 / mu) J``: one product for the distances, J products per J.

    The bank keeps each stored term's centred row
    ``R[i] = [x_i - c, n_i, 1]``, ``n_i = ||x_i - c||^2``
    (:func:`centred_rows`), around c, the mean of the live support (the
    first term's point when none is live), with ``_peak`` bounding the live
    rows' norms.  A stored term's row is written as it comes in; a restore
    and each buffer move centre every live row afresh, so a drifting
    truncated stream is re-centred at the cost of the copy the move makes
    anyway.  The step's point sweep (:meth:`distances`) is one BLAS product
    of the rows with ``[-2 u, 1, ||u||^2]``, ``u = x - c``, which gives
    every ``||x_i - x||^2 = n_i + ||u||^2 - 2 <x_i - c, u>``, clamped at 0,
    within a small multiple of ``eps (n_i + ||u||^2)`` of the exact one.
    Past a centred norm of 2^1000 the rows are centred at x and scaled by a
    power of two, so a distance may overflow to inf (kernel value 0) but is
    never NaN.

    Under truncation (the state's ``cross_terms``) term i also keeps, for
    member c of the bank, the raw sums
    ``C[i, c] = sum_{k > i} <K_c(x_i, x_k) a_k, a_i>`` over the later terms
    and ``Q[i, c] = <K_c(x_i, x_i) a_i, a_i>``.  Terms leave in the order
    they came, so every term later than the oldest is still stored, and the
    oldest term's share of ``||g_c||^2`` is ``scale^2 (2 C[i, c] + Q[i, c])``:
    a drop costs O(1) per member and no kernel evaluation.  A stored term
    adds its products with the stored terms, read from the step's kept
    sweep, to their C; a fold of the lazy scale rescales C and Q, which are
    bilinear in the raw coefficients; a restore rebuilds them by replaying
    each term's store over the terms before it, in O(s^2).

    ``scalars`` divides the distances by the column of the distinct ``-mu``
    into one (u, s) buffer and takes ``exp`` in place, so members with
    equal ``mu`` share a row: member j reads row ``row_index[j]``.  The
    sweep keeps those rows and the raw coefficients for the cross sums.
    Members with equal ``mu`` share one :meth:`weighted_sum` ``w C``, and
    members whose J are equal bit for bit share :meth:`quad` and
    :meth:`cross_vector`, which are scaled by each member's scalars.  Given
    the distances, every result has the bits of the member's own one-point
    forms (``exp(row / -mu)``, ``J (w C)``, ``<J a, a>``, ``w (C J a)``):
    IEEE division and ``exp`` are elementwise.

    A block of query rows (:meth:`expand_rows`) reads the same kept rows
    and divides nothing: :func:`centred_exponents` scales each query's
    factor by ``-1 / mu`` of the last member, whose exponents the product
    gives, and every other distinct ``mu`` multiplies them by
    ``mu_last / mu``.  Each distinct ``mu`` then takes one ``exp`` and one
    :meth:`weighted_sum`, and each member one ``J`` product, as in
    :meth:`expand`.  These exponents round differently from the quotients
    of the point path, by a few ulps.
    """

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

    def centred(self, state) -> tuple:
        """The live centred rows, their centre and the bound on their norms."""
        return self._R[state.start : state.end], self._centre, self._peak

    def distances(self, support, rows, x) -> np.ndarray:
        """``||x_i - x||^2`` for every term of the support: one product with their centred rows."""
        centre = self._centre
        p = len(centre)
        v = np.empty(p + 2)
        u = np.subtract(x, centre, out=v[:p])
        uu = float(u.dot(u))
        e = 0
        if not (uu <= _SAFE_NORM and self._peak <= _SAFE_NORM):
            # out of range: the terms centred at x itself, so u = 0 and each row's
            # norm is its distance, after an exact scaling by 2^-e that brings
            # every entry under 2^480, so no square or sum overflows
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

    def sweep(self, support, raw, rows, x) -> tuple:
        # the distances, the same for every mu and J, as scalars; with the raw terms
        return self.scalars(self.distances(support, rows, x)), raw

    def scalars(self, row) -> list:
        # one row of row / -mu per distinct mu, which rounds as each member's scalars does
        w = row / self._negmu
        np.exp(w, out=w)
        return [w] if w.ndim == 1 else list(w)

    def expand(self, state, x, gs) -> tuple:
        support, raw = state.terms()
        kept = scalars, raw = self.sweep(support, raw, self._R[state.start : state.end], x)
        sums = [self.weighted_sum(w, raw) for w in scalars]
        scale = state.scale
        for _, structure_t, members in self._structures:
            for j, i in members:
                # the floats of J (w C), as each member's row_expansion gives them
                gs[j] = scale * sums[i].dot(structure_t)
        return kept

    def expand_rows(self, state, queries, gs) -> None:
        raw, (rows, centre, _) = state.raw_coeffs, self.centred(state)
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

    def norm_terms(self, kept, x_sq, a, a_sq, quads) -> None:
        for structure, _, members in self._structures:
            quad = self.quad(structure, a)
            for j, _ in members:
                quads[j] = quad

    def stored(self, state, kept, x, raw, quads) -> None:
        self._store(state.start, state.end - 1, kept, x, raw, quads, state.scale * state.scale)

    def _store(self, start, i, kept, x, raw, quads, s2) -> None:
        """Write term i's centred row and, under truncation, its cross sums with the terms ``[start, i)``."""
        if self._C is not None:
            if kept is not None:
                crosses, (scalars, coeffs) = self._C[start:i], kept
                for structure, crossers in self._crossers:
                    v = self.cross_vector(structure, coeffs, raw)
                    for c, r in crossers:
                        column = crosses[:, c]
                        column += scalars[r] * v
            self._C[i] = 0.0
            self._Q[i] = [quads[j] / s2 for j in self.columns]
        norm = centred_row(x, self._centre, self._R[i])
        if norm > self._peak:
            self._peak = float(norm)

    def dropped(self, state, k, x, raw, norms_sq) -> None:
        # Python floats beat array calls for a few kernels; each operation is
        # the elementwise one, in the same order, so the bits are the same
        s2 = state.scale * state.scale
        c, q = self._C[k].tolist(), self._Q[k].tolist()
        for m, j in enumerate(self.columns):
            norms_sq[j] -= s2 * (2.0 * c[m] + q[m])

    def restored(self, state) -> None:
        n, p, m = len(state), state.input_dim or 0, len(self.kernels)
        self._C = self._Q = None
        if state.cross_terms:
            self._C, self._Q = np.empty((n, m)), np.empty((n, m))
        self._R = np.empty((n, p + 2))
        self._centre_rows(state, np.zeros(p))
        if self._C is not None:
            # each term's store over the terms before it, as when it came in at scale 1
            support, raw = state.terms()
            quads = {}
            for i in range(n):
                x, a = support[i], raw[i]
                kept = self.sweep(support[:i], raw[:i], self._R[:i], x)
                self.norm_terms(kept, None, a, None, quads)
                self._store(0, i, kept, x, a, quads, 1.0)

    def moved(self, state, old, cap, x) -> None:
        if self._C is not None:
            for name in ("_C", "_Q"):
                new = np.empty((cap, len(self.kernels)))
                new[: len(state)] = getattr(self, name)[old]
                setattr(self, name, new)
        self._R = np.empty((cap, (state.input_dim or 0) + 2))
        self._centre_rows(state, x)

    def rescaled(self, state, scale) -> None:
        if self._C is not None:
            # C and Q are bilinear in the raw coefficients
            live = slice(state.start, state.end)
            self._C[live] *= scale * scale
            self._Q[live] *= scale * scale

    def _centre_rows(self, state, empty) -> None:
        """Recompute every live centred row and the bound on their norms.

        The centre is the live support's mean, or the point ``empty`` (the
        one about to come in) when no term is live.
        """
        support = state.support
        self._centre = support.mean(axis=0) if len(support) else np.array(empty, dtype=float)
        self._peak = centred_rows(support, self._centre, self._R[state.start : state.end])

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
    (:meth:`sums_at`).  A query reads ``F q`` in O(p^2 d)
    (:meth:`read_features`) and sweeps the pending rows in O(B (p + 2d))
    (:meth:`plus_pending`), whatever the support size.  One point (the
    step's :meth:`sweep`) and a block of rows (:meth:`expand_rows`) take the
    same path, so a poly step costs O(p^2 d + B (p + 2d)).

    The bank keeps the feature sums ``F = [v; M_1; ...; M_d]``
    (:meth:`feature_sums`) of the folded terms, the buffer rows
    ``[lo, hi)``, in raw-coefficient units, and fewer than ``_FOLD`` (B)
    pending rows ``(PX, PA)``: copies of the terms stored since, and of the
    folded terms dropped since with negated coefficients, so the stored
    terms' expansion is F's reading plus the pending rows'.  The B-th
    pending row folds them all into F in one product, and then ``[lo, hi)``
    is the live range.  A restore, each buffer move and each fold of the
    lazy scale sum F afresh over the live terms, so rounding drifts for one
    buffer's lifetime at most; under B live terms nothing is folded and
    every live term is pending.  ``lo <= start <= hi <= end`` always holds,
    and F is None while nothing is folded.

    The bank keeps no cross sums: a dropped term's share of ``||g_j||^2``,
    ``2 <g_j(x_i), a_i> - <K_j(x_i, x_i) a_i, a_i>``, is read in raw units
    from one evaluation at its point (:meth:`drop_shares`), and under
    truncation the bank takes F's reading at the next B folded terms to
    leave in one product whenever F changes (``_ahead``).  The dropped term
    then joins the pending rows negated, or, if it was itself pending, every
    folded term has left and the live terms become the pending rows.
    """

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

    def pending(self) -> tuple:
        """The ``(points, raw)`` views of the pending rows."""
        n = self._pending
        return self._PX[:n], self._PA[:n]

    def sums_at(self, q) -> tuple:
        """``(linear, quadratic)`` over the stored terms in raw units, at one point (p,) or a block (B, p).

        ``F``'s reading (:meth:`read_features`) plus the pending rows' (:meth:`plus_pending`).
        """
        folded = None if self._F is None else self.read_features(self._F, q)
        return self.plus_pending(folded, self.pending(), q)

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

    def sweep(self, x) -> tuple:
        # the step's one evaluation at x; norm_terms reads nothing of it
        return self.sums_at(x)

    def expand(self, state, x, gs) -> tuple:
        kept = linear, quadratic = self.sweep(x)
        scale = state.scale
        for j, kernel in zip(self.columns, self.kernels):
            gs[j] = scale * ((1.0 - kernel.mu) * quadratic + kernel.mu * linear)
        return kept

    def norm_terms(self, kept, x_sq, a, a_sq, quads) -> None:
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

    def expand_rows(self, state, queries, gs) -> None:
        widest = max(self._pending, 0 if self._F is None else len(self._F), 1)
        block = _block_size(len(queries), widest)
        for lo in range(0, len(queries), block):
            hi = min(lo + block, len(queries))
            linear, quadratic = self.sums_at(queries[lo:hi])
            for j, kernel in zip(self.columns, self.kernels):
                out = np.multiply(quadratic, 1.0 - kernel.mu, out=gs[j][lo:hi])
                out += (kernel.mu * linear)[:, None]

    def stored(self, state, kept, x, raw, quads) -> None:
        self._push(state, x, raw)

    def dropped(self, state, k, x, raw, norms_sq) -> None:
        # read while term k is still held; a folded term leaves F as a negated
        # pending row, and a pending one means every folded term has left
        folded = None
        if k < self._hi:
            first, linear, quadratic = self._ahead
            folded = linear[k - first], quadratic[k - first]
        shares = {}
        self.drop_shares(folded, self.pending(), x, raw, shares)
        s2 = state.scale * state.scale
        for j in self.columns:
            norms_sq[j] -= s2 * shares[j]
        if k < self._hi:
            self._push(state, x, raw, dropped=True)
        else:
            self._F, self._lo, self._hi = None, k + 1, k + 1
            self._repend(state)

    def restored(self, state, *_) -> None:
        """Sum the feature sums afresh over every live term, or leave all pending under ``_FOLD``.

        A move and a fold of the lazy scale do the same: re-summed, not
        scaled, as the dropped terms still folded were not rescaled.
        """
        self._PX = np.empty((_FOLD, state.input_dim or 0))
        self._PA = np.empty((_FOLD, state.dim))
        self._lo = self._hi = state.start
        self._F, self._pending, self._ahead = None, 0, None
        if len(state) >= _FOLD:
            self._F = self.feature_sums(state.support, state.raw_coeffs)
            self._hi = state.end
            self._read_ahead(state)
        else:
            self._repend(state)

    moved = rescaled = restored

    def _read_ahead(self, state) -> None:
        """Read the new feature sums at the next ``_FOLD`` folded terms to leave, in one product.

        Each drop pushes a pending row, so no more than ``_FOLD`` terms leave
        before the sums change again.  Only a truncated state drops terms.
        """
        if state.cross_terms:
            points = state.support[: min(_FOLD, self._hi - state.start)]
            linear, quadratic = self.read_features(self._F, points)
            self._ahead = state.start, linear.tolist(), quadratic

    def _repend(self, state) -> None:
        # every folded term has left: the live terms, fewer than _FOLD, are all pending
        n = self._pending = len(state)
        self._PX[:n] = state.support
        self._PA[:n] = state.raw_coeffs

    def _push(self, state, x, raw, dropped=False) -> None:
        """Add a pending row, with the raw coefficients negated for a ``dropped`` term.

        ``_FOLD`` pending rows fold into the feature sums in one product, and
        ``[lo, hi)`` becomes the live range, ``lo <= start <= hi <= end``.
        """
        n = self._pending
        self._PX[n] = x
        if dropped:
            np.negative(raw, out=self._PA[n])
        else:
            self._PA[n] = raw
        self._pending = n = n + 1
        if n == len(self._PX):
            sums = self.feature_sums(self._PX, self._PA)
            if self._F is None:
                self._F = sums
            else:
                self._F += sums
            self._pending = 0
            self._lo, self._hi = state.start, state.end
            self._read_ahead(state)


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
        # every evaluation divides by mu or scales by -1 / mu; a subnormal mu overflows both
        if not math.isfinite(1.0 / self.mu):
            raise ConfigError(f"gaussian kernel mu must have a finite reciprocal, got {self.mu!r}")
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

    For a Gaussian this is the supremum over the whole input space, ``||J||``
    at every x; for a poly kernel it is a lower bound of it, which reports
    quoting it flag (``bounds.KAPPA_NOTE``).
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
