"""Online stochastic gradient learning in an operator-valued-kernel RKHS.

The hypothesis after t steps is the kernel expansion
``f_t = sum_i K(x_i, .) a_i`` over the observed inputs.  Each step

1. predicts ``f_{t-1}(x_t)`` (before seeing ``y_t``'s effect),
2. appends the new coefficient ``a_t = -eta_t * grad l(z, y_t)`` at
   ``z = f_{t-1}(x_t)``,
3. shrinks all older coefficients by ``1 - eta_t * lambda``,
4. optionally drops terms older than the truncation window.

The shrink is applied lazily through a single scale factor that folds
into the stored coefficients when it underflows, so no step rewrites the
coefficients.  With s stored terms in R^p and outputs in R^d, a Gaussian
bank sweeps the support, O(s p), and maps the row to its scalars, O(s)
per bandwidth; that gives each kernel's prediction, O(s d), and, under
truncation, the new term's cross products with every stored term, O(s d)
per structure matrix plus O(s) per kernel.  A poly bank steps in the
kernel's feature space: it reads the feature sums kept with its folded
terms and sweeps at most B pending rows, O(p^2 d + B (p + 2d)) whatever
s is.  Each family's kernels are evaluated by one bank, the family's step
code (:class:`ovklearn.kernels.KernelBank`), which writes their results
in kernel order.  A step calls each bank twice:
:meth:`_ExpansionState.expand`, before the loss, evaluates and predicts
and keeps the sweep, and :meth:`_ExpansionState.update`, after it, writes
the new coefficient's quadratic forms and the Gaussian cross products
from that kept sweep, the step's ``<x, x>`` and ``<a, a>`` and the live
views of the terms, so no product is formed twice.  A Gaussian bank reads
each term's centred row, so its sweep is one BLAS product with no s x p
elementwise pass.  The squared RKHS norms are tracked by an O(d^2)
recursion on Python floats.  Under truncation each stored term also keeps
its Gaussian cross sums with the later terms, so
:meth:`_ExpansionState.drop_expired` downdates a Gaussian norm exactly for
a dropped term in O(1) per kernel, with no kernel evaluation; a poly norm
is downdated from one evaluation at the dropped term's point, whose
reading of the feature sums is taken for B terms at a time.

:class:`ONORMA` is the multi-kernel learner of :mod:`ovklearn.monorma`
over one kernel: both are :class:`_OnlineLearner`, which runs one
coefficient sequence over a weighted list of kernels, and one kernel's
weight is pinned at exactly 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, DataError, DimensionMismatch, NumericsError
from .exceptions import check_examples, check_finite, check_int, check_positive, check_real
from .kernels import centred_row, centred_rows
from .losses import SquaredLoss

__all__ = ["ONORMA", "StepResult", "TruncationSchedule", "truncation_window"]

# fold the lazy scale into stored coefficients below this value
RENORM_THRESHOLD = 1e-6

_INITIAL_CAPACITY = 64

# a poly bank's unfolded terms, and its dropped terms that are still folded,
# join its feature sums in one product once this many have gathered
_FOLD = 64


def truncation_window(t: int, t0: int, epsilon: float) -> int:
    """``TruncationSchedule(t0, epsilon).window(t)``, after checking that t is an int >= 0."""
    return TruncationSchedule(t0, epsilon).window(check_int("step index", t, 0))


@dataclass(frozen=True)
class TruncationSchedule:
    """Truncation parameters, checked once: window t0 >= 1 and growth offset epsilon in (0, 1/2)."""

    t0: int = 100
    epsilon: float = 0.25

    def __post_init__(self):
        object.__setattr__(self, "t0", check_int("truncation t0", self.t0, 1))
        object.__setattr__(self, "epsilon", check_real("truncation epsilon", self.epsilon))
        if not 0.0 < self.epsilon < 0.5:
            raise ConfigError(f"truncation epsilon must be in (0, 1/2), got {self.epsilon}")

    def window(self, t: int) -> int:
        """Number of most recent expansion terms kept at step t >= 0.

        ``min(t, t0)`` plus, once t exceeds t0, ``floor((t - t0)^(1/2 + epsilon))``
        extra terms.  The window grows sublinearly, which is what makes the
        truncated per-step cost sublinear in t.  A step's call checks nothing.
        """
        if t <= self.t0:
            return t
        x = (t - self.t0) ** (0.5 + self.epsilon)
        # pow may land one ulp under an exact integer; nudge before flooring
        return self.t0 + math.floor(x + 1e-9)


@dataclass
class StepResult:
    """Outcome of one online step, recorded before the model update.

    ``instantaneous_risk`` is the loss at the pre-update prediction plus
    ``(lambda / 2) * ||f||^2`` for the pre-update hypothesis.
    """

    prediction: np.ndarray
    loss: float
    instantaneous_risk: float
    new_coeff_norm: float


class _ExpansionState:
    """Support points and raw coefficients with a shared lazy scale.

    Every kernel in ``kernels`` reads the same terms, through ``banks``:
    one :class:`~ovklearn.kernels.KernelBank` per family, in the order the
    families first appear.  A bank sweeps the terms once, shares the work
    its kernels have in common and writes each kernel's result at that
    kernel's index, so the state hands every bank the same kernel-ordered
    list or array and never gathers.  Each call takes the live views of
    the terms once (:meth:`terms`) and hands them to every bank.  A step
    makes two: :meth:`expand` before the loss, whose kept sweeps and views
    :meth:`update` reads after it.
    :meth:`update` (or :meth:`restore`, for a whole saved support) is the
    only way a term comes in and :meth:`drop_expired` the only way one
    leaves: terms are appended at the back and dropped from the front, and
    full buffers move the live terms into fresh ones of twice as many rows
    (at least 64), so a truncated support keeps at most twice its peak.
    Effective coefficients are ``scale * raw``.

    When a bank ``reads_features`` (the poly family's), the state keeps
    its feature sums ``F = [v; M_1; ...; M_d]``
    (:meth:`~ovklearn.kernels._PolyBank.feature_sums`) of the folded terms,
    the buffer rows ``[lo, hi)``, in raw-coefficient units, and fewer than
    ``_FOLD`` (B) pending rows ``(PX, PA)``: copies of the terms stored
    since, and of the folded terms dropped since with negated coefficients,
    so the stored terms' expansion is F's reading plus the pending rows'.
    The B-th pending row folds them all into F in one product, and then
    ``[lo, hi)`` is the live range.  :meth:`restore`, each buffer move and
    each fold of the lazy scale sum F afresh over the live terms, so
    rounding drifts for one buffer's lifetime at most; under B live terms
    nothing is folded and every live term is pending.  ``lo <= start <=
    hi <= end`` always holds, and F is None while nothing is folded.  Under
    truncation the state also keeps F's reading at the next B folded
    terms to leave, taken in one product whenever F changes (``_ahead``).

    When a bank ``reads_centred`` (the Gaussian family's), term i also
    keeps its centred row ``R[i] = [x_i - c, ||x_i - c||^2, 1]``
    (:func:`~ovklearn.kernels.centred_rows`), from which one product gives
    every squared distance to a point.  :meth:`update` writes the row of a
    term that comes in, and :meth:`restore` and each buffer move recompute
    every live row around c, the mean of the live support (the first
    term's point when none is live), so a drifting truncated stream is
    re-centred at the cost of the copy the move makes anyway.  ``_peak``
    bounds the live rows' norms.

    With ``cross_terms`` on, term i also keeps, for each Gaussian kernel j
    (column c of the bank that ``keeps_crosses``), the raw sums
    ``C[i, c] = sum_{k > i} <K_j(x_i, x_k) a_k, a_i>`` over the later terms
    and ``Q[i, c] = <K_j(x_i, x_i) a_i, a_i>``.  Terms leave in the order
    they came, so every term later than the oldest is still stored and the
    oldest term's share of ``||g_j||^2`` is ``scale^2 (2 C[i, c] + Q[i, c])``.
    A poly kernel keeps none: the same share is
    ``2 <g_j(x_i), a_i> - <K_j(x_i, x_i) a_i, a_i>``, read from its features.
    """

    # the buffers a move copies; the centred rows R and the feature sums F are recomputed instead
    _BUFFERS = ("_X", "_A", "_T", "_C", "_Q")

    def __init__(self, kernels, cross_terms: bool = False):
        self.kernels = tuple(kernels)
        self.dim = self.kernels[0].dim
        self.cross_terms = cross_terms
        columns = {}
        for j, kernel in enumerate(self.kernels):
            columns.setdefault(kernel.bank, []).append(j)
        self.banks = tuple(bank([self.kernels[j] for j in js], js) for bank, js in columns.items())
        # one bank per family: at most one keeps cross sums and one reads feature sums
        self._crossing = next((bank for bank in self.banks if bank.keeps_crosses), None)
        self._featured = next((bank for bank in self.banks if bank.reads_features), None)
        self.keeps_centred = any(bank.reads_centred for bank in self.banks)
        self.restore((), (), (), None)

    def __len__(self) -> int:
        return self.end - self.start

    def check_input(self, x) -> tuple:
        """The point as a float array, with its ``<x, x>`` as a Python float."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise DimensionMismatch("input point", x.ndim, 1)
        x_sq = float(x.dot(x))
        # a finite squared norm proves every entry finite; overflow alone is no error
        if not math.isfinite(x_sq) and not np.all(np.isfinite(x)):
            raise DataError(f"non-finite input point {x}")
        if self.input_dim is not None and x.shape[0] != self.input_dim:
            raise DimensionMismatch("input point", x.shape[0], self.input_dim)
        return x, x_sq

    def fix_width(self, p: int) -> None:
        """Set the input width of an empty state; the first committed step calls this."""
        self.restore((), (), (), p)

    def terms(self) -> tuple:
        """The live views ``(support, raw_coeffs, features, centred)`` that every bank reads.

        ``features`` is ``(F, pending)``: the feature sums of the folded
        terms (None when none are folded) and the ``(points, raw)`` views of
        the pending rows, the live terms not yet folded and, with their raw
        coefficients negated, the dropped terms still folded.  It is None
        unless a bank reads features.
        ``centred``, the centred rows with their centre and the bound on
        their norms, is None unless a bank reads centred rows.
        """
        live = slice(self.start, self.end)
        features = None
        if self._featured is not None:
            n = self._pending
            features = self._F, (self._PX[:n], self._PA[:n])
        centred = None if self._R is None else (self._R[live], self._centre, self._peak)
        return self._X[live], self._A[live], features, centred

    @property
    def support(self) -> np.ndarray:
        return self._X[self.start : self.end]

    @property
    def raw_coeffs(self) -> np.ndarray:
        return self._A[self.start : self.end]

    @property
    def coeffs(self) -> np.ndarray:
        """Effective coefficients (scale applied)."""
        return self.scale * self.raw_coeffs

    @property
    def times(self) -> np.ndarray:
        return self._T[self.start : self.end]

    def expand(self, x):
        """Every ``g_j(x)``, in kernel order, and what :meth:`update` reads.

        One sweep of the support per family.  Returns ``(kept, gs)``, where
        ``kept`` holds each bank's sweep, or ``(None, zeros)`` on an empty
        support.
        """
        if self.end == self.start:
            return None, [np.zeros(self.dim) for _ in self.kernels]
        terms, gs = self.terms(), [None] * len(self.kernels)
        return [bank.expand(terms, self.scale, x, gs) for bank in self.banks], gs

    def update(self, kept, x, x_sq, a, a_sq, t: int, store: bool) -> list:
        """The step after :meth:`decay`: every ``<K_j(x, x) a, a>``, in kernel order.

        ``kept`` is :meth:`expand`'s at x; ``x_sq`` and ``a_sq`` are
        ``<x, x>`` and ``<a, a>``.  With ``store``, term x comes in at time
        t with effective coefficient a; under cross terms its products go
        into the C of the stored terms, and its quads over ``scale^2`` are
        its Q.  One call per bank.
        """
        quads, cross = [None] * len(self.kernels), None
        if store:
            if self.end == len(self._T):
                # kept's views go on reading the old buffers, whose live rows were copied
                self._compact_or_grow(x)
            i = self.end
            raw = np.divide(a, self.scale, out=self._A[i])
            if self._C is not None and kept:
                cross = (self._C[self.start : i], raw)
        for bank, k in zip(self.banks, kept or (None,) * len(self.banks)):
            bank.norm_terms(k, x_sq, a, a_sq, quads, cross)
        if store:
            self._X[i] = x
            if self._R is not None:
                norm = centred_row(x, self._centre, self._R[i])
                if norm > self._peak:
                    self._peak = float(norm)
            self._T[i] = t
            if self._C is not None:
                self._C[i] = 0.0
                s2 = self.scale * self.scale
                self._Q[i] = [quads[j] / s2 for j in self._crossing.columns]
            self.end = i + 1
            if self._featured is not None:
                self._push(x, raw)
        return quads

    def evaluate(self, x) -> list:
        """Each kernel's ``g_j`` at one point or at each of n rows; zeros on an empty support.

        The one query path of every model: checks the shape, the input
        width once it is fixed and finiteness, then runs :meth:`expand` or
        :meth:`expand_rows`.  Each output is checked once: a kernel value
        or an expansion that overflows (inputs near 1e160) raises
        NumericsError instead of returning NaN or inf.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            gs = self.expand(self.check_input(x)[0])[1]
        else:
            if x.ndim != 2:
                raise DimensionMismatch("query points", x.shape, "(n, p)")
            if self.input_dim is not None and x.shape[1] != self.input_dim:
                raise DimensionMismatch("query points", x.shape[1], self.input_dim)
            check_finite("query rows", x)
            gs = self.expand_rows(x)
        for g in gs:
            if not np.all(np.isfinite(g)):
                raise NumericsError("non-finite prediction: a kernel value or the expansion overflowed")
        return gs

    def expand_rows(self, queries) -> list:
        """``g_j`` at each of the (n, p) queries, with no n x s array.

        Each family's bank writes its members' outputs in blocks of queries
        (``expand_rows``, see :class:`~ovklearn.kernels.KernelBank`), and
        the lazy scale multiplies them once.
        """
        n = len(queries)
        gs = [np.zeros((n, self.dim)) for _ in self.kernels]
        if len(self) == 0:
            return gs
        terms = self.terms()
        for bank in self.banks:
            bank.expand_rows(terms, queries, gs)
        for g in gs:
            g *= self.scale
        return gs

    def _compact_or_grow(self, x) -> None:
        # as many free rows as live terms: each copy is paid for by the appends that fill them
        n = len(self)
        cap = max(2 * n, _INITIAL_CAPACITY)
        live = slice(self.start, self.end)
        for name in self._BUFFERS:
            old = getattr(self, name)
            if old is not None:
                new = np.empty((cap,) + old.shape[1:], dtype=old.dtype)
                new[:n] = old[live]
                setattr(self, name, new)
        self.start = 0
        self.end = n
        if self._R is not None:
            self._R = np.empty((cap, self.input_dim + 2))
            self._centre_rows(x)
        if self._featured is not None:
            self._sum_features()

    def _centre_rows(self, empty) -> None:
        """Recompute every live centred row and the bound on their norms.

        The centre is the live support's mean, or the point ``empty`` (the
        one about to come in) when no term is live.
        """
        support = self.support
        self._centre = support.mean(axis=0) if len(support) else np.array(empty, dtype=float)
        self._peak = centred_rows(support, self._centre, self._R[self.start : self.end])

    def _sum_features(self) -> None:
        """Sum the feature sums afresh over every live term, or leave all pending under ``_FOLD``."""
        self._PX = np.empty((_FOLD, self.input_dim or 0))
        self._PA = np.empty((_FOLD, self.dim))
        self._lo = self._hi = self.start
        self._F, self._pending, self._ahead = None, 0, None
        if len(self) >= _FOLD:
            self._F = self._featured.feature_sums(self.support, self.raw_coeffs)
            self._hi = self.end
            self._read_ahead()
        else:
            self._repend()

    def _read_ahead(self) -> None:
        """Read the new feature sums at the next ``_FOLD`` folded terms to leave, in one product.

        Each drop pushes a pending row, so no more than ``_FOLD`` terms leave
        before the sums change again.  Only a truncated state drops terms.
        """
        if self.cross_terms:
            points = self._X[self.start : min(self.start + _FOLD, self._hi)]
            linear, quadratic = self._featured.read_features(self._F, points)
            self._ahead = self.start, linear.tolist(), quadratic

    def _repend(self) -> None:
        # every folded term has left: the live terms, fewer than _FOLD, are all pending
        n = self._pending = len(self)
        self._PX[:n] = self.support
        self._PA[:n] = self.raw_coeffs

    def _push(self, x, raw, dropped=False) -> None:
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
            sums = self._featured.feature_sums(self._PX, self._PA)
            if self._F is None:
                self._F = sums
            else:
                self._F += sums
            self._pending = 0
            self._lo, self._hi = self.start, self.end
            self._read_ahead()

    def decay(self, factor: float) -> None:
        self.scale *= factor
        if self.scale < RENORM_THRESHOLD:
            live = slice(self.start, self.end)
            self._A[live] *= self.scale
            if self._C is not None:
                # C and Q are bilinear in the raw coefficients
                self._C[live] *= self.scale * self.scale
                self._Q[live] *= self.scale * self.scale
            self.scale = 1.0
            if self._featured is not None:
                # re-summed, not scaled: the dropped terms still folded were not rescaled
                self._sum_features()

    def restore(self, support, coeffs, times, input_dim) -> None:
        """Replace the terms by saved ones (effective coefficients, scale 1).

        Copies them into buffers sized for them and centres every term's
        row around the support mean.  With cross terms on and a Gaussian
        kernel, it then replays :meth:`update` for each term over the terms
        before it (one Gaussian ``sweep`` per term), which rebuilds C and Q
        in O(s^2).  Last it sums the poly feature sums afresh, in
        O(s p^2 d).
        """
        n = len(support)
        self.input_dim = input_dim
        self._X = np.array(support, dtype=float, order="C").reshape(n, input_dim or 0)
        self._A = np.array(coeffs, dtype=float, order="C").reshape(n, self.dim)
        self._T = np.array(times, dtype=np.int64).reshape(n)
        self._C = self._Q = None
        if self.cross_terms and self._crossing is not None:
            self._C = np.empty((n, len(self._crossing.kernels)))
            self._Q = np.empty((n, len(self._crossing.kernels)))
        self.start = 0
        self.scale = 1.0
        self._R = None
        if self.keeps_centred:
            p = input_dim or 0
            self._R = np.empty((n, p + 2))
            self.end = n
            self._centre_rows(np.zeros(p))
        if self._C is not None:
            if self._featured is not None:
                # the replayed appends push pending rows; the sums are taken afresh after
                self.end = 0
                self._sum_features()
            for i in range(n):
                self.end = i  # the support is the terms before i, as when i was appended
                x, a = self._X[i], self._A[i]
                terms = self.terms()
                kept = [bank.sweep(terms, x) if bank.keeps_crosses else None for bank in self.banks]
                self.update(kept, x, float(x.dot(x)), a, float(a.dot(a)), self._T[i], True)
        self.end = n
        if self._featured is not None:
            self._sum_features()

    def drop_expired(self, cutoff: int, norms_sq) -> int:
        """Pop every term with time <= cutoff, downdating each norm exactly.

        ``norms_sq[j]`` (a list or an array, updated in place) tracks
        ``||g_j||^2`` for ``g_j = sum_i K_j(x_i, .) a_i`` over the stored
        terms.  Removing the oldest term changes it by
        ``-2 <g_j(x_i), a_i> + <K_j(x_i, x_i) a_i, a_i>``.  For a Gaussian
        every other term is later, so this is
        ``-scale^2 (2 C[i, c] + Q[i, c])``: O(1) per kernel and no kernel
        evaluation.  For a poly bank it is read from the term's feature-sum
        reading, taken ahead, plus a sweep of the pending rows,
        O(p d + B (p + 2d)) per term; the dropped term then joins the
        pending rows negated, or, if it was itself pending, every folded
        term has left and the live terms become the pending rows.  Norms
        that rounding leaves below zero are clamped; returns how many were.
        """
        lo = i = self.start
        while i < self.end and self._T[i] <= cutoff:
            i += 1
        if i == lo:
            return 0
        if not self.cross_terms:
            # truncation switched on after construction
            self.cross_terms = True
            self.restore(self.support, self.coeffs, self.times, self.input_dim)
            lo, i = 0, i - lo
        # Python floats beat array calls for a few kernels; each operation is
        # the elementwise one, in the same order, so the bits are the same.
        # Past t0 the window grows by 0 or 1 a step, so this reads one row
        s2 = self.scale * self.scale
        if self._C is not None:
            columns = self._crossing.columns
            for k in range(lo, i):
                c, q = self._C[k].tolist(), self._Q[k].tolist()
                for m, j in enumerate(columns):
                    norms_sq[j] -= s2 * (2.0 * c[m] + q[m])
        featured = self._featured
        if featured is not None:
            shares = [0.0] * len(self.kernels)
            for k in range(lo, i):
                # read while term k is still stored; a folded term leaves F as a
                # negated pending row, and a pending one means every folded term has left
                x, raw, n = self._X[k], self._A[k], self._pending
                folded = None
                if k < self._hi:
                    first, linear, quadratic = self._ahead
                    folded = linear[k - first], quadratic[k - first]
                featured.drop_shares(folded, (self._PX[:n], self._PA[:n]), x, raw, shares)
                for j in featured.columns:
                    norms_sq[j] -= s2 * shares[j]
                self.start = k + 1
                if k < self._hi:
                    self._push(x, raw, dropped=True)
                else:
                    self._F, self._lo, self._hi = None, k + 1, k + 1
                    self._repend()
        self.start = i
        clips = 0
        for j, n in enumerate(norms_sq):
            # NaN < 0 is False: a NaN norm is neither clamped nor counted
            if n < 0.0:
                norms_sq[j] = 0.0
                clips += 1
        return clips


def norm_recursion(prev_sq, cross, quad, decay) -> float:
    """Squared-norm update for ``g <- decay * g + K(x, .) alpha``.

    ``cross`` is ``<g(x), alpha>`` for the old expansion and ``quad`` is
    ``<K(x, x) alpha, alpha>``.  Returns
    ``decay^2 * prev + quad + 2 decay cross``, which may dip a hair below
    zero through rounding (callers clamp).
    """
    return decay * decay * prev_sq + quad + 2.0 * decay * cross


# below this, (delta^2 gamma) carries no reweighting information
_DEGENERATE_FLOOR = 1e-300


def _reweight(delta_prev: np.ndarray, gamma: np.ndarray, r: float) -> np.ndarray:
    """:func:`ovklearn.monorma.delta_update` for m >= 2, on trusted arrays.

    The array methods are the C reductions of ``np.all`` and ``np.sum``
    without their Python wrappers.  The powers stay array powers: numpy's
    vectorised ``power`` and ``math.pow`` differ in the last bit.
    """
    terms = delta_prev * delta_prev * gamma
    if (terms <= _DEGENERATE_FLOOR).all():
        return delta_prev.copy()
    num = terms ** (1.0 / (r + 1.0))
    den = (terms ** (r / (r + 1.0))).sum() ** (1.0 / r)
    return num / den


class _OnlineLearner:
    """The step of :class:`ONORMA` and ``MONORMA``, over m weighted kernels.

    One coefficient sequence is expanded over every kernel in ``kernels``
    (``g_j = sum_i K_j(x_i, .) a_i``), ``_norms[j]`` tracks ``||g_j||^2``,
    and ``f = sum_j delta_j g_j`` has ``||f||^2 = sum_j delta_j^2 ||g_j||^2``.
    The weights ``delta`` live on ``sum_j delta_j^r = 1``, which pins one
    kernel's at exactly 1: then the step reads g_1 and its norm directly.
    """

    def __init__(self, kernels, loss, lam, eta0, truncation, r=2.0):
        kernels = list(kernels)
        if len(kernels) < 1:
            raise ConfigError("need at least one kernel")
        dims = {k.dim for k in kernels}
        if len(dims) != 1:
            raise ConfigError(f"kernels disagree on output dimension: {sorted(dims)}")
        self.lam = lam = check_positive("lambda", lam)
        self.eta0 = eta0 = check_positive("eta0", eta0)
        self.r = r = check_positive("constraint exponent r", r)
        if eta0 * lam >= 1:
            raise ConfigError(
                f"need eta0 * lambda < 1 for a contracting update, "
                f"got {eta0} * {lam} = {eta0 * lam}"
            )
        m = len(kernels)
        self._delta = np.full(m, m ** (-1.0 / r))
        # an extreme r rounds the uniform start to 0 or off the boundary
        if not (self._delta[0] > 0.0 and abs(np.sum(self._delta**r) - 1.0) <= 1e-12):
            raise ConfigError(f"constraint exponent r = {r!r} cannot weight {m} kernels")
        self.loss = loss if loss is not None else SquaredLoss()
        self.truncation = truncation
        self.t = 0
        self._clips = 0
        # the cross terms only serve truncation's downdates
        self._state = _ExpansionState(kernels, cross_terms=truncation is not None)
        self._norms = np.zeros(m)

    @property
    def dim(self) -> int:
        return self._state.dim

    @property
    def support_size(self) -> int:
        return len(self._state)

    def learning_rate(self, t: int) -> float:
        return self.eta0 / math.sqrt(t)

    def predict(self, x) -> np.ndarray:
        """f_t at x (one point or a batch of rows); zero before any step."""
        return self._combine(self._state.evaluate(x))

    def step(self, x, y) -> StepResult:
        """Consume one example: predict, then update the hypothesis."""
        state = self._state
        y = np.asarray(y, dtype=float)
        if y.shape != (state.dim,):
            raise DimensionMismatch("target vector", y.shape, (state.dim,))
        x, x_sq = state.check_input(x)
        t = self.t + 1
        eta = self.learning_rate(t)
        decay = 1.0 - eta * self.lam

        kept, gs = state.expand(x)
        pred = self._combine(gs)
        # the tracked norms as Python floats: one read and one write a step
        norms = self._norms.tolist()
        # ||f||^2 = sum_j delta_j^2 ||g_j||^2, the sum by the array method, not a
        # float loop (np.sum pairs terms from 8 on); one kernel's weight is 1
        if len(norms) == 1:
            risk = 0.5 * self.lam * norms[0]
        else:
            risk = 0.5 * self.lam * float((self._delta * self._delta * self._norms).sum())
        loss_value, grad = self.loss.evaluate(pred - y)
        alpha = -eta * grad
        alpha_sq = float(alpha.dot(alpha))
        # a finite squared norm proves every entry finite; overflow alone is no error
        if not math.isfinite(alpha_sq) and not np.all(np.isfinite(grad)):
            raise NumericsError(f"non-finite loss gradient at step {t}")
        # a rejected step leaves the count, every later rate and the input width as they were
        self.t = t
        if state.input_dim is None:
            state.fix_width(x.shape[0])

        # the quads and cross sums read x, alpha and the raw terms, which the shrink leaves
        state.decay(decay)
        coeff_norm = math.sqrt(alpha_sq)
        # zero coefficients contribute nothing; keep the support minimal
        quads = state.update(kept, x, x_sq, alpha, alpha_sq, t, coeff_norm > 0.0)
        clips = 0
        for j in range(len(norms)):
            new = norm_recursion(norms[j], float(gs[j].dot(alpha)), quads[j], decay)
            if new < 0.0:
                new = 0.0
                clips += 1
            norms[j] = new
        if self.truncation is not None:
            clips += state.drop_expired(t - self.truncation.window(t), norms)
        self._norms[:] = norms
        self._clips += clips
        if len(norms) > 1:
            self._delta = _reweight(self._delta, self._norms, self.r)
        return StepResult(pred, loss_value, loss_value + risk, coeff_norm)

    def fit(self, xs, ys) -> list[StepResult]:
        """Run one step per row of (xs, ys) in order; returns all results.

        Shapes, lengths and finiteness are checked before the first step.
        """
        xs, ys = check_examples(xs, ys, self.dim)
        return [self.step(x, y) for x, y in zip(xs, ys)]

    def to_arrays(self):
        """Copies of the support, effective coefficients and times, and the input width."""
        state = self._state
        return state.support.copy(), state.coeffs, state.times.copy(), state.input_dim

    def restore(self, support, coeffs, times, input_dim, t, norms, delta=None) -> None:
        """Resume from :meth:`to_arrays`' output, the step count, the tracked norms
        and the kernel weights (None keeps them).

        A truncated learner rebuilds its Gaussian cross terms here, in
        O(s^2), and a poly learner its feature sums, in O(s p^2 d).
        """
        self.t = t
        self._norms[:] = norms
        if delta is not None:
            self._delta[:] = delta
        self._state.restore(support, coeffs, times, input_dim)

    def per_kernel_norm_sq(self, j: int) -> float:
        """||g_j||^2 recomputed as ``sum(C ∘ G vec(C))`` from the kernel's t x t scalar Gram.

        Independent of the tracked norms; O(s^2 (p + d)) time and O(s^2)
        memory, with the (sd) x (sd) block Gram never formed.  A ``j``
        outside ``[0, m)`` raises ConfigError, also on an empty support.
        """
        m = len(self._state.kernels)
        if check_int("kernel index", j, 0) >= m:
            raise ConfigError(f"kernel index must be an int in [0, {m}), got {j!r}")
        if len(self._state) == 0:
            return 0.0
        kernel, coeffs = self._state.kernels[j], self._state.coeffs
        scalar = kernel.scalar_gram(self._state.support)
        applied = kernel.row_expansion(scalar, coeffs, coeffs.sum(axis=1), scratch=scalar)
        return float(np.sum(coeffs * applied))

    def _combine(self, gs) -> np.ndarray:
        if len(gs) == 1:
            return gs[0]
        # from zeros, as 0.0 + (-0.0) is +0.0; the weights as Python floats
        f = np.zeros(gs[0].shape)
        for w, g in zip(self._delta.tolist(), gs):
            f += w * g
        return f


class ONORMA(_OnlineLearner):
    """Single-kernel online learner with optional truncation.

    MONORMA over the one kernel ``[kernel]``, whose weight is pinned at 1.

    Parameters
    ----------
    kernel : OperatorKernel
        Operator-valued kernel defining the hypothesis space.
    loss : loss object, optional
        Defaults to :class:`~ovklearn.losses.SquaredLoss`.
    lam : float
        Regularisation weight lambda > 0.
    eta0 : float
        Base learning rate; the step-t rate is ``eta0 / sqrt(t)``.
        Requires ``eta0 * lam < 1`` so the shrink factor stays in (0, 1).
    truncation : TruncationSchedule, optional
        When set, terms older than the window are dropped each step.
    """

    def __init__(self, kernel, loss=None, lam=0.01, eta0=1.0, truncation=None):
        super().__init__([kernel], loss, lam, eta0, truncation)
        self.kernel = kernel

    @property
    def norm_sq(self) -> float:
        """Incrementally tracked ||f_t||^2 in the RKHS."""
        return float(self._norms[0])

    @property
    def norm_clips(self) -> int:
        """How often rounding pushed the tracked norm below zero (then clamped to 0)."""
        return self._clips
