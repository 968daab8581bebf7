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
coefficients.  Each family's kernels are evaluated by one bank, the
family's step code (:class:`ovklearn.kernels.KernelBank`), which writes
their results in kernel order and keeps its own cache of the terms.  With
s stored terms in R^p and outputs in R^d, a Gaussian bank sweeps its
centred rows in one BLAS product, O(s p), and maps the row to its
scalars, O(s) per bandwidth; that gives each kernel's prediction, O(s d),
and, under truncation, the new term's cross sums with every stored term,
O(s d) per structure matrix plus O(s) per kernel, from which a dropped
term's norm share is read in O(1).  A poly bank steps in the kernel's
feature space: it reads the feature sums of its folded terms and sweeps
at most B pending rows, O(p^2 d + B (p + 2d)) whatever s is, and reads a
dropped term's share from one such evaluation.  A step calls each bank
twice, :meth:`_ExpansionState.expand` before the loss and
:meth:`_ExpansionState.update` after it, which writes the quadratic forms
from the kept sweep, so no product is formed twice.  The squared RKHS
norms are tracked by an O(d^2) recursion on Python floats.

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
from .losses import SquaredLoss

__all__ = ["ONORMA", "StepResult", "TruncationSchedule", "truncation_window"]

# fold the lazy scale into stored coefficients below this value
RENORM_THRESHOLD = 1e-6

_INITIAL_CAPACITY = 64


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

    Term i is the point ``X[i]``, its raw coefficient ``A[i]`` and its time
    ``T[i]``, in the buffer rows ``[start, end)``; its effective
    coefficient is ``scale * A[i]``.  Every kernel in ``kernels`` reads
    these terms through ``banks``: one
    :class:`~ovklearn.kernels.KernelBank` per family, in the order the
    families first appear, which shares the work its kernels have in
    common, writes each kernel's result at that kernel's index and keeps
    whatever its family caches of the terms.  A step makes two calls:
    :meth:`expand` before the loss, whose kept sweeps :meth:`update` reads
    after it.

    :meth:`update` (or :meth:`restore`, for a whole saved support) is the
    only way a term comes in and :meth:`drop_expired` the only way one
    leaves: terms are appended at the back and dropped from the front, and
    full buffers move the live terms into fresh ones of twice as many rows
    (at least 64), so a truncated support keeps at most twice its peak.
    Each change raises the matching event of every bank.  ``cross_terms``
    (truncation) asks the banks to keep what an exact downdate of a dropped
    term's norm share needs.
    """

    def __init__(self, kernels, cross_terms: bool = False):
        self.kernels = tuple(kernels)
        self.dim = self.kernels[0].dim
        self.cross_terms = cross_terms
        columns = {}
        for j, kernel in enumerate(self.kernels):
            columns.setdefault(kernel.bank, []).append(j)
        self.banks = tuple(bank([self.kernels[j] for j in js], js) for bank, js in columns.items())
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
        """The live views ``(support, raw_coeffs)``."""
        live = slice(self.start, self.end)
        return self._X[live], self._A[live]

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
        gs = [None] * len(self.kernels)
        return [bank.expand(self, x, gs) for bank in self.banks], gs

    def update(self, kept, x, x_sq, a, a_sq, t: int, store: bool) -> list:
        """The step after :meth:`decay`: every ``<K_j(x, x) a, a>``, in kernel order.

        ``kept`` is :meth:`expand`'s at x; ``x_sq`` and ``a_sq`` are
        ``<x, x>`` and ``<a, a>``.  With ``store``, term x comes in at time
        t with effective coefficient a.  One call per bank, and one event.
        """
        quads = [None] * len(self.kernels)
        kept = kept or (None,) * len(self.banks)
        for bank, k in zip(self.banks, kept):
            bank.norm_terms(k, x_sq, a, a_sq, quads)
        if store:
            if self.end == len(self._T):
                # kept's views go on reading the old buffers, whose live rows were copied
                self._compact_or_grow(x)
            i = self.end
            raw = np.divide(a, self.scale, out=self._A[i])
            self._X[i] = x
            self._T[i] = t
            self.end = i + 1
            for bank, k in zip(self.banks, kept):
                bank.stored(self, k, x, raw, quads)
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
        for bank in self.banks:
            bank.expand_rows(self, queries, gs)
        for g in gs:
            g *= self.scale
        return gs

    def _compact_or_grow(self, x) -> None:
        # as many free rows as live terms: each copy is paid for by the appends that fill them
        n = len(self)
        cap = max(2 * n, _INITIAL_CAPACITY)
        live = slice(self.start, self.end)
        for name in ("_X", "_A", "_T"):
            old = getattr(self, name)
            new = np.empty((cap,) + old.shape[1:], dtype=old.dtype)
            new[:n] = old[live]
            setattr(self, name, new)
        self.start = 0
        self.end = n
        for bank in self.banks:
            bank.moved(self, live, cap, x)

    def decay(self, factor: float) -> None:
        self.scale *= factor
        if self.scale < RENORM_THRESHOLD:
            self._A[self.start : self.end] *= self.scale
            for bank in self.banks:
                bank.rescaled(self, self.scale)
            self.scale = 1.0

    def restore(self, support, coeffs, times, input_dim) -> None:
        """Replace the terms by saved ones (effective coefficients, scale 1).

        Copies them into buffers sized for them, and every bank rebuilds
        its cache from them: a Gaussian bank centres the rows and, with
        cross terms on, replays each term's cross sums over the terms before
        it, in O(s^2); a poly bank sums its feature sums afresh, in
        O(s p^2 d).
        """
        n = len(support)
        self.input_dim = input_dim
        self._X = np.array(support, dtype=float, order="C").reshape(n, input_dim or 0)
        self._A = np.array(coeffs, dtype=float, order="C").reshape(n, self.dim)
        self._T = np.array(times, dtype=np.int64).reshape(n)
        self.start, self.end, self.scale = 0, n, 1.0
        for bank in self.banks:
            bank.restored(self)

    def drop_expired(self, cutoff: int, norms_sq) -> int:
        """Pop every term with time <= cutoff, downdating each norm exactly.

        ``norms_sq[j]`` (a list or an array, updated in place) tracks
        ``||g_j||^2`` for ``g_j = sum_i K_j(x_i, .) a_i`` over the stored
        terms.  Removing the oldest term changes it by
        ``-2 <g_j(x_i), a_i> + <K_j(x_i, x_i) a_i, a_i>``, which each bank
        subtracts for its members as the term leaves.  Norms that rounding
        leaves below zero are clamped; returns how many were.
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
        # past t0 the window grows by 0 or 1 a step, so this drops one term
        for k in range(lo, i):
            x, raw = self._X[k], self._A[k]
            self.start = k + 1
            for bank in self.banks:
                bank.dropped(self, k, x, raw, norms_sq)
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
