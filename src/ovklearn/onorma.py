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
coefficients.  With s stored terms in R^p and outputs in R^d, a step
sweeps the support once per kernel family, O(s p) (the kernels of one
family share their row, see :mod:`ovklearn.kernels`), which gives each
kernel's prediction, O(s d), and, under truncation, the new term's cross
products with every stored term, O(s d).  A poly kernel also reads each
term's coefficient sum, which is stored with the term, so no step reduces
the stored coefficients.  The squared RKHS norm is
tracked by an O(d^2) recursion.  Under truncation each stored term also
keeps its cross sum with the later terms, so
:meth:`_ExpansionState.drop_expired` downdates the norm exactly for a
dropped term in O(1) per kernel, with no kernel evaluation.

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
from .exceptions import check_examples, check_finite, check_positive
from .losses import SquaredLoss

__all__ = ["ONORMA", "StepResult", "TruncationSchedule", "truncation_window"]

# fold the lazy scale into stored coefficients below this value
RENORM_THRESHOLD = 1e-6

_INITIAL_CAPACITY = 64

# a block of queries' family rows takes about this many bytes, so it stays in cache
_BLOCK_BYTES = 1 << 20


def truncation_window(t: int, t0: int, epsilon: float) -> int:
    """Number of most recent expansion terms kept at step t.

    ``min(t, t0)`` plus, once t exceeds t0, ``floor((t - t0)^(1/2 + epsilon))``
    extra terms.  The window grows sublinearly, which is what makes the
    truncated per-step cost sublinear in t.
    """
    if not 0.0 < epsilon < 0.5:
        raise ConfigError(f"truncation epsilon must be in (0, 1/2), got {epsilon}")
    if t0 <= 0:
        raise ConfigError(f"truncation t0 must be > 0, got {t0}")
    if t < 0:
        raise ConfigError(f"step index must be >= 0, got {t}")
    if t <= t0:
        return t
    x = (t - t0) ** (0.5 + epsilon)
    # pow may land one ulp under an exact integer; nudge before flooring
    return t0 + int(math.floor(x + 1e-9))


@dataclass(frozen=True)
class TruncationSchedule:
    """Truncation parameters: base window t0 and growth exponent offset."""

    t0: int = 100
    epsilon: float = 0.25

    def __post_init__(self):
        truncation_window(0, self.t0, self.epsilon)  # validates both fields

    def window(self, t: int) -> int:
        return truncation_window(t, self.t0, self.epsilon)


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

    Every kernel in ``kernels`` reads the same terms, and the kernels of
    one family read them through one shared row (:meth:`_rows`).
    :meth:`append` (or :meth:`restore`, for a whole saved support) is the
    only way a term comes in and :meth:`drop_expired` the only way one
    leaves: terms are appended at the back and dropped from the front;
    buffers grow by doubling and compact when the front offset gets large.
    Effective coefficients are ``scale * raw``.

    When a kernel ``reads_sums`` (the poly family), term i also keeps its
    raw coefficient sum ``S[i] = sum_k raw[i, k]`` (:attr:`raw_sums`),
    written by :meth:`append` and :meth:`restore` and
    recomputed from the folded coefficients by :meth:`decay`; a state of
    other kernels keeps none.

    With ``cross_terms`` on, term i also keeps, for each kernel j, the raw
    sums ``C[i, j] = sum_{k > i} <K_j(x_i, x_k) a_k, a_i>`` over the later
    terms and ``Q[i, j] = <K_j(x_i, x_i) a_i, a_i>``.  Terms leave in the
    order they came, so every term later than the oldest is still stored
    and the oldest term's share of ``||g_j||^2`` is
    ``scale^2 (2 C[i, j] + Q[i, j])``.
    """

    _BUFFERS = ("_X", "_A", "_S", "_T", "_C", "_Q")

    def __init__(self, kernels, cross_terms: bool = False):
        self.kernels = tuple(kernels)
        self.dim = self.kernels[0].dim
        self.cross_terms = cross_terms
        self.keeps_sums = any(kernel.reads_sums for kernel in self.kernels)
        families = {}
        for j, kernel in enumerate(self.kernels):
            families.setdefault(kernel.family, []).append((j, kernel))
        self._families = tuple(families.values())
        self.restore((), (), (), None)

    def __len__(self) -> int:
        return self.end - self.start

    def check_input(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise DimensionMismatch("input point", x.ndim, 1)
        # a finite squared norm proves every entry finite; overflow alone is no error
        if not math.isfinite(x @ x) and not np.all(np.isfinite(x)):
            raise DataError(f"non-finite input point {x}")
        if self.input_dim is not None and x.shape[0] != self.input_dim:
            raise DimensionMismatch("input point", x.shape[0], self.input_dim)
        return x

    def fix_width(self, p: int) -> None:
        """Set the input width of an empty state; the first committed step calls this."""
        self.input_dim = p
        self._X = np.empty((0, p))

    @property
    def support(self) -> np.ndarray:
        return self._X[self.start : self.end]

    @property
    def raw_coeffs(self) -> np.ndarray:
        return self._A[self.start : self.end]

    @property
    def raw_sums(self):
        """Each term's raw coefficient sum, or None when no kernel reads them."""
        return None if self._S is None else self._S[self.start : self.end]

    @property
    def coeffs(self) -> np.ndarray:
        """Effective coefficients (scale applied)."""
        return self.scale * self.raw_coeffs

    @property
    def times(self) -> np.ndarray:
        return self._T[self.start : self.end]

    def _rows(self, x) -> list:
        """Each kernel's scalars over the support at x: one ``row`` call per family."""
        rows = [None] * len(self.kernels)
        for family in self._families:
            shared = family[0][1].row(self.support, x)  # the same for every member
            for j, kernel in family:
                rows[j] = kernel.scalars(shared)
        return rows

    def expand(self, x):
        """Each kernel's scalars over the support at x and ``g_j(x)``.

        One sweep of the support per family; the scalars are kept for
        :meth:`append`.  Returns ``(None, zeros)`` on an empty support.
        """
        if self.end == self.start:
            return None, [np.zeros(self.dim) for _ in self.kernels]
        rows, raw, sums = self._rows(x), self.raw_coeffs, self.raw_sums
        gs = [self.scale * k.row_expansion(r, raw, sums) for k, r in zip(self.kernels, rows)]
        return rows, gs

    def evaluate(self, x) -> list:
        """Each kernel's ``g_j`` at one point or at each of n rows; zeros on an empty support.

        The one query path of every model: checks the shape, the input
        width once it is fixed and finiteness, then runs :meth:`expand` or
        :meth:`expand_rows`.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return self.expand(self.check_input(x))[1]
        if x.ndim != 2:
            raise DimensionMismatch("query points", x.shape, "(n, p)")
        if self.input_dim is not None and x.shape[1] != self.input_dim:
            raise DimensionMismatch("query points", x.shape[1], self.input_dim)
        check_finite("query rows", x)
        return self.expand_rows(x)

    def expand_rows(self, queries) -> list:
        """``g_j`` at each of the (n, p) queries, swept in blocks of rows.

        Each family does its per-support work once (``row_sweep``) and
        writes each block's rows into one buffer of about ``_BLOCK_BYTES``.
        The family's last kernel turns that buffer into its scalars in
        place and the others share a second one, so the sweep holds at most
        two such buffers and no n x s array.  Each kernel writes its block
        of ``g_j`` into its (n, d) output.
        """
        n, s = len(queries), len(self)
        gs = [np.zeros((n, self.dim)) for _ in self.kernels]
        if s == 0:
            return gs
        block = max(1, min(n, _BLOCK_BYTES // (8 * s)))  # float64 rows
        raw, sums = self.raw_coeffs, self.raw_sums
        for family in self._families:
            *others, (last, kernel) = family
            sweep = kernel.row_sweep(self.support)
            shared = np.empty((block, s))
            scratch = np.empty((block, s)) if others else None
            for lo in range(0, n, block):
                hi = min(lo + block, n)
                rows = sweep(queries[lo:hi], shared[: hi - lo])
                for j, other in others:
                    buf = scratch[: hi - lo]
                    other.row_expansion(other.scalars(rows, buf), raw, sums, buf, gs[j][lo:hi])
                kernel.row_expansion(kernel.scalars(rows, rows), raw, sums, rows, gs[last][lo:hi])
        for g in gs:
            g *= self.scale
        return gs

    def append(self, x, raw_coeff, t: int, rows=None, quads=None) -> None:
        """Store a term x with coefficient ``scale * raw_coeff``.

        With cross terms on, ``rows`` are :meth:`expand`'s scalars at x and
        ``quads[j]`` is ``<K_j(x, x) a, a>`` for the effective coefficient.
        """
        if self.end == len(self._T):
            self._compact_or_grow()
        i = self.end
        if self.cross_terms:
            self._add_cross_sums(i, raw_coeff, rows, quads)
        self._X[i] = x
        self._A[i] = raw_coeff
        if self._S is not None:
            self._S[i] = self._A[i].sum()
        self._T[i] = t
        self.end += 1

    def _add_cross_sums(self, i: int, raw_coeff, rows, quads) -> None:
        """Add term i's products to the C of the terms before it, whose scalars
        at term i's input are ``rows``, and set term i's own C and Q."""
        if i > self.start:
            live = slice(self.start, i)
            raw = self._A[live]
            sums = None if self._S is None else self._S[live]
            for j, kernel in enumerate(self.kernels):
                self._C[live, j] += kernel.row_cross(rows[j], raw, sums, raw_coeff)
        self._C[i] = 0.0
        self._Q[i] = quads
        self._Q[i] /= self.scale * self.scale

    def _compact_or_grow(self) -> None:
        n = len(self)
        live = slice(self.start, self.end)
        if self.start > len(self._T) // 2:
            # plenty of dead space at the front: shift instead of growing
            for name in self._BUFFERS:
                buf = getattr(self, name)
                if buf is not None:
                    buf[:n] = buf[live]
        else:
            cap = max(2 * len(self._T), _INITIAL_CAPACITY)
            for name in self._BUFFERS:
                old = getattr(self, name)
                if old is not None:
                    new = np.empty((cap,) + old.shape[1:], dtype=old.dtype)
                    new[:n] = old[live]
                    setattr(self, name, new)
        self.start = 0
        self.end = n

    def decay(self, factor: float) -> None:
        self.scale *= factor
        if self.scale < RENORM_THRESHOLD:
            live = slice(self.start, self.end)
            self._A[live] *= self.scale
            if self._S is not None:
                # re-reduced, not scaled: scale * S may differ in the last bit
                self._S[live] = self._A[live].sum(axis=1)
            if self.cross_terms:
                # C and Q are bilinear in the raw coefficients
                self._C[live] *= self.scale * self.scale
                self._Q[live] *= self.scale * self.scale
            self.scale = 1.0

    def restore(self, support, coeffs, times, input_dim) -> None:
        """Replace the terms by saved ones (effective coefficients, scale 1).

        Copies them into buffers sized for them and reduces every term's
        coefficient sum at once.  With cross terms on, it then replays each
        term's cross sums with the terms before it as :meth:`append` would
        (one ``row`` call per family and term), which rebuilds C and Q in
        O(s^2).
        """
        n, m = len(support), len(self.kernels)
        self.input_dim = input_dim
        self._X = np.array(support, dtype=float, order="C").reshape(n, input_dim or 0)
        self._A = np.array(coeffs, dtype=float, order="C").reshape(n, self.dim)
        self._S = self._A.sum(axis=1) if self.keeps_sums else None
        self._T = np.array(times, dtype=np.int64).reshape(n)
        self._C = np.empty((n, m)) if self.cross_terms else None
        self._Q = np.empty((n, m)) if self.cross_terms else None
        self.start = 0
        self.scale = 1.0
        if self.cross_terms:
            for i in range(n):
                self.end = i  # the support is the terms before i, as when i was appended
                x, a = self._X[i], self._A[i]
                quads = [kernel.quad(x, a) for kernel in self.kernels]
                self._add_cross_sums(i, a, self._rows(x), quads)
        self.end = n

    def drop_expired(self, cutoff: int, norms_sq: np.ndarray) -> int:
        """Pop every term with time <= cutoff, downdating each norm exactly.

        ``norms_sq[j]`` tracks ``||g_j||^2`` for ``g_j = sum_i K_j(x_i, .) a_i``
        over the stored terms.  Removing the oldest term changes it by
        ``-2 <g_j(x_i), a_i> + <K_j(x_i, x_i) a_i, a_i>``; every other term
        is later, so this is ``-scale^2 (2 C[i, j] + Q[i, j])``.  A dropped
        term costs O(1) per kernel and no kernel evaluation.  Norms that
        rounding leaves below zero are clamped; returns how many were.
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
        s2 = self.scale * self.scale
        for k in range(lo, i):
            norms_sq -= s2 * (2.0 * self._C[k] + self._Q[k])
        self.start = i
        clips = 0
        for j in range(len(norms_sq)):
            if norms_sq[j] < 0.0:
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
    """:func:`ovklearn.monorma.delta_update` for m >= 2, on trusted arrays."""
    terms = delta_prev * delta_prev * gamma
    if np.all(terms <= _DEGENERATE_FLOOR):
        return delta_prev.copy()
    num = terms ** (1.0 / (r + 1.0))
    den = np.sum(terms ** (r / (r + 1.0))) ** (1.0 / r)
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
        check_positive("lambda", lam)
        check_positive("eta0", eta0)
        if eta0 * lam >= 1:
            raise ConfigError(
                f"need eta0 * lambda < 1 for a contracting update, "
                f"got {eta0} * {lam} = {eta0 * lam}"
            )
        check_positive("constraint exponent r", r)
        m = len(kernels)
        self._delta = np.full(m, m ** (-1.0 / r))
        # an extreme r rounds the uniform start to 0 or off the boundary
        if not (self._delta[0] > 0.0 and abs(np.sum(self._delta**r) - 1.0) <= 1e-12):
            raise ConfigError(f"constraint exponent r = {r!r} cannot weight {m} kernels")
        self.loss = loss if loss is not None else SquaredLoss()
        self.lam = lam
        self.eta0 = eta0
        self.truncation = truncation
        self.t = 0
        self.r = r
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
        y = np.asarray(y, dtype=float)
        if y.shape != (self.dim,):
            raise DimensionMismatch("target vector", y.shape, (self.dim,))
        return self._step(self._state.check_input(x), y)

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

        A truncated learner rebuilds its cross terms here, in O(s^2).
        """
        self.t = t
        self._norms[:] = norms
        if delta is not None:
            self._delta[:] = delta
        self._state.restore(support, coeffs, times, input_dim)

    def per_kernel_norm_sq(self, j: int) -> float:
        """||g_j||^2 recomputed as ``sum(C ∘ G vec(C))`` from the kernel's t x t scalar Gram.

        Independent of the tracked norms; O(s^2 (p + d)) time and O(s^2)
        memory, with the (sd) x (sd) block Gram never formed.
        """
        if len(self._state) == 0:
            return 0.0
        kernel, coeffs = self._state.kernels[j], self._state.coeffs
        scalar = kernel.scalar_gram(self._state.support)
        applied = kernel.row_expansion(scalar, coeffs, coeffs.sum(axis=1), scratch=scalar)
        return float(np.sum(coeffs * applied))

    def _step(self, x: np.ndarray, y: np.ndarray) -> StepResult:
        state, norms = self._state, self._norms
        t = self.t + 1
        eta = self.learning_rate(t)
        decay = 1.0 - eta * self.lam

        rows, gs = state.expand(x)
        pred = self._combine(gs)
        risk = 0.5 * self.lam * self._penalty_norm_sq()
        loss_value, grad = self.loss.evaluate(pred - y)
        alpha = -eta * grad
        alpha_sq = float(alpha @ alpha)
        # a finite squared norm proves every entry finite; overflow alone is no error
        if not math.isfinite(alpha_sq) and not np.all(np.isfinite(grad)):
            raise NumericsError(f"non-finite loss gradient at step {t}")
        # a rejected step leaves the count, every later rate and the input width as they were
        self.t = t
        if state.input_dim is None:
            state.fix_width(x.shape[0])

        quads = [kernel.quad(x, alpha) for kernel in state.kernels]
        clips = 0
        for j in range(len(quads)):
            new = norm_recursion(norms[j], float(gs[j] @ alpha), quads[j], decay)
            if new < 0.0:
                new = 0.0
                clips += 1
            norms[j] = new

        state.decay(decay)
        coeff_norm = math.sqrt(alpha_sq)
        if coeff_norm > 0.0:
            # zero coefficients contribute nothing; keep the support minimal
            state.append(x, alpha / state.scale, t, rows, quads)
        if self.truncation is not None:
            clips += state.drop_expired(t - self.truncation.window(t), norms)
        self._clips += clips
        if len(norms) > 1:
            self._delta = _reweight(self._delta, norms, self.r)
        return StepResult(pred, loss_value, loss_value + risk, coeff_norm)

    def _combine(self, gs) -> np.ndarray:
        if len(gs) == 1:
            return gs[0]
        f = np.zeros_like(gs[0])
        for w, g in zip(self._delta, gs):
            f += w * g
        return f

    def _penalty_norm_sq(self) -> float:
        if len(self._norms) == 1:
            return float(self._norms[0])
        return float(np.sum(self._delta * self._delta * self._norms))


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

    def hypothesis_norm_sq(self) -> float:
        """||f_t||^2 recomputed from the kernel's scalar Gram; see :meth:`per_kernel_norm_sq`."""
        return self.per_kernel_norm_sq(0)
