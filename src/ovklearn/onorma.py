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
computes one kernel row over the support, O(s p), which gives both the
prediction, O(s d), and, under truncation, the new term's cross products
with every stored term, O(s d).  The squared RKHS norm is tracked by an
O(d^2) recursion.  Under truncation each stored term also keeps its cross
sum with the later terms, so :meth:`_ExpansionState.drop_expired`
downdates the norm exactly for a dropped term in O(1) per kernel, with no
kernel evaluation.

:class:`ONORMA` and the multi-kernel learner in :mod:`ovklearn.monorma`
share this step through :class:`_OnlineLearner`, which runs one
coefficient sequence over a list of kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, DataError, DimensionMismatch, NumericsError, check_positive
from .losses import SquaredLoss

__all__ = ["ONORMA", "StepResult", "TruncationSchedule", "truncation_window"]

# fold the lazy scale into stored coefficients below this value
RENORM_THRESHOLD = 1e-6

_INITIAL_CAPACITY = 64


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

    Every kernel in ``kernels`` reads the same terms.  :meth:`append` is
    the only way a term comes in and :meth:`drop_expired` the only way one
    leaves: terms are appended at the back and dropped from the front;
    buffers grow by doubling and compact when the front offset gets large.
    Effective coefficients are ``scale * raw``.

    With ``cross_terms`` on, term i also keeps, for each kernel j, the raw
    sums ``C[i, j] = sum_{k > i} <K_j(x_i, x_k) a_k, a_i>`` over the later
    terms and ``Q[i, j] = <K_j(x_i, x_i) a_i, a_i>``.  Terms leave in the
    order they came, so every term later than the oldest is still stored
    and the oldest term's share of ``||g_j||^2`` is
    ``scale^2 (2 C[i, j] + Q[i, j])``.
    """

    _BUFFERS = ("_X", "_A", "_T", "_C", "_Q")

    def __init__(self, kernels, cross_terms: bool = False):
        self.kernels = tuple(kernels)
        self.dim = self.kernels[0].dim
        self.cross_terms = cross_terms
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
        if self.input_dim is None:
            self.input_dim = x.shape[0]
            self._X = np.empty((0, self.input_dim))
        elif x.shape[0] != self.input_dim:
            raise DimensionMismatch("input point", x.shape[0], self.input_dim)
        return x

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
        """Each kernel's row over the support at x and ``g_j(x)``.

        One sweep of the support per kernel; the rows are kept for
        :meth:`append`.  Returns ``(None, zeros)`` on an empty support.
        """
        if self.end == self.start:
            return None, [np.zeros(self.dim) for _ in self.kernels]
        support, raw = self.support, self.raw_coeffs
        rows = [kernel.row(support, x) for kernel in self.kernels]
        gs = [self.scale * k.row_expansion(r, raw) for k, r in zip(self.kernels, rows)]
        return rows, gs

    def append(self, x, raw_coeff, t: int, rows=None, quads=None) -> None:
        """Store a term x with coefficient ``scale * raw_coeff``.

        With cross terms on, ``rows`` are :meth:`expand`'s rows at x and
        ``quads[j]`` is ``<K_j(x, x) a, a>`` for the effective coefficient.
        """
        if self.end == len(self._T):
            self._compact_or_grow()
        i = self.end
        if self.cross_terms:
            if i > self.start:
                raw = self._A[self.start : i]
                for j, kernel in enumerate(self.kernels):
                    self._C[self.start : i, j] += kernel.row_cross(rows[j], raw, raw_coeff)
            self._C[i] = 0.0
            self._Q[i] = quads
            self._Q[i] /= self.scale * self.scale
        self._X[i] = x
        self._A[i] = raw_coeff
        self._T[i] = t
        self.end += 1

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
            if self.cross_terms:
                # C and Q are bilinear in the raw coefficients
                self._C[live] *= self.scale * self.scale
                self._Q[live] *= self.scale * self.scale
            self.scale = 1.0

    def restore(self, support, coeffs, times, input_dim) -> None:
        """Replace the terms by saved ones (effective coefficients, scale 1).

        Appends them in order into buffers sized for them.  With cross
        terms on, each append gets the term's rows and quads as in a step,
        which rebuilds C and Q in O(s^2).
        """
        n, m = len(support), len(self.kernels)
        self.input_dim = input_dim
        self._X = np.empty((n, input_dim or 0))
        self._A = np.empty((n, self.dim))
        self._T = np.empty(n, dtype=np.int64)
        self._C = np.empty((n, m)) if self.cross_terms else None
        self._Q = np.empty((n, m)) if self.cross_terms else None
        self.start = self.end = 0
        self.scale = 1.0
        for x, a, t in zip(support, coeffs, times):
            rows = quads = None
            if self.cross_terms:
                rows = [kernel.row(self.support, x) for kernel in self.kernels]
                quads = [kernel.quad(x, a) for kernel in self.kernels]
            self.append(x, a, t, rows, quads)

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


class _OnlineLearner:
    """The step shared by :class:`ONORMA` and ``MONORMA``.

    One coefficient sequence is expanded over every kernel in ``kernels``
    (``g_j = sum_i K_j(x_i, .) a_i``), and ``_norms[j]`` tracks
    ``||g_j||^2``.  Subclasses say how the g_j combine into the
    prediction (:meth:`_combine`), what norm the risk reports
    (:meth:`_penalty_norm_sq`) and what follows the update
    (:meth:`_after_step`).
    """

    def __init__(self, kernels, loss, lam, eta0, truncation):
        check_positive("lambda", lam)
        check_positive("eta0", eta0)
        if eta0 * lam >= 1:
            raise ConfigError(
                f"need eta0 * lambda < 1 for a contracting update, "
                f"got {eta0} * {lam} = {eta0 * lam}"
            )
        self.loss = loss if loss is not None else SquaredLoss()
        self.lam = lam
        self.eta0 = eta0
        self.truncation = truncation
        self.t = 0
        # the cross terms only serve truncation's downdates
        self._state = _ExpansionState(kernels, cross_terms=truncation is not None)
        self._norms = np.zeros(len(kernels))

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
        state = self._state
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = state.check_input(x)
        elif x.ndim != 2:
            raise DimensionMismatch("query points", x.shape, "(n, p)")
        elif state.input_dim is not None and x.shape[1] != state.input_dim:
            raise DimensionMismatch("query points", x.shape[1], state.input_dim)
        gs = [state.scale * k.expansion(state.support, x, state.raw_coeffs) for k in state.kernels]
        return self._combine(gs)

    def step(self, x, y) -> StepResult:
        """Consume one example: predict, then update the hypothesis."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.dim,):
            raise DimensionMismatch("target vector", y.shape, (self.dim,))
        return self._step(self._state.check_input(x), y)

    def fit(self, xs, ys) -> list[StepResult]:
        """Run one step per row of (xs, ys) in order; returns all results."""
        return [self.step(x, y) for x, y in zip(np.asarray(xs), np.asarray(ys))]

    def to_arrays(self):
        """Copies of the support, effective coefficients and times, and the input width."""
        state = self._state
        return state.support.copy(), state.coeffs, state.times.copy(), state.input_dim

    def restore(self, support, coeffs, times, input_dim, t, norms) -> None:
        """Resume from :meth:`to_arrays`' output, the step count and the tracked norms.

        A truncated learner rebuilds its cross terms here by re-appending its
        terms, in O(s^2).
        """
        self.t = t
        self._norms[:] = norms
        self._state.restore(support, coeffs, times, input_dim)

    def per_kernel_norm_sq(self, j: int) -> float:
        """||g_j||^2 recomputed from the full block Gram quadratic form.

        Independent of the tracked norms; O(s^2 d^2).
        """
        if len(self._state) == 0:
            return 0.0
        a = self._state.coeffs.ravel()
        return float(a @ (self._state.kernels[j].gram(self._state.support) @ a))

    def _step(self, x: np.ndarray, y: np.ndarray) -> StepResult:
        state, norms = self._state, self._norms
        self.t += 1
        t = self.t
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
        self._after_step(clips)
        return StepResult(pred, loss_value, loss_value + risk, coeff_norm)

    def _combine(self, gs) -> np.ndarray:
        raise NotImplementedError

    def _penalty_norm_sq(self) -> float:
        raise NotImplementedError

    def _after_step(self, clips: int) -> None:
        raise NotImplementedError


class ONORMA(_OnlineLearner):
    """Single-kernel online learner with optional truncation.

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
        self.norm_clips = 0

    @property
    def norm_sq(self) -> float:
        """Incrementally tracked ||f_t||^2 in the RKHS."""
        return float(self._norms[0])

    def _combine(self, gs) -> np.ndarray:
        return gs[0]

    def _penalty_norm_sq(self) -> float:
        return float(self._norms[0])

    def _after_step(self, clips: int) -> None:
        self.norm_clips += clips

    def hypothesis_norm_sq(self) -> float:
        """||f_t||^2 recomputed exactly from the block Gram quadratic form."""
        return self.per_kernel_norm_sq(0)
