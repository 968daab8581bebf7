"""Online stochastic gradient learning in an operator-valued-kernel RKHS.

The hypothesis after t steps is the kernel expansion
``f_t = sum_i K(x_i, .) a_i`` over the observed inputs.  Each step

1. predicts ``f_{t-1}(x_t)`` (before seeing ``y_t``'s effect),
2. appends the new coefficient ``a_t = -eta_t * grad l(z, y_t)`` at
   ``z = f_{t-1}(x_t)``,
3. shrinks all older coefficients by ``1 - eta_t * lambda``,
4. optionally drops terms older than the truncation window.

The shrink is applied lazily through a single scale factor, so a step
costs O(s d^2) with s stored terms instead of O(s d) extra work for the
explicit multiply; the scale folds into the stored coefficients when it
underflows.  The squared RKHS norm of the hypothesis is tracked
incrementally alongside, and :func:`drop_expired` downdates it exactly
for every term truncation removes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, DimensionMismatch, NumericsError, check_positive
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

    Terms are appended at the back and dropped from the front; buffers
    grow by doubling and compact when the front offset gets large.
    Effective coefficients are ``scale * raw``.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.input_dim = None
        self._X = None
        self._A = None
        self._T = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self.start = 0
        self.end = 0
        self.scale = 1.0

    def __len__(self) -> int:
        return self.end - self.start

    def check_input(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise DimensionMismatch("input point", x.ndim, 1)
        if self.input_dim is None:
            self.input_dim = x.shape[0]
        elif x.shape[0] != self.input_dim:
            raise DimensionMismatch("input point", x.shape[0], self.input_dim)
        return x

    @property
    def support(self) -> np.ndarray:
        if self._X is None:
            return np.empty((0, 0))
        return self._X[self.start : self.end]

    @property
    def raw_coeffs(self) -> np.ndarray:
        if self._A is None:
            return np.empty((0, self.dim))
        return self._A[self.start : self.end]

    @property
    def coeffs(self) -> np.ndarray:
        """Effective coefficients (scale applied)."""
        return self.scale * self.raw_coeffs

    @property
    def times(self) -> np.ndarray:
        return self._T[self.start : self.end]

    def append(self, x: np.ndarray, raw_coeff: np.ndarray, t: int) -> None:
        if self._X is None:
            cap = _INITIAL_CAPACITY
            self._X = np.empty((cap, x.shape[0]))
            self._A = np.empty((cap, self.dim))
        if self.end == len(self._T):
            self._compact_or_grow()
        self._X[self.end] = x
        self._A[self.end] = raw_coeff
        self._T[self.end] = t
        self.end += 1

    def _compact_or_grow(self) -> None:
        n = len(self)
        if self.start > len(self._T) // 2:
            # plenty of dead space at the front: shift instead of growing
            self._X[:n] = self._X[self.start : self.end]
            self._A[:n] = self._A[self.start : self.end]
            self._T[:n] = self._T[self.start : self.end]
        else:
            cap = max(2 * len(self._T), _INITIAL_CAPACITY)
            for name in ("_X", "_A"):
                old = getattr(self, name)
                new = np.empty((cap, old.shape[1]))
                new[:n] = old[self.start : self.end]
                setattr(self, name, new)
            new_t = np.empty(cap, dtype=np.int64)
            new_t[:n] = self._T[self.start : self.end]
            self._T = new_t
        self.start = 0
        self.end = n

    def decay(self, factor: float) -> None:
        self.scale *= factor
        if self.scale < RENORM_THRESHOLD:
            self._A[self.start : self.end] *= self.scale
            self.scale = 1.0

    def front(self):
        """Oldest term as (time, x, effective coefficient)."""
        i = self.start
        return int(self._T[i]), self._X[i], self.scale * self._A[i]

    def pop_front(self) -> None:
        self.start += 1


def eval_expansion(kernel, state: _ExpansionState, x) -> np.ndarray:
    """Evaluate ``sum_i K(x_i, x) a_i`` for one point or a batch of rows."""
    if len(state) == 0:
        x = np.asarray(x)
        shape = (kernel.dim,) if x.ndim == 1 else (len(x), kernel.dim)
        return np.zeros(shape)
    return state.scale * kernel.expansion(state.support, x, state.raw_coeffs)


def drop_expired(state: _ExpansionState, kernels, norms_sq, cutoff: int) -> int:
    """Pop every term with time <= cutoff, downdating each norm exactly.

    ``norms_sq[j]`` tracks ``||g_j||^2`` for ``g_j = sum_i K_j(x_i, .) a_i``
    over the terms in ``state``; every kernel reads the same terms.
    Removing ``K_j(x_i, .) a_i`` changes it by
    ``-2 <g_j(x_i), a_i> + <K_j(x_i, x_i) a_i, a_i>`` with ``g_j(x_i)``
    evaluated before the pop, so a dropped term costs one expansion per
    kernel, O(s (p + d)), and no Gram matrix is formed.  Norms that
    rounding leaves below zero are clamped; returns how many were.
    """
    while len(state) > 0:
        ti, xi, ai = state.front()
        if ti > cutoff:
            break
        for j, kernel in enumerate(kernels):
            g_at_xi = eval_expansion(kernel, state, xi)
            norms_sq[j] -= 2.0 * float(g_at_xi @ ai) - float(ai @ (kernel(xi, xi) @ ai))
        state.pop_front()
    clips = 0
    for j in range(len(norms_sq)):
        if norms_sq[j] < 0.0:
            norms_sq[j] = 0.0
            clips += 1
    return clips


def norm_recursion(prev_sq, g_at_x, k_xx, alpha, decay) -> float:
    """Squared-norm update for ``g <- decay * g + K(x, .) alpha``.

    ``g_at_x`` is the old expansion evaluated at x; ``k_xx`` is K(x, x).
    Returns ``decay^2 * prev + <K(x,x) a, a> + 2 decay <g(x), a>``, which
    may dip a hair below zero through rounding (callers clamp).
    """
    quad = float(alpha @ (k_xx @ alpha))
    cross = float(np.dot(g_at_x, alpha))
    return decay * decay * prev_sq + quad + 2.0 * decay * cross


class ONORMA:
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
        check_positive("lambda", lam)
        check_positive("eta0", eta0)
        if eta0 * lam >= 1:
            raise ConfigError(
                f"need eta0 * lambda < 1 for a contracting update, "
                f"got {eta0} * {lam} = {eta0 * lam}"
            )
        self.kernel = kernel
        self.loss = loss if loss is not None else SquaredLoss()
        self.lam = lam
        self.eta0 = eta0
        self.truncation = truncation
        self.t = 0
        self.norm_clips = 0
        self._state = _ExpansionState(kernel.dim)
        self._norm_sq = 0.0

    @property
    def dim(self) -> int:
        return self.kernel.dim

    @property
    def support_size(self) -> int:
        return len(self._state)

    @property
    def norm_sq(self) -> float:
        """Incrementally tracked ||f_t||^2 in the RKHS."""
        return self._norm_sq

    def learning_rate(self, t: int) -> float:
        return self.eta0 / math.sqrt(t)

    def predict(self, x) -> np.ndarray:
        """f_t evaluated at x; the zero vector before any step."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = self._state.check_input(x)
        return eval_expansion(self.kernel, self._state, x)

    def step(self, x, y) -> StepResult:
        """Consume one example: predict, then update the hypothesis."""
        x = self._state.check_input(x)
        y = np.asarray(y, dtype=float)
        if y.shape != (self.dim,):
            raise DimensionMismatch("target vector", y.shape[-1], self.dim)

        self.t += 1
        t = self.t
        eta = self.learning_rate(t)
        decay = 1.0 - eta * self.lam

        pred = eval_expansion(self.kernel, self._state, x)
        loss_value = self.loss.value(pred, y)
        risk = loss_value + 0.5 * self.lam * self._norm_sq

        grad = self.loss.gradient(pred, y)
        if not np.all(np.isfinite(grad)):
            raise NumericsError(f"non-finite loss gradient at step {t}")
        alpha = -eta * grad

        new_norm = norm_recursion(self._norm_sq, pred, self.kernel(x, x), alpha, decay)
        if new_norm < 0.0:
            new_norm = 0.0
            self.norm_clips += 1
        self._norm_sq = new_norm

        self._state.decay(decay)
        coeff_norm = float(np.linalg.norm(alpha))
        if coeff_norm > 0.0:
            # zero coefficients contribute nothing; keep the support minimal
            self._state.append(x, alpha / self._state.scale, t)

        if self.truncation is not None:
            self._truncate(t)

        return StepResult(pred, loss_value, risk, coeff_norm)

    def fit(self, xs, ys) -> list[StepResult]:
        """Run one step per row of (xs, ys) in order; returns all results."""
        return [self.step(x, y) for x, y in zip(np.asarray(xs), np.asarray(ys))]

    def _truncate(self, t: int) -> None:
        norms = [self._norm_sq]
        cutoff = t - self.truncation.window(t)
        self.norm_clips += drop_expired(self._state, [self.kernel], norms, cutoff)
        self._norm_sq = norms[0]

    def hypothesis_norm_sq(self) -> float:
        """||f_t||^2 recomputed exactly from the block Gram quadratic form.

        Independent of the incremental tracker; O(s^2 d^2).
        """
        if len(self._state) == 0:
            return 0.0
        a = self._state.coeffs.ravel()
        return float(a @ (self.kernel.gram(self._state.support) @ a))
