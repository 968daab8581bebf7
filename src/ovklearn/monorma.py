"""Online learning with a weighted combination of operator-valued kernels.

The hypothesis is ``f_t = sum_j delta_j g_j`` where every per-kernel
expansion ``g_j = sum_i K_j(x_i, .) a_i`` shares one coefficient
sequence; only the kernel differs.  Each step updates the shared
coefficients exactly like the single-kernel learner, refreshes each
squared norm ``gamma_j = ||g_j||^2`` through an O(d^2) recursion (no
re-expansion of g_j), and then recomputes the weights in closed form on
the constraint set ``{delta_j > 0, sum_j delta_j^r <= 1}``.  The weight
update always lands exactly on the boundary ``sum_j delta_j^r = 1``.

Truncation drops a term from every g_j at once, so each gamma_j is
downdated exactly by the single-kernel learner's drop formula
(:func:`~ovklearn.onorma.drop_expired`), at O(s (p + d)) per kernel and
dropped term; no Gram matrix is formed during a step.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import ConfigError, DimensionMismatch, NumericsError, check_positive
from .losses import SquaredLoss
from .onorma import StepResult, _ExpansionState, drop_expired, eval_expansion, norm_recursion

__all__ = ["MONORMA", "delta_update", "gamma_update"]

# below this, (delta^2 gamma) carries no reweighting information
_DEGENERATE_FLOOR = 1e-300


def gamma_update(gamma_prev, g_prev_at_x, k_xx, alpha_new, decay) -> float:
    """One-step update of a per-kernel squared norm ||g||^2.

    ``decay^2 * gamma_prev + <K(x,x) a, a> + 2 decay <g(x), a>``, clamped
    at zero against rounding.
    """
    return max(0.0, norm_recursion(gamma_prev, g_prev_at_x, k_xx, alpha_new, decay))


def delta_update(delta_prev, gamma, r) -> np.ndarray:
    """Closed-form kernel-weight update on the r-simplex boundary.

    With ``T_j = delta_prev_j^2 * gamma_j`` the new weights are
    ``T_j^(1/(r+1)) / (sum_j T_j^(r/(r+1)))^(1/r)``, which satisfies
    ``sum_j delta_j^r = 1`` identically.  The update is invariant to a
    common positive rescaling of either the gammas or the previous
    weights.  If every T_j is (numerically) zero there is nothing to
    reweight on and the previous weights are returned unchanged.
    """
    delta_prev = np.asarray(delta_prev, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if delta_prev.shape != gamma.shape:
        raise DimensionMismatch("weight/norm lists", delta_prev.shape[0], gamma.shape[0])
    check_positive("constraint exponent r", r)
    if delta_prev.shape[0] == 1:
        # one kernel: the simplex pins the weight at exactly 1
        return np.ones(1)
    terms = delta_prev * delta_prev * gamma
    if np.all(terms <= _DEGENERATE_FLOOR):
        return delta_prev.copy()
    num = terms ** (1.0 / (r + 1.0))
    den = np.sum(terms ** (r / (r + 1.0))) ** (1.0 / r)
    return num / den


class MONORMA:
    """Multi-kernel online learner with closed-form weight updates.

    Parameters mirror :class:`~ovklearn.onorma.ONORMA` except that a list
    of kernels (all with the same output dimension) replaces the single
    kernel, and ``r > 0`` picks the weight constraint set.  Weights start
    uniform on the constraint boundary, ``delta_j = m^(-1/r)``.

    Truncation is supported as an extension (off by default).  A dropped
    term leaves every g_j, and each gamma_j is downdated by the exact
    closed-form change its removal makes, the same update the
    single-kernel learner uses; a gamma_j that rounding pushes below zero
    is clamped and counted in ``gamma_clips``.
    :meth:`per_kernel_norm_sq` recomputes a norm from the Gram form for
    checking; the step never calls it.
    """

    def __init__(self, kernels, loss=None, lam=0.01, eta0=1.0, r=2.0, truncation=None):
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
        self.kernels = kernels
        self.m = len(kernels)
        self.loss = loss if loss is not None else SquaredLoss()
        self.lam = lam
        self.eta0 = eta0
        self.r = r
        self.truncation = truncation
        self.t = 0
        self.gamma_clips = 0
        self._state = _ExpansionState(kernels[0].dim)
        self._gamma = np.zeros(self.m)
        self._delta = np.full(self.m, self.m ** (-1.0 / r))

    @property
    def dim(self) -> int:
        return self.kernels[0].dim

    @property
    def support_size(self) -> int:
        return len(self._state)

    @property
    def delta(self) -> np.ndarray:
        """Current kernel weights (copy)."""
        return self._delta.copy()

    @property
    def gamma(self) -> np.ndarray:
        """Current per-kernel squared norms (copy)."""
        return self._gamma.copy()

    def learning_rate(self, t: int) -> float:
        return self.eta0 / math.sqrt(t)

    def _per_kernel_eval(self, x) -> list[np.ndarray]:
        return [eval_expansion(k, self._state, x) for k in self.kernels]

    def _combine(self, gs) -> np.ndarray:
        f = np.zeros_like(gs[0])
        for w, g in zip(self._delta, gs):
            f = f + w * g
        return f

    def predict(self, x) -> np.ndarray:
        """f_t at x (one point or a batch of rows)."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = self._state.check_input(x)
        elif (
            self._state.input_dim is not None
            and x.shape[1] != self._state.input_dim
        ):
            raise DimensionMismatch("query points", x.shape[1], self._state.input_dim)
        return self._combine(self._per_kernel_eval(x))

    def step(self, x, y) -> StepResult:
        """Consume one example: shared-coefficient, norm and weight updates."""
        x = self._state.check_input(x)
        y = np.asarray(y, dtype=float)
        if y.shape != (self.dim,):
            raise DimensionMismatch("target vector", y.shape[-1], self.dim)

        self.t += 1
        t = self.t
        eta = self.learning_rate(t)
        decay = 1.0 - eta * self.lam

        # per-kernel evaluations at x_t, needed again by the norm updates
        gs = self._per_kernel_eval(x)
        pred = self._combine(gs)
        loss_value = self.loss.value(pred, y)
        # ||f||^2 in the sum space is sum_j delta_j^2 ||g_j||^2
        risk = loss_value + 0.5 * self.lam * float(
            np.sum(self._delta * self._delta * self._gamma)
        )

        grad = self.loss.gradient(pred, y)
        if not np.all(np.isfinite(grad)):
            raise NumericsError(f"non-finite loss gradient at step {t}")
        alpha = -eta * grad

        new_gamma = np.empty(self.m)
        for j, kernel in enumerate(self.kernels):
            raw = norm_recursion(self._gamma[j], gs[j], kernel(x, x), alpha, decay)
            if raw < 0.0:
                raw = 0.0
                self.gamma_clips += 1
            new_gamma[j] = raw

        self._state.decay(decay)
        coeff_norm = float(np.linalg.norm(alpha))
        if coeff_norm > 0.0:
            self._state.append(x, alpha / self._state.scale, t)

        if self.truncation is not None:
            self._truncate(t, new_gamma)
        self._gamma = new_gamma
        self._delta = delta_update(self._delta, self._gamma, self.r)

        return StepResult(pred, loss_value, risk, coeff_norm)

    def fit(self, xs, ys) -> list[StepResult]:
        return [self.step(x, y) for x, y in zip(np.asarray(xs), np.asarray(ys))]

    def _truncate(self, t: int, gamma: np.ndarray) -> None:
        cutoff = t - self.truncation.window(t)
        self.gamma_clips += drop_expired(self._state, self.kernels, gamma, cutoff)

    def per_kernel_norm_sq(self, j: int) -> float:
        """||g_j||^2 recomputed from the full block Gram quadratic form.

        Independent of the tracked ``gamma``; O(s^2 d^2).
        """
        if len(self._state) == 0:
            return 0.0
        a = self._state.coeffs.ravel()
        return float(a @ (self.kernels[j].gram(self._state.support) @ a))
