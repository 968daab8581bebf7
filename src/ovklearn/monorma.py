"""Online learning with a weighted combination of operator-valued kernels.

The hypothesis is ``f_t = sum_j delta_j g_j`` where every per-kernel
expansion ``g_j = sum_i K_j(x_i, .) a_i`` shares one coefficient
sequence; only the kernel differs.  Each step runs the single-kernel
learner's step over all m kernels (:class:`~ovklearn.onorma._OnlineLearner`):
one kernel row per kernel over the s stored terms gives every g_j(x_t),
each squared norm ``gamma_j = ||g_j||^2`` is refreshed by an O(d^2)
recursion (no re-expansion of g_j), and the weights are then recomputed
in closed form on the constraint set ``{delta_j > 0, sum_j delta_j^r <= 1}``.
The weight update always lands exactly on the boundary
``sum_j delta_j^r = 1``.

Truncation drops a term from every g_j at once.  Each stored term keeps
its cross sums with the later terms, one per kernel, so every gamma_j is
downdated exactly at O(m) per dropped term
(``onorma._ExpansionState.drop_expired``); keeping those sums costs one
O(s d) product per kernel and step.  No Gram matrix is formed and no
kernel is evaluated for a drop.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ConfigError, DimensionMismatch, check_positive
from .onorma import _OnlineLearner

__all__ = ["MONORMA", "delta_update"]

# below this, (delta^2 gamma) carries no reweighting information
_DEGENERATE_FLOOR = 1e-300


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


class MONORMA(_OnlineLearner):
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
        super().__init__(kernels, loss, lam, eta0, truncation)
        check_positive("constraint exponent r", r)
        self.kernels = kernels
        self.m = len(kernels)
        self.r = r
        self.gamma_clips = 0
        self._delta = np.full(self.m, self.m ** (-1.0 / r))

    @property
    def delta(self) -> np.ndarray:
        """Current kernel weights (copy)."""
        return self._delta.copy()

    @property
    def gamma(self) -> np.ndarray:
        """Current per-kernel squared norms (copy)."""
        return self._norms.copy()

    def _combine(self, gs) -> np.ndarray:
        f = np.zeros_like(gs[0])
        for w, g in zip(self._delta, gs):
            f = f + w * g
        return f

    def _penalty_norm_sq(self) -> float:
        # ||f||^2 in the sum space is sum_j delta_j^2 ||g_j||^2
        return float(np.sum(self._delta * self._delta * self._norms))

    def _after_step(self, clips: int) -> None:
        self.gamma_clips += clips
        self._delta = delta_update(self._delta, self._norms, self.r)

    def restore(self, support, coeffs, times, input_dim, t, norms, delta) -> None:
        """As the single-kernel learner's, plus the kernel weights ``delta``."""
        super().restore(support, coeffs, times, input_dim, t, norms)
        self._delta[:] = delta
