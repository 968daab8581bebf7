"""Online learning with a weighted combination of operator-valued kernels.

The hypothesis is ``f_t = sum_j delta_j g_j`` where every per-kernel
expansion ``g_j = sum_i K_j(x_i, .) a_i`` shares one coefficient
sequence; only the kernel differs.  This is the step of
:class:`~ovklearn.onorma.ONORMA` over m kernels, and ONORMA is the case
m = 1 (:class:`~ovklearn.onorma._OnlineLearner` runs both).  The kernels
of one family are evaluated together by that family's bank
(:class:`~ovklearn.kernels.KernelBank`): one sweep of the s stored terms
for the Gaussians, which share their squared distances, one scalars pass
for all of them and O(s d) per kernel, and one reading of the kept
feature sums plus at most B pending rows for the poly kernels, give every
g_j(x_t),
each squared norm ``gamma_j = ||g_j||^2`` is refreshed by an O(d^2)
recursion (no re-expansion of g_j), and the weights are then recomputed
in closed form (:func:`delta_update`) on the constraint set
``{delta_j >= 0, sum_j delta_j^r <= 1}``.  The weight update always lands
exactly on the boundary ``sum_j delta_j^r = 1``.  It raises the old weight
to the power 2/(r+1): for r <= 1 one kernel can take all the weight, and
for r > 1 fixed norms draw the weights to ``delta_j ∝ gamma_j^(1/(r-1))``.
A weight that reaches exactly 0 (small weights underflow) stays 0 for the
rest of the run, because its ``T_j = delta_j^2 gamma_j`` is 0.

Truncation drops a term from every g_j at once.  Each stored term keeps
its cross sums with the later terms, one per Gaussian kernel, so every
Gaussian gamma_j is downdated exactly at O(1) per dropped term
(``onorma._ExpansionState.drop_expired``); keeping those sums costs one
O(s d) product per distinct structure matrix and O(s) per kernel and
step.  A poly gamma_j is downdated from one evaluation of its bank's
features at the dropped term.  No Gram matrix is formed.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DimensionMismatch, check_positive
from .onorma import _OnlineLearner, _reweight

__all__ = ["MONORMA", "delta_update"]


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
    r = check_positive("constraint exponent r", r)
    if delta_prev.shape[0] == 1:
        # one kernel: the simplex pins the weight at exactly 1
        return np.ones(1)
    return _reweight(delta_prev, gamma, r)


class MONORMA(_OnlineLearner):
    """Multi-kernel online learner with closed-form weight updates.

    Parameters mirror :class:`~ovklearn.onorma.ONORMA` except that a list
    of kernels (all with the same output dimension) replaces the single
    kernel, and ``r > 0`` picks the weight constraint set.  Weights start
    uniform on the constraint boundary, ``delta_j = m^(-1/r)``; an ``r``
    for which that start underflows to 0 or misses the boundary by more
    than 1e-12 raises ``ConfigError``.  Kernels of one family share each
    support sweep, so a bank of many bandwidths, structure matrices or poly
    mixes costs one sweep per family plus O(s d) per kernel and step.  The
    Gaussians map the sweep to their scalars in one pass, once per distinct
    bandwidth, and share each structure matrix's quadratic form and cross
    vector; the poly kernels share one reading of their bank's feature
    sums, whose cost does not grow with the support.  The weight update costs O(m)
    and the combination of the g_j O(m d) per step.

    Truncation is supported as an extension (off by default).  A dropped
    term leaves every g_j, and each gamma_j is downdated by the exact
    closed-form change its removal makes; a gamma_j that rounding pushes
    below zero is clamped and counted in ``gamma_clips``.
    :meth:`per_kernel_norm_sq` recomputes a norm from the scalar Gram for
    checking; the step never calls it.  :meth:`restore` also takes the
    kernel weights ``delta``.
    """

    def __init__(self, kernels, loss=None, lam=0.01, eta0=1.0, r=2.0, truncation=None):
        super().__init__(kernels, loss, lam, eta0, truncation, r)
        self.kernels = list(self._state.kernels)

    @property
    def delta(self) -> np.ndarray:
        """Current kernel weights (copy)."""
        return self._delta.copy()

    @property
    def gamma(self) -> np.ndarray:
        """Current per-kernel squared norms (copy)."""
        return self._norms.copy()

    @property
    def gamma_clips(self) -> int:
        """How often rounding pushed a gamma_j below zero (then clamped to 0)."""
        return self._clips
