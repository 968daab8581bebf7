"""The poly evaluation paths against the exact rational expansion.

A poly learner evaluates its expansion from the feature sums F kept with
its folded terms plus a sweep of its pending rows (``kernels._PolyBank``):
the step's ``g(x)``, a one-point predict and a multi-row predict.  Each is
checked here against :func:`conftest.exact_expansion`, computed in
Fractions from the same float terms, within ``k u T``, where u = 2^-53 and
T is the sum of the absolute terms (:func:`conftest.absolute_expansion`),
so the relative error is at most ``k u T / |exact|``.

Deriving k (Higham, "Accuracy and Stability of Numerical Algorithms",
ch. 3-4): a computed sum of products, in any order, equals the exact sum
with each term multiplied by some ``1 + theta``, ``|theta| <= gamma_m``,
where m counts the roundings on that term's path and
``gamma_m = m u / (1 - m u)``.  Along any path a term of the poly
expansion meets at most:

* d + 3 roundings in its products: ``c_ik x_ib`` (or the sum ``S_i`` of d
  coefficients), the factor ``x_ia``, and ``q_a`` and ``q_b``;
* N - 1 additions among the rows and the folds that summed them into F,
  N being every buffer row that any sum since F was last summed afresh
  could have read;
* 2 (p - 1) additions in the contractions with q (or in ``<x_i, q>`` and
  its square on the pending sweep);
* 8 in putting the result together: F's reading plus the pending sweep's,
  ``1 - mu`` and its product, ``mu`` times the linear sum and the sum of
  the two, and the lazy scale.

So m <= N + 2p + d + 8, and ``gamma_m <= 1.01 m u`` here.  A dropped term
that is still folded is read twice, once in F and once negated among the
pending rows, so T is doubled: the bound is ``2.02 (N + 2p + d + 8) u T``,
which the test rounds up to ``k = 2 (N + 2p + d + 9)``.
"""

from fractions import Fraction

import numpy as np
import pytest

import ovklearn.onorma
from conftest import UNIT_ROUNDOFF, absolute_expansion, exact_expansion
from ovklearn.kernels import NonSeparablePoly
from ovklearn.onorma import ONORMA, TruncationSchedule

P = 3


def snapshot(state):
    """The live terms, every buffer row any sum could have read, and the scale."""
    rows = slice(0, state.end)
    return (
        state.support.copy(),
        state.raw_coeffs.copy(),
        state._X[rows].copy(),
        state._A[rows].copy(),
        state.scale,
    )


def worst_of_bound(kernel, snap, queries, got):
    """The largest error of ``got`` (n, d) against the exact expansion, as a share of the bound."""
    support, raw, rows, row_coeffs, scale = snap
    exact = exact_expansion(kernel, support, raw, queries)
    absolute = 2.0 * scale * absolute_expansion(kernel, rows, row_coeffs, queries)
    k = 2 * (len(rows) + 2 * P + kernel.dim + 9)
    bound = k * UNIT_ROUNDOFF * absolute
    errors = np.array(
        [[float(abs(Fraction(v) - Fraction(scale) * e)) for v, e in zip(g, ex)] for g, ex in zip(got.tolist(), exact)]
    )
    assert np.all(errors <= bound)
    return float(np.max(errors / bound))


@pytest.mark.parametrize("d", [1, 4])
@pytest.mark.parametrize("truncated", [False, True], ids=["plain", "truncated"])
def test_poly_paths_meet_the_exact_summation_bound(d, truncated, monkeypatch, capsys):
    # folds of 8 terms, so that 60 terms fold, and a truncated stream unfolds
    monkeypatch.setattr(ovklearn.onorma, "_FOLD", 8)
    rng = np.random.default_rng(90 + d)
    xs, ys = rng.uniform(-1.0, 1.0, size=(60, P)), rng.normal(size=(60, d))
    kernel = NonSeparablePoly(mu=0.3, dim=d)
    schedule = TruncationSchedule(t0=20, epsilon=0.25) if truncated else None
    model = ONORMA(kernel, lam=0.1, eta0=0.5, truncation=schedule)
    state = model._state
    worst, folded = 0.0, 0
    for t, (x, y) in enumerate(zip(xs, ys)):
        if t % 6 != 5:
            model.step(x, y)
            continue
        # the step's g(x), from the terms before it
        snap = snapshot(state)
        folded += state._F is not None
        worst = max(worst, worst_of_bound(kernel, snap, x[None], model.step(x, y).prediction[None]))
    assert folded >= 8
    if truncated:
        # dropped terms left F as negated pending rows, and whole blocks of them unfolded
        assert state.times[0] > 1 and state._lo > 0
    back = ONORMA(kernel, lam=0.1, eta0=0.5, truncation=schedule)
    back.restore(*model.to_arrays(), model.t, [model.norm_sq])
    queries = rng.uniform(-1.0, 1.0, size=(4, P))
    for learner in (model, back):
        snap = snapshot(learner._state)
        assert learner._state._F is not None
        worst = max(worst, worst_of_bound(kernel, snap, queries[:1], learner.predict(queries[0])[None]))
        worst = max(worst, worst_of_bound(kernel, snap, queries, learner.predict(queries)))
    with capsys.disabled():
        print(f"\npoly d={d} {'truncated' if truncated else 'plain'}: worst error {worst:.3g} of the exact-sum bound")
