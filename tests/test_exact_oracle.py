"""The poly and Gaussian evaluation paths against the exact expansion.

Each path's output is checked against :func:`conftest.exact_expansion`,
computed from the same float terms, within ``k u T``, where u = 2^-53 and
T is the sum of the absolute terms (:func:`conftest.absolute_expansion`),
so the relative error is at most ``k u T / |exact|``.  The bounds come
from Higham, "Accuracy and Stability of Numerical Algorithms", ch. 3-4:
a computed sum of products, in any order, equals the exact sum with each
term multiplied by some ``1 + theta``, ``|theta| <= gamma_m``, where m
counts the roundings on that term's path and ``gamma_m = m u / (1 - m u)``,
which is at most ``1.01 m u`` here.

*Poly.*  A poly learner evaluates its expansion from the feature sums F
kept with its folded terms plus a sweep of its pending rows
(``kernels._PolyBank``): the step's ``g(x)``, a one-point predict and a
multi-row predict.  Along any path a term of the poly expansion meets at
most:

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

So m <= N + 2p + d + 8.  A dropped term that is still folded is read
twice, once in F and once negated among the pending rows, so T is
doubled: the bound is ``2.02 (N + 2p + d + 8) u T``, which the test
rounds up to ``k = 2 (N + 2p + d + 9)``.

*Gaussian.*  A Gaussian bank (``kernels._GaussianBank``) computes each
term's weight ``w_i = exp(e_i)``, ``e_i = -||x_i - q||^2 / mu``, from a
product of the centred rows, then ``scale J (sum_i w_i c_i)``.  The
centred point sweep errs by at most ``(3p + 8) u (n_i + ||u||^2)`` in a
squared distance (``conftest.centred_distance_bound``), n_i and
``||u||^2`` being the centred norms of the term and the query; the
division by ``-mu`` adds ``u |e_i| <= 2 u (n_i + ||u||^2) / mu``.  The
block path scales its factors by ``-1 / mu`` before the product, one more
rounding in each of its p + 2 terms and in ``-1 / mu`` itself, and a
second bandwidth multiplies by ``mu_last / mu``, two more: at most
``(5p + 18) u (n_i + ||u||^2) / mu`` in all.  Both paths' exponents are
therefore within ``(5p + 20) u (n_i + ||u||^2) / mu``.  The centre is a
mean of stored points, so ``||y - c||^2`` is at most the largest squared
distance D between two of the points a run sees, by convexity, and each
exponent errs by at most ``E = 2 (5p + 20) u D / mu``.  ``exp`` is within
4 ulps here, so every ``w_i`` is within ``(E + 4 u) w_i`` of its exact
value, to first order.  The sums then give each term at most s + d + 1
roundings: s in ``sum_i w_i c_i``, d in the J product and one for the
lazy scale.  A combination of m >= 2 kernels adds two more, for the
weight's product and the sum.  So member j errs by at most
``(E_j + 1.01 (s + d + 7) u) scale T_j`` and the combination by the
weighted sum of those; the test multiplies by 1.01 for the second-order
terms.
"""

from fractions import Fraction

import numpy as np
import pytest

import ovklearn.kernels
from conftest import UNIT_ROUNDOFF, absolute_expansion, exact_expansion
from ovklearn.kernels import NonSeparablePoly, SeparableGaussian
from ovklearn.monorma import MONORMA
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
    monkeypatch.setattr(ovklearn.kernels, "_FOLD", 8)
    rng = np.random.default_rng(90 + d)
    xs, ys = rng.uniform(-1.0, 1.0, size=(60, P)), rng.normal(size=(60, d))
    kernel = NonSeparablePoly(mu=0.3, dim=d)
    schedule = TruncationSchedule(t0=20, epsilon=0.25) if truncated else None
    model = ONORMA(kernel, lam=0.1, eta0=0.5, truncation=schedule)
    state = model._state
    (bank,) = state.banks
    worst, folded = 0.0, 0
    for t, (x, y) in enumerate(zip(xs, ys)):
        if t % 6 != 5:
            model.step(x, y)
            continue
        # the step's g(x), from the terms before it
        snap = snapshot(state)
        folded += bank._F is not None
        worst = max(worst, worst_of_bound(kernel, snap, x[None], model.step(x, y).prediction[None]))
    assert folded >= 8
    if truncated:
        # dropped terms left F as negated pending rows, and whole blocks of them unfolded
        assert state.times[0] > 1 and bank._lo > 0
    back = ONORMA(kernel, lam=0.1, eta0=0.5, truncation=schedule)
    back.restore(*model.to_arrays(), model.t, [model.norm_sq])
    queries = rng.uniform(-1.0, 1.0, size=(4, P))
    for learner in (model, back):
        snap = snapshot(learner._state)
        assert learner._state.banks[0]._F is not None
        worst = max(worst, worst_of_bound(kernel, snap, queries[:1], learner.predict(queries[0])[None]))
        worst = max(worst, worst_of_bound(kernel, snap, queries, learner.predict(queries)))
    with capsys.disabled():
        print(f"\npoly d={d} {'truncated' if truncated else 'plain'}: worst error {worst:.3g} of the exact-sum bound")


GAUSSIAN_BANKS = {
    "one-bandwidth": lambda d: [SeparableGaussian(mu=0.5, dim=d)],
    "two-bandwidths": lambda d: [
        SeparableGaussian(mu=0.5, dim=d),
        SeparableGaussian(mu=2.0, dim=d, structure=np.eye(d) + 0.3),
    ],
}


def gaussian_worst_of_bound(kernels, weights, snap, queries, got, spread):
    """The largest error of ``got`` (n, d), the ``weights``' combination of the
    kernels' expansions, against the exact one, as a share of the bound."""
    support, raw, scale = snap
    d, s, m = kernels[0].dim, len(support), len(kernels)
    exact = np.zeros((len(queries), d), dtype=object)
    bound = np.zeros((len(queries), d))
    for kernel, weight in zip(kernels, weights):
        exact += Fraction(weight) * np.array(exact_expansion(kernel, support, raw, queries), dtype=object)
        exponent = 2 * (5 * P + 20) * spread / kernel.mu
        k = exponent + 1.01 * (s + d + 7 + (2 if m > 1 else 0))
        bound += abs(weight) * 1.01 * k * UNIT_ROUNDOFF * scale * absolute_expansion(kernel, support, raw, queries)
    errors = np.array(
        [[float(abs(Fraction(v) - Fraction(scale) * e)) for v, e in zip(g, ex)] for g, ex in zip(got.tolist(), exact)]
    )
    assert np.all(errors <= bound)
    return float(np.max(errors / bound))


@pytest.mark.parametrize("bank", list(GAUSSIAN_BANKS))
@pytest.mark.parametrize("truncated", [False, True], ids=["plain", "truncated"])
def test_gaussian_paths_meet_the_exact_bound(bank, truncated, capsys):
    d = 2
    rng = np.random.default_rng(93)
    xs, ys = rng.uniform(0.0, 0.5, size=(40, P)), rng.normal(size=(40, d))
    queries = rng.uniform(0.0, 0.5, size=(4, P))
    points = np.concatenate([xs, queries])
    spread = float(np.max([np.sum((points - x) ** 2, axis=1) for x in points]))
    kernels = GAUSSIAN_BANKS[bank](d)
    schedule = TruncationSchedule(t0=10, epsilon=0.25) if truncated else None
    model = MONORMA(kernels, lam=0.1, eta0=0.5, truncation=schedule)
    state = model._state

    def snapshot():
        return state.support.copy(), state.raw_coeffs.copy(), state.scale

    worst = 0.0
    for t, (x, y) in enumerate(zip(xs, ys)):
        if t % 5 != 4:
            model.step(x, y)
            continue
        # the step's prediction, from the terms and weights before it
        snap, weights = snapshot(), model.delta.tolist()
        got = model.step(x, y).prediction
        worst = max(worst, gaussian_worst_of_bound(kernels, weights, snap, x[None], got[None], spread))
    if truncated:
        assert state.times[0] > 1
    snap, weights = snapshot(), model.delta.tolist()
    worst = max(worst, gaussian_worst_of_bound(kernels, weights, snap, queries[:1], model.predict(queries[0])[None], spread))
    worst = max(worst, gaussian_worst_of_bound(kernels, weights, snap, queries, model.predict(queries), spread))
    with capsys.disabled():
        print(f"\ngaussian {bank} {'truncated' if truncated else 'plain'}: worst error {worst:.3g} of the exact bound")
