import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractions import Fraction

import ovklearn.kernels
from conftest import (
    NaiveOnlineLearner,
    centred_distance_bound,
    exact_sq_distances,
    gram_norm_sq,
    squared_distances,
)
from ovklearn.batch import fit as batch_fit
from ovklearn.exceptions import ConfigError, DataError, DimensionMismatch, NumericsError
from ovklearn.kernels import NonSeparablePoly, SeparableGaussian
from ovklearn.monorma import MONORMA
from ovklearn.losses import EpsilonInsensitive, SquaredLoss
from ovklearn.onorma import (
    ONORMA,
    TruncationSchedule,
    _ExpansionState,
    norm_recursion,
    truncation_window,
)


def stream(seed, n, p=4, d=3, scale=0.5):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, 1.0, size=(n, p))
    ys = scale * rng.normal(size=(n, d))
    return xs, ys


def test_truncation_window_hand_values():
    assert truncation_window(100, 100, 0.25) == 100
    # 100^0.75 = 31.62...
    assert truncation_window(200, 100, 0.25) == 131
    assert truncation_window(101, 100, 0.25) == 101
    assert truncation_window(50, 100, 0.25) == 50
    assert truncation_window(0, 100, 0.25) == 0


def test_truncation_window_validation():
    with pytest.raises(ConfigError):
        truncation_window(10, 100, 0.5)
    with pytest.raises(ConfigError):
        truncation_window(10, 100, 0.0)
    with pytest.raises(ConfigError):
        truncation_window(10, 0, 0.25)
    with pytest.raises(ConfigError):
        truncation_window(-1, 100, 0.25)
    with pytest.raises(ConfigError):
        TruncationSchedule(t0=10, epsilon=0.6)


@pytest.mark.parametrize("t0", [10.5, True])
def test_truncation_t0_must_be_an_int(t0):
    with pytest.raises(ConfigError, match="t0 must be an int"):
        TruncationSchedule(t0=t0)


@settings(max_examples=200, deadline=None)
@given(
    t=st.integers(0, 5000),
    t0=st.integers(1, 300),
    epsilon=st.floats(0.01, 0.49),
)
def test_truncation_window_properties(t, t0, epsilon):
    s = truncation_window(t, t0, epsilon)
    assert 0 <= s <= t
    assert truncation_window(t + 1, t0, epsilon) >= s
    if t <= t0:
        assert s == t


def test_norm_recursion_hand_value():
    # 0.25 * 1 + <I a, a> + 2 * 0.5 * <g, a> with a = (1, 1), g = (1, 0)
    got = norm_recursion(1.0, cross=1.0, quad=2.0, decay=0.5)
    assert abs(got - 3.25) <= 1e-15
    # first term from a zero hypothesis, and a zero coefficient (pure decay)
    assert norm_recursion(0.0, cross=0.0, quad=2.0, decay=0.9) == 2.0
    assert abs(norm_recursion(3.0, cross=0.0, quad=0.0, decay=0.8) - 1.92) <= 1e-15


def test_negative_norm_recursion_is_clamped_and_counted():
    # a tracked norm forced below its true value makes the recursion go
    # negative: with y = 0 the cross term is -eta ||f(x)||^2
    from ovklearn.monorma import MONORMA

    k = SeparableGaussian(mu=1.0, dim=2)
    x = np.array([0.2, 0.4, 0.1])
    for model in (ONORMA(k, lam=0.1, eta0=0.5), MONORMA([k, k], lam=0.1, eta0=0.5)):
        model.step(x, np.array([3.0, -1.0]))
        model._norms[:] = 0.0
        model.step(x, np.zeros(2))
        norms = model.gamma if isinstance(model, MONORMA) else [model.norm_sq]
        assert np.all(np.asarray(norms) == 0.0)
        clips = model.gamma_clips if isinstance(model, MONORMA) else model.norm_clips
        assert clips == len(norms)


def test_dropped_terms_clamp_norms_below_zero_and_leave_nan():
    # each dropped term subtracts scale^2 (2 C + Q); a norm left below 0 is
    # clamped and counted, and a NaN one is neither
    k = SeparableGaussian(mu=1.0, dim=2)
    xs, ys = stream(81, 6, d=2)
    state = _ExpansionState([k, k, k], cross_terms=True)
    state.restore(xs, ys, range(1, 7), xs.shape[1])
    (bank,) = state.banks
    shares = 2.0 * bank._C[:2] + bank._Q[:2]
    norms = np.array([np.nan, -1.0, 1.0]) + shares.sum(axis=0)
    expected = norms.copy()
    for share in shares:
        expected -= share
    assert state.drop_expired(2, norms) == 1
    assert np.isnan(norms[0]) and norms[1] == 0.0 and norms[2] == expected[2]
    assert len(state) == 4


def test_first_step():
    k = SeparableGaussian(mu=1.0, dim=2)
    model = ONORMA(k, lam=0.01, eta0=1.0)
    x = np.array([0.2, 0.4, 0.8])
    y = np.array([1.0, -2.0])
    res = model.step(x, y)
    # f_0 = 0, so the first prediction is the zero vector
    assert np.array_equal(res.prediction, np.zeros(2))
    assert res.loss == 0.5 * 5.0
    assert res.instantaneous_risk == res.loss
    # eta_1 = 1: the new coefficient is exactly y
    assert abs(res.new_coeff_norm - np.sqrt(5.0)) <= 1e-12
    assert model.support_size == 1
    assert np.allclose(model.predict(x), k(x, x) @ y, atol=1e-12)
    assert abs(model.norm_sq - float(y @ (k(x, x) @ y))) <= 1e-12


def test_two_step_decay_of_first_coefficient():
    k = SeparableGaussian(mu=1.0, dim=2)
    model = ONORMA(k, lam=0.5, eta0=0.5)
    xs, ys = stream(31, 2)
    xs, ys = xs, ys[:, :2]
    model.step(xs[0], ys[0])
    first = model._state.coeffs[0].copy()
    assert np.allclose(first, 0.5 * ys[0], atol=1e-15)
    model.step(xs[1], ys[1])
    decay2 = 1.0 - (0.5 / np.sqrt(2.0)) * 0.5
    assert np.allclose(model._state.coeffs[0], decay2 * first, rtol=1e-12)


def test_learning_rate_schedule():
    model = ONORMA(SeparableGaussian(mu=1.0, dim=2), lam=0.01, eta0=0.8)
    assert model.learning_rate(4) == 0.4
    assert model.learning_rate(1) == 0.8


@pytest.mark.parametrize(
    "k",
    [SeparableGaussian(mu=1.0, dim=3), NonSeparablePoly(mu=0.3, dim=3)],
    ids=["gaussian", "poly"],
)
def test_matches_naive_oracle_through_renormalization(k):
    # lam and eta0 chosen so the lazy scale underflows repeatedly; a fold
    # also refreshes the poly terms' coefficient sums
    model = ONORMA(k, lam=0.9, eta0=0.9)
    naive = NaiveOnlineLearner(k, lam=0.9, eta0=0.9)
    xs, ys = stream(32, 500)
    folds = 0
    prev_scale = model._state.scale
    for x, y in zip(xs, ys):
        res = model.step(x, y)
        expected = naive.step(x, y)
        assert np.allclose(res.prediction, expected, rtol=1e-10, atol=1e-10)
        if model._state.scale > prev_scale:
            folds += 1
        prev_scale = model._state.scale
    assert folds >= 2  # the run actually exercised renormalization
    assert model.support_size == len(naive.terms)
    probe = np.array([0.5, 0.1, 0.9, 0.3])
    assert np.allclose(model.predict(probe), naive.predict(probe), rtol=1e-10, atol=1e-10)


def test_matches_naive_oracle_with_truncation():
    schedule = TruncationSchedule(t0=20, epsilon=0.25)
    k = NonSeparablePoly(mu=0.4, dim=2)
    model = ONORMA(k, lam=0.2, eta0=0.5, truncation=schedule)
    naive = NaiveOnlineLearner(k, lam=0.2, eta0=0.5, truncation=schedule)
    xs, ys = stream(33, 300, d=2, scale=0.3)
    for t, (x, y) in enumerate(zip(xs, ys), start=1):
        res = model.step(x, y)
        expected = naive.step(x, y)
        assert np.allclose(res.prediction, expected, rtol=1e-10, atol=1e-10)
        assert model.support_size == len(naive.terms)
        assert model.support_size <= schedule.window(t)


def test_norm_tracker_matches_gram_oracle():
    k = SeparableGaussian(mu=2.0, dim=2)
    model = ONORMA(k, lam=0.1, eta0=0.5)
    xs, ys = stream(34, 200, d=2)
    for i, (x, y) in enumerate(zip(xs, ys), start=1):
        model.step(x, y)
        if i % 25 == 0:
            exact = model.per_kernel_norm_sq(0)
            assert abs(model.norm_sq - exact) <= 1e-8 * max(1.0, exact)
    state = model._state
    oracle = gram_norm_sq(k, list(state.support), list(state.coeffs))
    assert abs(model.per_kernel_norm_sq(0) - oracle) <= 1e-9 * max(1.0, oracle)
    assert abs(model.norm_sq - oracle) <= 1e-8 * max(1.0, oracle)


def test_norm_tracker_with_truncation_drops():
    schedule = TruncationSchedule(t0=15, epsilon=0.25)
    k = SeparableGaussian(mu=1.0, dim=2)
    model = ONORMA(k, lam=0.1, eta0=0.5, truncation=schedule)
    xs, ys = stream(35, 120, d=2)
    for i, (x, y) in enumerate(zip(xs, ys), start=1):
        model.step(x, y)
        if i % 10 == 0:
            exact = model.per_kernel_norm_sq(0)
            assert abs(model.norm_sq - exact) <= 1e-8 * max(1.0, exact)
    assert model.support_size < 120  # drops actually happened


def test_predict_empty_and_batch():
    model = ONORMA(SeparableGaussian(mu=1.0, dim=3), lam=0.1, eta0=0.5)
    assert np.array_equal(model.predict(np.ones(4)), np.zeros(3))
    batch = model.predict(np.ones((5, 4)))
    assert np.array_equal(batch, np.zeros((5, 3)))
    xs, ys = stream(36, 20)
    model.fit(xs, ys)
    queries = np.random.default_rng(37).uniform(size=(6, 4))
    rows = np.stack([model.predict(q) for q in queries])
    assert np.allclose(model.predict(queries), rows, rtol=1e-12, atol=1e-12)


def test_zero_gradient_steps_do_not_grow_support():
    wide = EpsilonInsensitive(epsilon=100.0)
    model = ONORMA(SeparableGaussian(mu=1.0, dim=2), loss=wide, lam=0.1, eta0=0.5)
    xs, ys = stream(38, 30, d=2)
    results = model.fit(xs, ys)
    assert model.support_size == 0
    assert model.norm_sq == 0.0
    assert all(r.new_coeff_norm == 0.0 for r in results)
    # squared loss with an exactly-zero first target: gradient is zero too
    m2 = ONORMA(SeparableGaussian(mu=1.0, dim=2), lam=0.1, eta0=0.5)
    m2.step(np.ones(3), np.zeros(2))
    assert m2.support_size == 0


def test_constructor_validation():
    k = SeparableGaussian(mu=1.0, dim=2)
    with pytest.raises(ConfigError):
        ONORMA(k, lam=0.0)
    with pytest.raises(ConfigError):
        ONORMA(k, lam=-1.0)
    with pytest.raises(ConfigError):
        ONORMA(k, lam=0.5, eta0=0.0)
    with pytest.raises(ConfigError):
        ONORMA(k, lam=0.5, eta0=2.0)  # eta0 * lam = 1
    # every comparison with NaN is False, so "<= 0" alone would let it in
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ConfigError):
            ONORMA(k, lam=bad)
        with pytest.raises(ConfigError):
            ONORMA(k, lam=0.1, eta0=bad)


def test_step_validation():
    model = ONORMA(SeparableGaussian(mu=1.0, dim=2), lam=0.1, eta0=0.5)
    with pytest.raises(DimensionMismatch):
        model.step(np.ones((2, 3)), np.zeros(2))
    with pytest.raises(DimensionMismatch):
        model.step(np.ones(3), np.zeros(3))
    model.step(np.ones(3), np.zeros(2) + 0.5)
    with pytest.raises(DimensionMismatch):
        model.step(np.ones(4), np.full(2, 0.5))  # input dim changed mid-run
    with pytest.raises(DimensionMismatch, match=r"\(\) vs \(2,\)"):
        model.step(np.ones(3), 1.0)  # scalar target
    with pytest.raises(DimensionMismatch, match=r"\(1, 2\) vs \(2,\)"):
        model.step(np.ones(3), np.zeros((1, 2)))
    # a batch model shares the online query checks, for both families
    rng = np.random.default_rng(31)
    batch_models = [
        batch_fit(kernel, rng.normal(size=(3, 3)), rng.normal(size=(3, 2)), 0.1)
        for kernel in (SeparableGaussian(mu=1.0, dim=2), NonSeparablePoly(mu=0.5, dim=2))
    ]
    for fitted in [model] + batch_models:
        for query in (np.ones((2, 4)), np.ones((2, 5)), np.ones(5), np.ones((1, 2, 3)), 5.0):
            with pytest.raises(DimensionMismatch):
                fitted.predict(query)
    # a non-finite input point is rejected before the learner changes
    fresh = [
        ONORMA(SeparableGaussian(mu=1.0, dim=2), lam=0.1, eta0=0.5),
        ONORMA(NonSeparablePoly(mu=0.5, dim=2), lam=0.1, eta0=0.5),
        MONORMA([SeparableGaussian(mu=1.0, dim=2), NonSeparablePoly(mu=0.5, dim=2)]),
    ]
    for learner in fresh + [model]:
        before = (learner.t, learner.support_size, learner.to_arrays()[3])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DataError):
                learner.step(np.array([bad, 0.0, 0.0]), np.full(2, 0.5))
        assert (learner.t, learner.support_size, learner.to_arrays()[3]) == before
        learner.step(np.full(3, 0.1), np.full(2, 0.5))
        assert np.isfinite(learner.predict(np.full(3, 0.2))).all()


def test_non_finite_gradient_raises():
    model = ONORMA(SeparableGaussian(mu=1.0, dim=2), lam=0.1, eta0=0.5)
    with pytest.raises(NumericsError, match="step 1"):
        model.step(np.ones(3), np.array([np.inf, 0.0]))


def test_online_causality():
    # the emitted prediction must equal the pre-step hypothesis at x, and
    # mutating the caller's arrays afterwards must not corrupt the model
    k = SeparableGaussian(mu=1.0, dim=2)
    model = ONORMA(k, lam=0.1, eta0=0.5)
    control = ONORMA(k, lam=0.1, eta0=0.5)
    xs, ys = stream(39, 50, d=2)
    for x, y in zip(xs, ys):
        x_probe = x.copy()
        y_probe = y.copy()
        before = model.predict(x_probe)
        res = model.step(x_probe, y_probe)
        control.step(x, y)
        assert np.array_equal(res.prediction, before)
        x_probe[:] = 999.0
        y_probe[:] = -999.0
    check = np.full(4, 0.25)
    assert np.array_equal(model.predict(check), control.predict(check))


def test_instantaneous_risk_decomposition():
    model = ONORMA(SeparableGaussian(mu=1.0, dim=3), lam=0.3, eta0=0.5)
    xs, ys = stream(40, 60)
    for x, y in zip(xs, ys):
        norm_before = model.norm_sq
        res = model.step(x, y)
        assert abs(res.instantaneous_risk - (res.loss + 0.15 * norm_before)) <= 1e-12
        assert res.instantaneous_risk >= res.loss - 1e-15


def test_new_coeff_norm_matches_gradient_scale():
    model = ONORMA(SeparableGaussian(mu=1.0, dim=2), lam=0.1, eta0=0.7)
    xs, ys = stream(41, 40, d=2)
    for t, (x, y) in enumerate(zip(xs, ys), start=1):
        res = model.step(x, y)
        eta = 0.7 / np.sqrt(t)
        expected = eta * np.linalg.norm(res.prediction - y)
        assert abs(res.new_coeff_norm - expected) <= 1e-12 * max(1.0, expected)


def test_fit_returns_one_result_per_example():
    model = ONORMA(SeparableGaussian(mu=1.0, dim=3), lam=0.1, eta0=0.5)
    xs, ys = stream(42, 25)
    results = model.fit(xs, ys)
    assert len(results) == 25
    assert model.t == 25


def test_fit_checks_every_example_before_any_step():
    xs, ys = stream(43, 10, d=2)
    late_nan = ys.copy()
    late_nan[7, 0] = np.nan
    for learner in (
        ONORMA(SeparableGaussian(mu=1.0, dim=2), lam=0.1, eta0=0.5),
        MONORMA([SeparableGaussian(mu=1.0, dim=2), NonSeparablePoly(mu=0.5, dim=2)]),
    ):
        with pytest.raises(ConfigError, match="inputs/targets length mismatch: 10 vs 5"):
            learner.fit(xs, ys[:5])
        with pytest.raises(DimensionMismatch):
            learner.fit(xs, ys[:, :1])
        with pytest.raises(DataError, match="non-finite targets"):
            learner.fit(xs, late_nan)
        assert learner.t == 0 and learner.support_size == 0


def fold_count_run(model, xs, ys, check_every, check):
    """Step through the stream, calling check(model) every check_every steps.

    Returns how many times the lazy scale folded into the coefficients.
    """
    folds = 0
    for i, (x, y) in enumerate(zip(xs, ys), start=1):
        before = model._state.scale
        model.step(x, y)
        if model._state.scale > before:
            folds += 1
        if i % check_every == 0:
            check(model)
    return folds


@pytest.mark.parametrize("family", ["gaussian", "poly"])
def test_truncated_norm_tracker_matches_gram_oracle(family):
    # the drop downdates read cached cross terms; the oracle sums every pair
    kernel = SeparableGaussian(mu=1.0, dim=2) if family == "gaussian" else NonSeparablePoly(0.4, 2)
    schedule = TruncationSchedule(t0=15, epsilon=0.25)
    xs, ys = stream(43, 240, d=2)

    def check(model):
        state = model._state
        oracle = gram_norm_sq(kernel, list(state.support), list(state.coeffs))
        assert abs(model.norm_sq - oracle) <= 1e-10 * oracle

    # lam = eta0 = 0.9 folds the lazy scale (the cross terms rescale with
    # it); 0.1 / 0.5 never does
    for lam, eta0, expect_folds in ((0.9, 0.9, True), (0.1, 0.5, False)):
        model = ONORMA(kernel, lam=lam, eta0=eta0, truncation=schedule)
        folds = fold_count_run(model, xs, ys, 10, check)
        assert (folds >= 1) == expect_folds
        assert model.support_size == schedule.window(240)


class RowCounter:
    """Counts a kernel family's support sweeps while installed.

    A sweep is a call of the family bank's ``sweep`` (one point) or of its
    ``expand_rows`` (every block of a multi-row query).
    """

    def __init__(self, monkeypatch, *families):
        self.calls = 0
        for cls in families:
            for owner, name in ((cls.bank, "sweep"), (cls.bank, "expand_rows")):

                def counted(obj, *args, _original=getattr(owner, name)):
                    self.calls += 1
                    return _original(obj, *args)

                monkeypatch.setattr(owner, name, counted)


def test_truncated_step_computes_one_row_per_kernel(monkeypatch):
    from ovklearn.monorma import MONORMA

    kernels = [SeparableGaussian(mu=1.0, dim=2), NonSeparablePoly(mu=0.4, dim=2)]
    schedule = TruncationSchedule(t0=10, epsilon=0.25)
    learners = [
        (ONORMA(kernels[0], lam=0.1, eta0=0.5, truncation=schedule), 1),
        (ONORMA(kernels[1], lam=0.1, eta0=0.5, truncation=schedule), 1),
        (MONORMA(kernels, lam=0.1, eta0=0.5, truncation=schedule), 2),
    ]
    xs, ys = stream(44, 120, d=2)
    counter = RowCounter(monkeypatch, SeparableGaussian, NonSeparablePoly)
    for model, m in learners:
        dropped = set()
        for i, (x, y) in enumerate(zip(xs, ys)):
            if i == 100:
                # a much shorter window: the next step drops ~20 terms at once
                model.truncation = TruncationSchedule(t0=5, epsilon=0.1)
            before_rows, before_size = counter.calls, model.support_size
            model.step(x, y)
            assert counter.calls - before_rows == (m if before_size else 0)
            dropped.add(before_size + 1 - model.support_size)
        assert {0, 1} <= dropped and max(dropped) >= 15
        norms = model.gamma if m == 2 else [model.norm_sq]
        state = model._state
        for kernel, tracked in zip(kernels if m == 2 else [model.kernel], norms):
            oracle = gram_norm_sq(kernel, list(state.support), list(state.coeffs))
            assert abs(tracked - oracle) <= 1e-10 * oracle


def test_truncation_switched_on_after_construction():
    k = SeparableGaussian(mu=1.0, dim=2)
    model = ONORMA(k, lam=0.1, eta0=0.5)
    xs, ys = stream(45, 150, d=2)
    model.fit(xs[:60], ys[:60])
    assert model._state.banks[0]._C is None  # untruncated learners keep no cross terms
    model.truncation = TruncationSchedule(t0=20, epsilon=0.25)
    model.fit(xs[60:], ys[60:])
    assert model.support_size == model.truncation.window(150)
    oracle = gram_norm_sq(k, list(model._state.support), list(model._state.coeffs))
    assert abs(model.norm_sq - oracle) <= 1e-10 * oracle


def test_truncated_buffers_stay_within_twice_the_live_terms():
    # the benchmark's truncated Gaussian stream keeps 593 live terms after 4000 steps
    model = ONORMA(
        SeparableGaussian(mu=1.0, dim=4),
        lam=0.1,
        eta0=0.5,
        truncation=TruncationSchedule(t0=100, epsilon=0.25),
    )
    xs, ys = stream(47, 4000, p=20, d=4)
    peak = 0
    for x, y in zip(xs, ys):
        model.step(x, y)
        peak = max(peak, model.support_size)
        assert len(model._state._T) <= 2 * max(peak, 64)
    assert model.support_size == 593


def test_lazy_scale_folds_on_an_empty_support():
    # a wide epsilon keeps every gradient zero, so the scale underflows with no terms
    model = ONORMA(
        SeparableGaussian(mu=1.0, dim=2), loss=EpsilonInsensitive(100.0), lam=0.9, eta0=0.9
    )
    xs, ys = stream(46, 60, d=2)
    model.fit(xs, ys)
    assert model.support_size == 0
    assert model._state.scale >= 1e-6


def test_same_family_bank_sweeps_once_per_step_predict_and_replay(monkeypatch, tmp_path):
    from ovklearn.checkpoint import load_model, save_model

    J = np.array([[1.0, 0.3], [0.3, 0.5]])
    # each bank with the Gaussian work one step does: scalars rows, quads,
    # cross vectors and w C products
    banks = [
        (
            [
                SeparableGaussian(mu=0.5, dim=2),
                SeparableGaussian(mu=1.0, dim=2, structure=J),
                SeparableGaussian(mu=2.0, dim=2, structure=np.eye(2)),
                SeparableGaussian(mu=4.0, dim=2),
            ],
            (4, 3, 3, 4),
        ),
        ([NonSeparablePoly(mu=mu, dim=2) for mu in (0.1, 0.5, 0.9)], (0, 0, 0, 0)),
        # equal mu, different J: one scalars pass and one w C product
        (
            [SeparableGaussian(mu=1.0, dim=2, structure=J), SeparableGaussian(mu=1.0, dim=2)],
            (1, 2, 2, 1),
        ),
        # equal J: one quad and one cross vector
        ([SeparableGaussian(mu=mu, dim=2, structure=J) for mu in (0.5, 1.0, 3.0)], (3, 1, 1, 3)),
    ]
    xs, ys = stream(46, 60, d=2)
    counter = RowCounter(monkeypatch, SeparableGaussian, NonSeparablePoly)
    work = {"rows": 0, "quad": 0, "cross_vector": 0, "weighted_sum": 0}
    bank_scalars = SeparableGaussian.bank.scalars

    def counted_scalars(bank, row):
        out = bank_scalars(bank, row)
        work["rows"] += len(out)
        return out

    monkeypatch.setattr(SeparableGaussian.bank, "scalars", counted_scalars)
    for name in ("quad", "cross_vector", "weighted_sum"):

        def counted(*args, _name=name, _original=getattr(SeparableGaussian.bank, name)):
            work[_name] += 1
            return _original(*args)

        monkeypatch.setattr(SeparableGaussian.bank, name, staticmethod(counted))
    for kernels, (rows, quads, crosses, products) in banks:
        for truncation in (None, TruncationSchedule(t0=10, epsilon=0.25)):
            model = MONORMA(kernels, lam=0.1, eta0=0.5, truncation=truncation)
            for x, y in zip(xs, ys):
                before_rows, before_size = counter.calls, model.support_size
                before = dict(work)
                model.step(x, y)
                assert counter.calls - before_rows == (1 if before_size else 0)
                # an empty support has no scalars and no terms to cross
                assert work["rows"] - before["rows"] == (rows if before_size else 0)
                assert work["quad"] - before["quad"] == quads
                made = crosses if before_size and truncation else 0
                assert work["cross_vector"] - before["cross_vector"] == made
                made = products if before_size else 0
                assert work["weighted_sum"] - before["weighted_sum"] == made
            # two rows per block: seven multi-row queries take four blocks,
            # each with one w C product per distinct mu, as one point takes
            monkeypatch.setattr(ovklearn.kernels, "_BLOCK_BYTES", 2 * 8 * model.support_size)
            for queries, blocks in ((xs[:7], 4), (xs[0], 1)):
                before_rows, before = counter.calls, dict(work)
                model.predict(queries)
                assert counter.calls - before_rows == 1
                assert work["weighted_sum"] - before["weighted_sum"] == blocks * products

            save_model(tmp_path / "bank.npz", model)
            before_rows = counter.calls
            back = load_model(tmp_path / "bank.npz")
            # a truncated restore replays each term's Gaussian sweep for the cross
            # sums; a poly bank keeps none, and a plain restore needs none
            replayed = truncation is not None and kernels[0].family == "gaussian"
            assert counter.calls - before_rows == (model.support_size if replayed else 0)
            assert np.allclose(back.predict(xs[:7]), model.predict(xs[:7]), rtol=1e-12, atol=0)


@pytest.mark.parametrize("truncated", [False, True], ids=["plain", "drifting-truncated"])
@pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
def test_point_sweep_distances_meet_the_centred_bound(offset, truncated, capsys):
    # the Gaussian point sweep's distances, against the exact rational ones
    # and the naive row, on inputs offset from the origin; the truncated
    # stream drifts by 2 in every coordinate, so each buffer move re-centres
    # its rows on a support that has left the old centre behind
    rng = np.random.default_rng(71)
    n, p, d = 240, 20, 2
    xs = offset + 0.05 * rng.uniform(size=(n, p))
    if truncated:
        xs += np.linspace(0.0, 2.0, n)[:, None]
    ys = rng.normal(size=(n, d))
    kernel = SeparableGaussian(mu=0.01, dim=d)
    schedule = TruncationSchedule(t0=20, epsilon=0.25) if truncated else None
    model = ONORMA(kernel, lam=0.1, eta0=0.5, truncation=schedule)
    naive = NaiveOnlineLearner(kernel, lam=0.1, eta0=0.5, truncation=schedule)
    state = model._state
    (bank,) = state.banks
    worst = gap = 0.0
    for t, (x, y) in enumerate(zip(xs, ys)):
        if t % 20 == 19:
            support, (rows, centre, _) = state.support, bank.centred(state)
            u = x - centre
            bound = centred_distance_bound(rows[:, p], float(np.einsum("i,i->", u, u)), p)
            row = bank.distances(support, rows, x)
            exact = exact_sq_distances(support, x)
            errors = np.array([float(abs(Fraction(r) - e)) for r, e in zip(row.tolist(), exact)])
            assert np.all(errors <= bound)
            worst = max(worst, float(np.max(errors / bound)))
            assert np.all(np.abs(row - squared_distances(support, x)) <= bound)
        got, want = model.step(x, y).prediction, naive.step(x, y)
        gap = max(gap, float(np.max(np.abs(got - want)) / np.max(np.abs(want), initial=1e-300)))
    assert model.support_size == len(naive.terms)
    # a centre left where the stream began reads 1.7e-11 at offset 0 and 12.6 at 1e6
    assert gap <= 5e-12
    # a multi-row predict reads the same kept rows, whose centre lags a
    # drifting stream; the last rows are near the terms a truncation keeps
    queries = xs[-60:]
    got, want = model.predict(queries), np.array([naive.predict(q) for q in queries])
    rows_gap = float(np.max(np.max(np.abs(got - want), axis=1) / np.max(np.abs(want), axis=1)))
    assert rows_gap <= 5e-12
    with capsys.disabled():
        print(
            f"\noffset {offset:g}: distance error {worst:.3g} of the bound, "
            f"gap {gap:.2e}, multi-row gap {rows_gap:.2e}"
        )


@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_point_sweep_beyond_the_centred_range_matches_the_naive_learner(scale):
    # centred norms above 2^1000 take the sweep's out-of-range branch: the
    # distance between two points overflows to inf, never to NaN, and a
    # stored point's distance to itself stays 0
    rng = np.random.default_rng(72)
    xs, ys = scale * rng.standard_normal((25, 3)), rng.normal(size=(25, 2))
    kernel = SeparableGaussian(mu=1.0, dim=2)
    model = ONORMA(kernel, lam=0.1, eta0=0.5)
    naive = NaiveOnlineLearner(kernel, lam=0.1, eta0=0.5)
    with np.errstate(over="ignore"):
        for x, y in zip(xs[:20], ys[:20]):
            assert np.array_equal(model.step(x, y).prediction, naive.step(x, y))
        for x in xs:
            assert np.allclose(model.predict(x), naive.predict(x), rtol=1e-12, atol=0.0)
        assert np.any(model.predict(xs[3]) != 0.0)


def test_rejected_step_leaves_the_step_count():
    def learners():
        return [
            ONORMA(SeparableGaussian(mu=1.0, dim=2), lam=0.1, eta0=0.5),
            MONORMA(
                [SeparableGaussian(mu=1.0, dim=2), NonSeparablePoly(mu=0.4, dim=2)],
                lam=0.1,
                eta0=0.5,
                truncation=TruncationSchedule(t0=3, epsilon=0.25),
            ),
        ]

    xs, ys = stream(47, 8, p=3, d=2)
    for model, clean in zip(learners(), learners()):
        model.step(np.ones(3), np.ones(2))
        clean.step(np.ones(3), np.ones(2))
        with pytest.raises(NumericsError, match="step 2"):
            model.step(np.ones(3), np.array([np.inf, 0.0]))
        assert model.t == 1 and model.support_size == 1
        for x, y in zip(xs, ys):
            got, want = model.step(x, y), clean.step(x, y)
            assert np.array_equal(got.prediction, want.prediction)
            assert got.instantaneous_risk == want.instantaneous_risk
        assert model.t == clean.t == 9
        assert np.array_equal(model._norms, clean._norms)
        assert np.array_equal(model._state.coeffs, clean._state.coeffs)
        assert np.array_equal(model.predict(xs), clean.predict(xs))

    # a rejected first step fixes no input width; a committed one does, even
    # with a zero coefficient and so no stored term
    for model in learners():
        with pytest.raises(NumericsError, match="step 1"):
            model.step(np.ones(3), np.array([np.inf, 0.0]))
        assert model.t == 0 and model.to_arrays()[3] is None
        model.step(np.ones(4), np.zeros(2))
        assert model.support_size == 0 and model.to_arrays()[0].shape == (0, 4)
        with pytest.raises(DimensionMismatch):
            model.step(np.ones(3), np.ones(2))
        model.step(np.ones(4), np.array([1.0, 0.0]))
        assert model.t == 2 and model.support_size == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_query_rows_raise_before_kernel_work(monkeypatch, bad):
    from ovklearn.batch import fit

    kernels = [SeparableGaussian(mu=1.0, dim=2), NonSeparablePoly(mu=0.4, dim=2)]
    xs, ys = stream(48, 12, p=3, d=2)
    trained = [ONORMA(kernels[0], lam=0.1, eta0=0.5), MONORMA(kernels, lam=0.1, eta0=0.5)]
    for model in trained:
        model.fit(xs, ys)
    fresh = [ONORMA(kernels[1], lam=0.1, eta0=0.5), MONORMA(kernels, lam=0.1, eta0=0.5)]
    batch = fit(kernels[1], xs, ys, 0.1)
    queries = xs[:4].copy()
    queries[2, 1] = bad
    counter = RowCounter(monkeypatch, SeparableGaussian, NonSeparablePoly)
    for model in trained + fresh + [batch]:
        with pytest.raises(DataError, match="non-finite"):
            model.predict(queries)
    with pytest.raises(DataError, match="non-finite"):
        batch.predict(queries[2])
    assert counter.calls == 0
    assert all(model.t == 12 for model in trained)
