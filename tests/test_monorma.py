import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NaiveMultiKernelLearner, gram_norm_sq
from ovklearn.exceptions import ConfigError, DimensionMismatch
from ovklearn.kernels import NonSeparablePoly, SeparableGaussian
from ovklearn.losses import EpsilonInsensitive
from ovklearn.monorma import MONORMA, delta_update
from ovklearn.onorma import ONORMA, TruncationSchedule


def stream(seed, n, p=4, d=3, scale=0.5):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, 1.0, size=(n, p))
    ys = scale * rng.normal(size=(n, d))
    return xs, ys


def kernel_trio(d):
    return [
        SeparableGaussian(mu=1.0, dim=d),
        SeparableGaussian(mu=5.0, dim=d),
        NonSeparablePoly(mu=0.3, dim=d),
    ]


def test_delta_hand_example_r1():
    got = delta_update(np.array([0.5, 0.5]), np.array([4.0, 1.0]), r=1.0)
    assert np.allclose(got, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12, rtol=0)


def test_delta_hand_example_r2_symmetric():
    got = delta_update(np.array([0.6, 0.6]), np.array([2.0, 2.0]), r=2.0)
    assert np.allclose(got, [2.0**-0.5, 2.0**-0.5], atol=1e-12, rtol=0)
    assert abs(np.sum(got**2) - 1.0) <= 1e-12


def test_delta_simplex_invariant_1000_updates():
    rng = np.random.default_rng(51)
    for _ in range(1000):
        m = int(rng.integers(2, 6))
        r = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
        prev = rng.uniform(0.05, 1.0, size=m)
        prev /= np.sum(prev**r) ** (1.0 / r)
        gamma = rng.uniform(0.0, 10.0, size=m)
        gamma[rng.uniform(size=m) < 0.1] = 0.0
        if np.all(prev**2 * gamma <= 1e-300):
            continue
        new = delta_update(prev, gamma, r)
        assert abs(np.sum(new**r) - 1.0) <= 1e-10
        assert np.all(new[gamma > 0] > 0.0)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), r=st.floats(0.3, 4.0))
def test_delta_simplex_property(seed, r):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 5))
    prev = rng.uniform(0.1, 1.0, size=m)
    prev /= np.sum(prev**r) ** (1.0 / r)
    gamma = rng.uniform(0.01, 5.0, size=m)
    new = delta_update(prev, gamma, r)
    assert abs(np.sum(new**r) - 1.0) <= 1e-10


def test_delta_scale_invariance():
    rng = np.random.default_rng(52)
    prev = rng.uniform(0.1, 1.0, size=3)
    gamma = rng.uniform(0.1, 5.0, size=3)
    base = delta_update(prev, gamma, r=2.0)
    for c in (1e-6, 0.37, 1.0, 42.0, 1e6):
        assert np.allclose(delta_update(prev, c * gamma, 2.0), base, atol=1e-12)
        assert np.allclose(delta_update(c * prev, gamma, 2.0), base, atol=1e-12)


def test_delta_monotone_responsiveness():
    new = delta_update(np.array([0.5, 0.5, 0.5]), np.array([3.0, 1.0, 0.2]), r=2.0)
    assert new[0] > new[1] > new[2] > 0.0


def test_delta_degenerate_inputs_keep_previous_weights():
    prev = np.array([0.8, 0.6])
    out = delta_update(prev, np.zeros(2), r=2.0)
    assert np.array_equal(out, prev)
    out[0] = 99.0  # the returned array is a copy
    assert prev[0] == 0.8
    tiny = delta_update(prev, np.full(2, 1e-305), r=2.0)
    assert np.array_equal(tiny, prev)


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 4.0])
def test_delta_zero_weight_stays_zero(r):
    # T_j = delta_j^2 gamma_j is 0, however large gamma_j grows
    delta = np.array([0.0, 0.5, 0.5])
    delta[1:] /= np.sum(delta[1:] ** r) ** (1.0 / r)
    for gamma in ([1e6, 1.0, 2.0], [5.0, 0.1, 3.0], [1e300, 1e-3, 1e-3]):
        delta = delta_update(delta, np.array(gamma), r)
        assert delta[0] == 0.0
        assert np.all(delta[1:] > 0.0)
        assert np.sum(delta**r) == pytest.approx(1.0, abs=1e-12)


def test_delta_single_kernel_pinned_at_one():
    for gamma in (0.0, 1e-12, 5.0):
        out = delta_update(np.array([0.7]), np.array([gamma]), r=3.0)
        assert np.array_equal(out, np.ones(1))


def test_delta_validation():
    for r in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            delta_update(np.array([0.5, 0.5]), np.array([1.0, 1.0]), r=r)
    with pytest.raises(DimensionMismatch):
        delta_update(np.array([0.5, 0.5]), np.array([1.0]), r=1.0)


def test_first_step_gamma_values():
    kernels = kernel_trio(2)
    model = MONORMA(kernels, lam=0.01, eta0=1.0)
    x = np.array([0.3, 0.6, 0.1, 0.9])
    y = np.array([1.0, -0.5])
    model.step(x, y)
    # eta_1 = 1 from a zero hypothesis: the coefficient is exactly y, so
    # gamma_j = <K_j(x, x) y, y>
    for j, k in enumerate(kernels):
        expected = float(y @ (k(x, x) @ y))
        assert abs(model.gamma[j] - expected) <= 1e-12 * max(1.0, expected)
    assert abs(np.sum(model.delta**2) - 1.0) <= 1e-10


def test_matches_naive_multikernel_oracle():
    kernels = kernel_trio(3)
    model = MONORMA(kernels, lam=0.2, eta0=0.5, r=2.0)
    naive = NaiveMultiKernelLearner(kernels, lam=0.2, eta0=0.5, r=2.0)
    xs, ys = stream(53, 40)
    for x, y in zip(xs, ys):
        res = model.step(x, y)
        expected = naive.step(x, y)
        assert np.allclose(res.prediction, expected, rtol=1e-10, atol=1e-10)
        for j in range(3):
            ref = naive.gamma[j]
            assert abs(model.gamma[j] - ref) <= 1e-8 * max(1.0, abs(ref))
        assert np.allclose(model.delta, naive.delta, rtol=1e-10, atol=1e-10)


def test_gamma_matches_gram_recomputation():
    kernels = [SeparableGaussian(mu=1.0, dim=2), NonSeparablePoly(mu=0.6, dim=2)]
    model = MONORMA(kernels, lam=0.1, eta0=0.5)
    xs, ys = stream(54, 50, d=2)
    for i, (x, y) in enumerate(zip(xs, ys), start=1):
        model.step(x, y)
        if i % 10 == 0:
            state = model._state
            for j, k in enumerate(kernels):
                oracle = gram_norm_sq(k, list(state.support), list(state.coeffs))
                assert abs(model.gamma[j] - oracle) <= 1e-8 * max(1.0, oracle)
                impl = model.per_kernel_norm_sq(j)
                assert abs(impl - oracle) <= 1e-9 * max(1.0, oracle)


def check_single_kernel_reduction(truncation, kernel=None, loss=None, lam=0.1, eta0=0.5):
    # one kernel's weight is pinned at exactly 1, so every output matches bit for bit
    k = kernel if kernel is not None else SeparableGaussian(mu=1.0, dim=3)
    multi = MONORMA([k], loss=loss, lam=lam, eta0=eta0, r=2.0, truncation=truncation)
    single = ONORMA(k, loss=loss, lam=lam, eta0=eta0, truncation=truncation)
    xs, ys = stream(55, 500)
    folds = 0
    for x, y in zip(xs, ys):
        before = single._state.scale
        rm = multi.step(x, y)
        rs = single.step(x, y)
        folds += single._state.scale > before
        assert np.array_equal(rm.prediction, rs.prediction)
        assert rm.instantaneous_risk == rs.instantaneous_risk
        assert np.array_equal(multi.delta, np.ones(1))
        assert multi.gamma[0] == single.norm_sq
    assert multi.support_size == single.support_size
    for have, want in zip(multi.to_arrays(), single.to_arrays()):
        assert np.array_equal(have, want)
    probes = np.random.default_rng(60).uniform(0.0, 1.0, size=(7, 4))
    assert np.array_equal(multi.predict(probes), single.predict(probes))
    assert np.array_equal(multi.predict(probes[0]), single.predict(probes[0]))
    return folds


def test_single_kernel_reduces_to_onorma():
    check_single_kernel_reduction(None)


def test_single_kernel_reduces_to_onorma_truncated():
    # both learners drop the same terms and downdate the norm the same way
    check_single_kernel_reduction(TruncationSchedule(t0=20, epsilon=0.25))


@pytest.mark.parametrize("truncation", [None, TruncationSchedule(t0=20, epsilon=0.25)])
def test_single_kernel_reduces_to_onorma_poly_and_eps_loss(truncation):
    check_single_kernel_reduction(truncation, kernel=NonSeparablePoly(mu=0.3, dim=3))
    check_single_kernel_reduction(truncation, loss=EpsilonInsensitive(0.25))


def test_single_kernel_reduces_to_onorma_through_folds():
    # a fast shrink folds the lazy scale into the stored coefficients
    assert check_single_kernel_reduction(None, lam=0.9, eta0=0.9) >= 1


def test_truncation_recomputes_norms():
    schedule = TruncationSchedule(t0=15, epsilon=0.25)
    kernels = [SeparableGaussian(mu=1.0, dim=2), SeparableGaussian(mu=4.0, dim=2)]
    model = MONORMA(kernels, lam=0.1, eta0=0.5, truncation=schedule)
    xs, ys = stream(56, 100, d=2)
    for t, (x, y) in enumerate(zip(xs, ys), start=1):
        model.step(x, y)
        assert model.support_size <= schedule.window(t)
        if t % 10 == 0:
            state = model._state
            for j, k in enumerate(kernels):
                oracle = gram_norm_sq(k, list(state.support), list(state.coeffs))
                assert abs(model.gamma[j] - oracle) <= 1e-8 * max(1.0, oracle)
    assert model.support_size < 100


def test_truncated_gammas_match_gram_oracle_through_folds():
    # both families at once, with the lazy scale folding (cross terms rescale)
    schedule = TruncationSchedule(t0=15, epsilon=0.25)
    kernels = [SeparableGaussian(mu=1.0, dim=2), NonSeparablePoly(mu=0.4, dim=2)]
    model = MONORMA(kernels, lam=0.9, eta0=0.9, truncation=schedule)
    xs, ys = stream(59, 240, d=2)
    folds = 0
    for t, (x, y) in enumerate(zip(xs, ys), start=1):
        before = model._state.scale
        model.step(x, y)
        folds += model._state.scale > before
        if t % 10 == 0:
            state = model._state
            for j, k in enumerate(kernels):
                oracle = gram_norm_sq(k, list(state.support), list(state.coeffs))
                assert abs(model.gamma[j] - oracle) <= 1e-10 * oracle
    assert folds >= 1
    assert model.support_size == schedule.window(240)


@pytest.mark.parametrize(
    "case",
    [
        {"lam": 0.1, "eta0": 0.5, "truncate": False},
        {"lam": 0.1, "eta0": 0.5, "truncate": True},
        {"lam": 0.9, "eta0": 0.9, "truncate": True, "folds": True},
    ],
    ids=["plain", "truncated", "folding"],
)
def test_per_kernel_norm_sq_matches_gram_oracle(case):
    # the recomputed norms come from t x t scalar Grams; both families
    schedule = TruncationSchedule(t0=15, epsilon=0.25) if case["truncate"] else None
    kernels = [SeparableGaussian(mu=1.0, dim=3), NonSeparablePoly(mu=0.4, dim=3)]
    model = MONORMA(kernels, lam=case["lam"], eta0=case["eta0"], truncation=schedule)
    single = ONORMA(kernels[1], lam=case["lam"], eta0=case["eta0"], truncation=schedule)
    xs, ys = stream(60, 120, d=3)
    folds = 0
    for t, (x, y) in enumerate(zip(xs, ys), start=1):
        before = model._state.scale
        model.step(x, y)
        single.step(x, y)
        folds += model._state.scale > before
        if t % 20 == 0:
            state = model._state
            for j, k in enumerate(kernels):
                oracle = gram_norm_sq(k, list(state.support), list(state.coeffs))
                assert abs(model.per_kernel_norm_sq(j) - oracle) <= 1e-12 * oracle
            state = single._state
            oracle = gram_norm_sq(kernels[1], list(state.support), list(state.coeffs))
            assert abs(single.hypothesis_norm_sq() - oracle) <= 1e-12 * oracle
    assert (folds >= 1) == case.get("folds", False)


def test_risk_decomposition():
    model = MONORMA(kernel_trio(2), lam=0.4, eta0=0.5)
    xs, ys = stream(57, 40, d=2)
    for x, y in zip(xs, ys):
        pre = float(np.sum(model.delta**2 * model.gamma))
        res = model.step(x, y)
        assert abs(res.instantaneous_risk - (res.loss + 0.2 * pre)) <= 1e-12


def test_delta_property_returns_copy():
    model = MONORMA(kernel_trio(2), lam=0.1, eta0=0.5)
    snapshot = model.delta
    snapshot[0] = 123.0
    assert model.delta[0] != 123.0


def test_simplex_invariant_along_full_run():
    model = MONORMA(kernel_trio(2), lam=0.1, eta0=0.5, r=1.5)
    assert abs(np.sum(model.delta**1.5) - 1.0) <= 1e-10  # uniform start on the boundary
    xs, ys = stream(58, 80, d=2)
    for x, y in zip(xs, ys):
        model.step(x, y)
        assert abs(np.sum(model.delta**1.5) - 1.0) <= 1e-10


def test_constructor_validation():
    k = SeparableGaussian(mu=1.0, dim=2)
    with pytest.raises(ConfigError):
        MONORMA([], lam=0.1)
    with pytest.raises(ConfigError):
        MONORMA([k, SeparableGaussian(mu=1.0, dim=3)], lam=0.1)
    with pytest.raises(ConfigError):
        MONORMA([k], lam=0.0)
    with pytest.raises(ConfigError):
        MONORMA([k], lam=0.5, eta0=2.0)
    with pytest.raises(ConfigError):
        MONORMA([k], lam=0.1, r=0.0)
    # the uniform start m^(-1/r) underflows to 0, or rounds to 1 so that sum_j delta_j^r = m
    for extreme in (1e-300, 1e308):
        with pytest.raises(ConfigError, match="cannot weight 2 kernels"):
            MONORMA([k, SeparableGaussian(mu=2.0, dim=2)], lam=0.1, r=extreme)
        assert np.array_equal(MONORMA([k], lam=0.1, r=extreme).delta, np.ones(1))
    # every comparison with NaN is False, so "<= 0" alone would let it in
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ConfigError):
            MONORMA([k], lam=bad)
        with pytest.raises(ConfigError):
            MONORMA([k], lam=0.1, eta0=bad)
        with pytest.raises(ConfigError):
            MONORMA([k], lam=0.1, r=bad)


def test_step_and_predict_validation():
    model = MONORMA(kernel_trio(2), lam=0.1, eta0=0.5)
    with pytest.raises(DimensionMismatch):
        model.step(np.ones(4), np.zeros(3))
    model.step(np.ones(4), np.full(2, 0.1))
    with pytest.raises(DimensionMismatch):
        model.predict(np.ones((3, 5)))
    with pytest.raises(DimensionMismatch):
        model.step(np.ones(5), np.full(2, 0.1))
