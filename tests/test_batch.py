import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from conftest import block_gram
from ovklearn.batch import BatchModel, _dense_solve, fit, regularized_risk
from ovklearn.exceptions import ConfigError, DataError, DimensionMismatch, NumericsError
from ovklearn.kernels import NonSeparablePoly, SeparableGaussian
from ovklearn.onorma import ONORMA


# structure matrices J of the Gaussian draws; "ones" has d - 1 zero eigenvalues
STRUCTURES = ("default", "identity", "ones", "psd", "rank-deficient")
# every structure, both families at t = 1 and d = 1, and one larger separable solve
EDGE_CASES = (
    [{"kind": s} for s in STRUCTURES]
    + [{"kind": k, "t": 1} for k in ("poly", "ones")]
    + [{"kind": k, "d": 1} for k in ("poly", "psd", "rank-deficient")]
    + [{"kind": "psd", "t": 200}]
)


def random_structure(rng, kind, d):
    if kind == "default":
        return None
    if kind == "identity":
        return np.eye(d)
    if kind == "ones":
        return np.ones((d, d))
    rank = d if kind == "psd" else int(rng.integers(0, d))
    factor = rng.normal(size=(d, rank))
    return factor @ factor.T


def random_problem(rng, t_max=60, d_max=4, t=None, d=None, kind=None):
    """A random ridge problem; ``kind`` is "poly" or a Gaussian's structure, None a random one."""
    t = int(rng.integers(1, t_max + 1)) if t is None else t
    d = int(rng.integers(1, d_max + 1)) if d is None else d
    p = int(rng.integers(2, 6))
    if kind is None:
        kind = "poly" if rng.uniform() < 0.5 else STRUCTURES[rng.integers(len(STRUCTURES))]
    if kind == "poly":
        kernel = NonSeparablePoly(mu=float(rng.uniform(0.0, 1.0)), dim=d)
    else:
        J = random_structure(rng, kind, d)
        kernel = SeparableGaussian(mu=float(rng.uniform(0.5, 4.0)), dim=d, structure=J)
    xs = rng.uniform(0.0, 1.0, size=(t, p))
    ys = rng.normal(size=(t, d))
    lam = float(rng.uniform(1e-3, 10.0))
    return kernel, xs, ys, lam


def test_single_point_identity_structure_closed_form():
    for lam in (0.01, 1.0, 7.5):
        kernel = SeparableGaussian(mu=1.0, dim=3, structure=np.eye(3))
        x = np.array([[0.2, 0.8]])
        y = np.array([[1.0, -2.0, 0.5]])
        model = fit(kernel, x, y, lam)
        assert np.allclose(model.coeffs, y / (1.0 + lam), atol=1e-12, rtol=1e-12)
        assert np.allclose(model.predict(x[0]), y[0] / (1.0 + lam), atol=1e-12)


def test_residuals_on_random_systems():
    rng = np.random.default_rng(61)
    for case in EDGE_CASES + [{}] * 20:
        kernel, xs, ys, lam = random_problem(rng, **case)
        model = fit(kernel, xs, ys, lam)
        t = len(xs)
        gram = block_gram(kernel, xs)  # independent assembly
        a = model.coeffs.ravel()
        y = ys.ravel()
        residual = np.linalg.norm(gram @ a + lam * t * a - y)
        assert residual <= 1e-8 * np.linalg.norm(y)


def test_matches_independent_dense_solver():
    rng = np.random.default_rng(62)
    for case in EDGE_CASES + [{}] * 10:
        kernel, xs, ys, lam = random_problem(rng, t_max=25, **case)
        model = fit(kernel, xs, ys, lam)
        t, d = ys.shape
        system = block_gram(kernel, xs) + lam * t * np.eye(t * d)
        oracle = np.linalg.solve(system, ys.ravel())
        scale = max(1.0, float(np.linalg.norm(oracle)))
        assert np.linalg.norm(model.coeffs.ravel() - oracle) <= 1e-8 * scale


def test_shrinkage_with_large_lambda():
    rng = np.random.default_rng(63)
    kernel = SeparableGaussian(mu=1.0, dim=2)
    xs = rng.uniform(size=(12, 3))
    ys = rng.normal(size=(12, 2))
    for lam in (1.0, 10.0, 1e3):
        model = fit(kernel, xs, ys, lam)
        a = model.coeffs.ravel()
        assert np.linalg.norm(a) <= np.linalg.norm(ys.ravel()) / (lam * 12) * (1 + 1e-9)


def test_minimality_against_perturbations():
    rng = np.random.default_rng(64)
    kernel, xs, ys, lam = random_problem(rng, t_max=20)
    model = fit(kernel, xs, ys, lam)
    best = regularized_risk(model, xs, ys)
    gram = kernel.gram(xs)
    for _ in range(100):
        noise = rng.normal(size=model.coeffs.shape) * rng.choice([1e-4, 1e-2, 0.5])
        coeffs = model.coeffs + noise
        a = coeffs.ravel()
        rival = BatchModel(kernel, xs, coeffs, lam, float(a @ (gram @ a)))
        assert best <= regularized_risk(rival, xs, ys) + 1e-9


def test_minimality_against_online_final_hypothesis():
    rng = np.random.default_rng(65)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        kernel = SeparableGaussian(mu=float(rng.uniform(0.5, 3.0)), dim=d)
        xs = rng.uniform(size=(int(rng.integers(5, 41)), 3))
        ys = 0.5 * rng.normal(size=(len(xs), d))
        lam = float(rng.uniform(0.05, 2.0))
        batch = fit(kernel, xs, ys, lam)
        online = ONORMA(kernel, lam=lam, eta0=0.5 / lam if lam > 0.5 else 0.5)
        online.fit(xs, ys)
        preds = online.predict(xs)
        data_term = 0.5 * float(np.mean(np.sum((preds - ys) ** 2, axis=1)))
        online_risk = data_term + 0.5 * lam * online.per_kernel_norm_sq(0)
        assert regularized_risk(batch, xs, ys) <= online_risk + 1e-9


def test_zero_targets_give_zero_model():
    kernel = NonSeparablePoly(mu=0.5, dim=2)
    xs = np.random.default_rng(66).uniform(size=(8, 3))
    ys = np.zeros((8, 2))
    model = fit(kernel, xs, ys, 0.5)
    assert np.allclose(model.coeffs, 0.0, atol=1e-12)
    assert regularized_risk(model, xs, ys) <= 1e-18


def test_risk_not_worse_than_zero_function():
    rng = np.random.default_rng(67)
    kernel, xs, ys, lam = random_problem(rng, t_max=30)
    model = fit(kernel, xs, ys, lam)
    zero_risk = 0.5 * float(np.mean(np.sum(ys**2, axis=1)))
    assert regularized_risk(model, xs, ys) <= zero_risk + 1e-12


def test_norm_bound_two_cy_over_lambda():
    rng = np.random.default_rng(68)
    for _ in range(20):
        kernel, xs, ys, lam = random_problem(rng, t_max=30)
        model = fit(kernel, xs, ys, lam)
        c_y = float(np.max(np.linalg.norm(ys, axis=1)))
        assert np.sqrt(max(model.norm_sq, 0.0)) <= 2.0 * c_y / lam + 1e-9


def test_norm_sq_matches_gram_form():
    rng = np.random.default_rng(69)
    kernel, xs, ys, lam = random_problem(rng, t_max=15)
    model = fit(kernel, xs, ys, lam)
    a = model.coeffs.ravel()
    oracle = float(a @ (block_gram(kernel, xs) @ a))
    assert abs(model.norm_sq - oracle) <= 1e-9 * max(1.0, abs(oracle))


def test_predict_batch_matches_pointwise():
    rng = np.random.default_rng(70)
    kernel, xs, ys, lam = random_problem(rng, t_max=15)
    model = fit(kernel, xs, ys, lam)
    queries = rng.uniform(size=(7, xs.shape[1]))
    rows = np.stack([model.predict(q) for q in queries])
    assert np.allclose(model.predict(queries), rows, atol=1e-12, rtol=1e-12)


def test_validation_errors():
    kernel = SeparableGaussian(mu=1.0, dim=2)
    xs = np.ones((3, 2))
    ys = np.ones((3, 2))
    with pytest.raises(ConfigError):
        fit(kernel, np.empty((0, 2)), np.empty((0, 2)), 0.1)
    with pytest.raises(ConfigError):
        fit(kernel, xs, ys, 0.0)
    for lam in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            fit(kernel, xs, ys, lam)
    with pytest.raises(ConfigError):
        fit(kernel, xs, ys[:2], 0.1)
    # wrong shapes are DimensionMismatch and non-finite entries DataError
    x4, y4 = np.ones((4, 2)), np.ones((4, 2))
    for bad_xs in (np.ones(4), np.ones((4, 2, 1))):
        with pytest.raises(DimensionMismatch):
            fit(kernel, bad_xs, y4, 0.1)
    for bad_ys in (np.ones((4, 3)), np.ones(4), np.ones((4, 1))):
        with pytest.raises(DimensionMismatch):
            fit(kernel, x4, bad_ys, 0.1)
    for bad in (np.nan, np.inf):
        bad_xs, bad_ys = x4.copy(), y4.copy()
        bad_xs[1, 0] = bad_ys[2, 1] = bad
        with pytest.raises(DataError, match="non-finite inputs"):
            fit(kernel, bad_xs, y4, 0.1)
        with pytest.raises(DataError, match="non-finite targets"):
            fit(kernel, x4, bad_ys, 0.1)
    # the risk checks its examples as a fit does, instead of broadcasting them
    model = fit(kernel, x4, y4, 0.1)
    with pytest.raises(DimensionMismatch):
        regularized_risk(model, x4, y4[:, :1])
    with pytest.raises(ConfigError):
        regularized_risk(model, x4, y4[:1])
    # predict reads the terms given at construction, so they cannot be swapped
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.coeffs = np.zeros((4, 2))


def test_singular_system_raises_numerics_error():
    # duplicated inputs make the Gram exactly singular; with lambda this
    # small the regularized system is numerically unsolvable
    kernel = SeparableGaussian(mu=1.0, dim=2)
    xs = np.array([[1.0, 2.0], [1.0, 2.0]])
    ys = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(NumericsError):
        fit(kernel, xs, ys, 1e-300)


def test_gaussian_fit_never_forms_the_block_gram(monkeypatch):
    def refuse(self, xs):
        raise AssertionError("a Gaussian fit formed the td x td block Gram")

    rng = np.random.default_rng(71)
    kernel = SeparableGaussian(mu=1.5, dim=3)
    xs = rng.uniform(size=(30, 4))
    ys = rng.normal(size=(30, 3))
    lam = 0.2
    monkeypatch.setattr(SeparableGaussian, "gram", refuse)
    model = fit(kernel, xs, ys, lam)
    risk = regularized_risk(model, xs, ys)
    gram = block_gram(kernel, xs)
    a = model.coeffs.ravel()
    residuals = (gram @ a).reshape(ys.shape) - ys
    norm_sq = float(a @ (gram @ a))
    oracle = 0.5 * float(np.mean(np.sum(residuals**2, axis=1))) + 0.5 * lam * norm_sq
    assert abs(model.norm_sq - norm_sq) <= 1e-9 * norm_sq
    assert abs(risk - oracle) <= 1e-9 * oracle


@pytest.mark.parametrize(
    "kernel",
    [
        SeparableGaussian(mu=1.0, dim=2),
        NonSeparablePoly(mu=0.3, dim=2),
        SeparableGaussian(mu=1.0, dim=2, structure=np.eye(2)),  # one shared factor
    ],
)
def test_jittered_retry_solves_a_singular_consistent_system(kernel):
    # a duplicated input with a duplicated target: the Gram is singular but
    # the targets lie in its range, so the first factor fails and the
    # jittered one solves the unjittered system to the residual tolerance
    xs = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 1.0]])
    ys = np.array([[1.0, 0.5], [1.0, 0.5], [-1.0, 2.0]])
    model = fit(kernel, xs, ys, 1e-300)
    gram = block_gram(kernel, xs)
    a = model.coeffs.ravel()
    assert np.linalg.norm(gram @ a - ys.ravel()) <= 1e-8 * np.linalg.norm(ys)
    assert np.allclose(model.coeffs[0], model.coeffs[1], rtol=1e-5)


def kron_dense_solve(kernel, xs, ys, lam, jitter=False):
    """The poly fit built the plain way: a Kronecker-sum Gram, the ridge on a
    copy, an optional jitter by a td x td identity, then one Cholesky."""
    t, d = ys.shape
    p = xs @ xs.T
    gram = np.kron(kernel.mu * p, np.ones((d, d))) + np.kron(
        (1.0 - kernel.mu) * p * p, np.eye(d)
    )
    system = gram.copy()
    system.flat[:: t * d + 1] += lam * t
    if jitter:
        system = system + 1e-10 * np.trace(gram) / (t * d) * np.eye(t * d)
    return scipy.linalg.cho_solve(scipy.linalg.cho_factor(system), ys.ravel()).reshape(t, d)


@pytest.mark.parametrize("mu", [0.0, 0.2, 1.0])
@pytest.mark.parametrize("d", [1, 4])
@pytest.mark.parametrize("t", [1, 37, 250])
def test_dense_fit_is_bit_identical_to_the_kron_solve(mu, d, t):
    rng = np.random.default_rng(72)
    xs = rng.normal(size=(t, 20)) / 4.0
    ys = rng.normal(size=(t, d))
    kernel = NonSeparablePoly(mu=mu, dim=d)
    model = fit(kernel, xs, ys, 0.01)
    assert np.array_equal(model.coeffs, kron_dense_solve(kernel, xs, ys, 0.01))


def test_dense_retry_factors_a_freshly_built_system(monkeypatch):
    # the first factor overwrites the buffer and then fails; the retry must
    # rebuild the system, not factor what the failed attempt left behind
    real = scipy.linalg.cho_factor
    calls = []

    def fail_first(a, *args, **kwargs):
        calls.append(a.shape)
        factor = real(a, *args, **kwargs)
        if len(calls) == 1:
            raise scipy.linalg.LinAlgError("forced failure")
        return factor

    rng = np.random.default_rng(73)
    kernel = NonSeparablePoly(mu=0.3, dim=3)
    xs = rng.normal(size=(40, 5))
    ys = rng.normal(size=(40, 3))
    expected = kron_dense_solve(kernel, xs, ys, 0.05, jitter=True)
    monkeypatch.setattr(scipy.linalg, "cho_factor", fail_first)
    model = fit(kernel, xs, ys, 0.05)
    assert len(calls) == 2
    assert np.array_equal(model.coeffs, expected)


@pytest.mark.parametrize("kernel", [SeparableGaussian(mu=1.0, dim=3), NonSeparablePoly(mu=0.3, dim=3)])
def test_a_failed_jittered_retry_names_the_jitter_and_the_condition(kernel, monkeypatch):
    calls = []

    def always_fail(*args, **kwargs):
        calls.append(1)
        raise scipy.linalg.LinAlgError("forced failure")

    rng = np.random.default_rng(74)
    xs, ys = rng.normal(size=(12, 4)), rng.normal(size=(12, 3))
    monkeypatch.setattr(scipy.linalg, "cho_factor", always_fail)
    with pytest.raises(NumericsError, match=r"even with jitter \d\.\d{3}e[-+]\d+; condition estimate \d"):
        fit(kernel, xs, ys, 0.05)
    assert len(calls) == 2  # the plain factor and the jittered retry


@pytest.fixture
def factor_calls(monkeypatch):
    """The list that gets one entry per ``scipy.linalg.cho_factor`` call."""
    real = scipy.linalg.cho_factor
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_factor", counting)
    return calls


def rotated_diagonal(rng, diagonal):
    """``Q diag(diagonal) Q^T`` for a random orthogonal Q: repeated values split by rounding."""
    q, _ = np.linalg.qr(rng.normal(size=(len(diagonal), len(diagonal))))
    return (q * diagonal) @ q.T


@pytest.mark.parametrize(
    "structure, groups, exact",
    [
        ("psd", 4, True),
        ("default", 2, False),  # 0.9 three times, split by eigh, and 1.3
        ("identity", 1, True),  # eigh returns four exact 1s
        ([1.0, 1.0, 2.0, 2.0], 2, False),
        ([1.0, 1.0 + 1e-9, 2.0, 3.0], 4, True),  # 1e-9 apart stays apart
    ],
    ids=["psd", "default", "identity", "rotated", "close"],
)
def test_separable_fit_factors_once_per_eigenvalue_group(structure, groups, exact, factor_calls):
    rng = np.random.default_rng(76)
    t, d, lam = 60, 4, 0.05
    if isinstance(structure, list):
        structure = rotated_diagonal(rng, structure)
    else:
        structure = random_structure(rng, structure, d)
    kernel = SeparableGaussian(mu=1.5, dim=d, structure=structure)
    xs = rng.normal(size=(t, 5))
    ys = rng.normal(size=(t, d))
    eigvals, eigvecs = kernel.structure_eig
    # the reference factors every direction afresh with its own eigenvalue,
    # with scipy's finiteness checks left on
    scalar, rotated = kernel.scalar_gram(xs), ys @ eigvecs
    columns = []
    for j in range(d):
        block = scalar * eigvals[j]
        block.flat[:: t + 1] += lam * t
        columns.append(scipy.linalg.cho_solve(scipy.linalg.cho_factor(block.T), rotated[:, j]))
    expected = np.column_stack(columns) @ eigvecs.T
    factor_calls.clear()
    model = fit(kernel, xs, ys, lam)
    assert len(kernel.structure_groups) == groups
    assert len(factor_calls) == groups
    if exact:
        assert np.array_equal(model.coeffs, expected)
    else:
        # a group shares the system of its first eigh value, which the
        # others differ from by a few ulps
        gap = np.max(np.abs(model.coeffs - expected))
        assert gap <= 1e-14 * np.max(np.abs(expected))


@pytest.mark.parametrize("kernel", [SeparableGaussian(mu=1.0, dim=2), NonSeparablePoly(mu=0.2, dim=2)])
def test_fit_on_inputs_whose_kernel_values_overflow_raises_numerics_error(kernel):
    # the Gaussian's centred product reaches inf - inf, the poly's inner products inf
    xs = np.random.default_rng(0).standard_normal((40, 3)) * 1e160
    ys = np.random.default_rng(1).standard_normal((40, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericsError, match="non-finite kernel values"):
            fit(kernel, xs, ys, 3.0)


def test_poly_fit_takes_inner_products_whose_squares_are_finite():
    # P spans -5.1e153 .. 1.3e154: each square of P∘P is finite, though the
    # sum of the smallest and largest squares overflows
    a = 1.05e308**0.25
    xs = np.array([[a, 0.0], [-0.5 * a, a]])
    ys = np.array([[1e10, -2e10], [3e10, 1e10]])
    # the jitter's trace of the system overflows, but no retry reads it
    with np.errstate(over="ignore"):
        model = fit(NonSeparablePoly(mu=0.2, dim=2), xs, ys, 0.1)
    assert np.all(np.isfinite(model.coeffs)) and np.isfinite(model.norm_sq)


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dense_fit_holds_one_system_in_memory():
    # one td x td buffer, factored without a copy; the t x t arrays add 1/d^2 each
    t, d = 250, 4
    rng = np.random.default_rng(74)
    xs = rng.normal(size=(t, 20))
    ys = rng.normal(size=(t, d))
    kernel = NonSeparablePoly(mu=0.2, dim=d)
    system_bytes = 8 * (t * d) ** 2
    fit(kernel, xs, ys, 0.01)  # warm-up: one-time allocations are not the fit's
    assert _peak_bytes(lambda: fit(kernel, xs, ys, 0.01)) <= 1.5 * system_bytes
    assert _peak_bytes(lambda: kernel.gram(xs)) <= 1.25 * system_bytes


@pytest.mark.parametrize("d", [1, 3])
def test_dense_condition_estimate_matches_the_block_system(d):
    rng = np.random.default_rng(75)
    t, lam = 9, 0.05
    kernel = NonSeparablePoly(mu=0.3, dim=d)
    xs = rng.uniform(-1.0, 1.0, size=(t, 3))
    ys = rng.normal(size=(t, d))
    _, cond = _dense_solve(kernel, kernel.scalar_gram(xs), ys, lam * t)
    oracle = np.linalg.cond(block_gram(kernel, xs) + lam * t * np.eye(t * d))
    assert abs(cond() - oracle) <= 1e-6 * oracle
