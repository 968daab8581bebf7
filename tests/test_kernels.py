import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import block_gram, power_iteration_norm
from ovklearn.batch import BatchModel
from ovklearn.exceptions import ConfigError, DimensionMismatch
from ovklearn.kernels import (
    NonSeparablePoly,
    SeparableGaussian,
    default_structure,
    kernel_from_dict,
    operator_norm_bound,
)


def random_kernel(rng, dim):
    if rng.uniform() < 0.5:
        return SeparableGaussian(mu=float(rng.uniform(0.2, 5.0)), dim=dim)
    return NonSeparablePoly(mu=float(rng.uniform(0.0, 1.0)), dim=dim)


def test_default_structure_values():
    J = default_structure(3)
    assert np.allclose(np.diag(J), 1.0)
    off = J[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 0.1)


def test_gaussian_hand_values():
    k = SeparableGaussian(mu=1.0, dim=2)
    x = np.array([0.3, -0.7])
    # same point: scalar factor is exp(0) = 1, so K(x, x) == J
    assert np.allclose(k(x, x), [[1.0, 0.1], [0.1, 1.0]], atol=1e-15)
    k2 = SeparableGaussian(mu=2.0, dim=2)
    a = np.array([0.0, 0.0])
    b = np.array([1.0, 0.0])
    expected = np.exp(-0.5) * default_structure(2)
    assert np.allclose(k2(a, b), expected, atol=1e-15)


def test_poly_hand_value():
    k = NonSeparablePoly(mu=0.2, dim=2)
    x = np.array([1.0, 1.0])
    # <x, x'> = 2: 0.2*2*ONES + 0.8*4*I
    assert np.allclose(k(x, x), [[3.6, 0.4], [0.4, 3.6]], atol=1e-14)


def test_poly_extremes():
    x = np.array([1.0, 2.0])
    x2 = np.array([0.5, -1.0])
    dot = float(x @ x2)
    coupled = NonSeparablePoly(mu=1.0, dim=3)
    assert np.allclose(coupled(x, x2), dot * np.ones((3, 3)), atol=1e-14)
    independent = NonSeparablePoly(mu=0.0, dim=3)
    assert np.allclose(independent(x, x2), dot * dot * np.eye(3), atol=1e-14)


def test_symmetry_1000_pairs():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        dim = int(rng.integers(1, 5))
        p = int(rng.integers(1, 7))
        k = random_kernel(rng, dim)
        x = rng.normal(size=p)
        x2 = rng.normal(size=p)
        diff = np.max(np.abs(k(x, x2) - k(x2, x).T))
        assert diff <= 1e-12


def test_positive_definiteness_1000_sets():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        dim = int(rng.integers(1, 5))
        p = int(rng.integers(1, 7))
        n = int(rng.integers(1, 9))
        k = random_kernel(rng, dim)
        xs = rng.uniform(-1.0, 1.0, size=(n, p))
        ys = rng.normal(size=(n, dim))
        form = 0.0
        for a in range(n):
            for b in range(n):
                form += float(ys[a] @ (k(xs[a], xs[b]) @ ys[b]))
        assert form >= -1e-9


@settings(max_examples=60, deadline=None)
@given(mu=st.floats(0.1, 10.0), seed=st.integers(0, 2**32 - 1))
def test_gaussian_axioms_property(mu, seed):
    rng = np.random.default_rng(seed)
    k = SeparableGaussian(mu=mu, dim=2)
    x = rng.normal(size=3)
    x2 = rng.normal(size=3)
    assert np.max(np.abs(k(x, x2) - k(x2, x).T)) <= 1e-12
    ys = rng.normal(size=(2, 2))
    form = sum(
        float(ys[a] @ (k([x, x2][a], [x, x2][b]) @ ys[b]))
        for a in range(2)
        for b in range(2)
    )
    assert form >= -1e-9


def test_row_methods_match_kernel_matrices():
    # the online step's per-term products, checked against K(x_i, x) itself;
    # the family row comes from another kernel of the family, as in a bank
    rng = np.random.default_rng(15)
    for _ in range(50):
        dim = int(rng.integers(1, 5))
        k = random_kernel(rng, dim)
        sibling = dataclasses.replace(k, mu=k.mu / 2)
        support = rng.normal(size=(int(rng.integers(1, 8)), 3))
        coeffs = rng.normal(size=(len(support), dim))
        x, a = rng.normal(size=3), rng.normal(size=dim)
        row = k.scalars(sibling.row(support, x))
        expansion = sum(k(xi, x) @ ci for xi, ci in zip(support, coeffs))
        cross = [float(ci @ (k(xi, x) @ a)) for xi, ci in zip(support, coeffs)]
        sums = coeffs.sum(axis=1)
        assert np.allclose(k.row_expansion(row, coeffs, sums), expansion, rtol=1e-12, atol=1e-12)
        assert np.allclose(k.row_cross(row, coeffs, sums, a), cross, rtol=1e-12, atol=1e-12)
        quad = float(a @ (k(x, x) @ a))
        assert abs(k.quad(x, a) - quad) <= 1e-12 * max(1.0, abs(quad))

        queries = rng.normal(size=(3, 3))
        rows = sibling.row_sweep(support)(queries, np.empty((3, len(support))))
        kept = rows.copy()
        batch = k.row_expansion(k.scalars(rows), coeffs, sums, None, np.empty((3, dim)))
        assert np.array_equal(rows, kept)  # scratch=None leaves the shared rows intact
        naive = [sum(k(xi, q) @ ci for xi, ci in zip(support, coeffs)) for q in queries]
        assert np.allclose(batch, naive, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 4, 7])
@pytest.mark.parametrize("s", [1, 7, 350])
def test_row_expansion_keeps_the_point_forms(dim, s):
    # one query's expansion has the floats of each family's point form, and
    # a one-row block those of the query: the step's bits do not depend on
    # the expansion also serving blocks
    rng = np.random.default_rng(dim * 1000 + s)
    scalars = rng.uniform(-1.0, 1.0, size=s)
    coeffs = rng.normal(size=(s, dim))
    sums = coeffs.sum(axis=1)
    gaussian = SeparableGaussian(mu=1.3, dim=dim, structure=default_structure(dim))
    poly = NonSeparablePoly(mu=0.3, dim=dim)
    J, w, mu = gaussian.structure, scalars, poly.mu
    point_forms = [
        (gaussian, J @ (w @ coeffs)),
        (poly, mu * (w @ sums) * np.ones(dim) + (1.0 - mu) * ((w * w) @ coeffs)),
    ]
    for kernel, point in point_forms:
        one = kernel.row_expansion(scalars, coeffs, sums)
        assert one.shape == (dim,) and np.array_equal(one, point)
        block = kernel.row_expansion(scalars[None], coeffs, sums, out=np.empty((1, dim)))
        assert np.array_equal(block[0], one)


def test_expansion_matches_naive_sum():
    rng = np.random.default_rng(14)
    for _ in range(30):
        dim = int(rng.integers(1, 5))
        k = random_kernel(rng, dim)
        n = int(rng.integers(1, 10))
        support = rng.normal(size=(n, 3))
        coeffs = rng.normal(size=(n, dim))
        query = rng.normal(size=3)
        naive = np.zeros(dim)
        for i in range(n):
            naive += k(support[i], query) @ coeffs[i]
        model = BatchModel(k, support, coeffs, lam=0.1, norm_sq=0.0)
        got = model.predict(query)
        assert np.allclose(got, naive, atol=1e-10, rtol=1e-10)
        batch = rng.normal(size=(4, 3))
        rows = np.stack([model.predict(q) for q in batch])
        got_batch = model.predict(batch)
        assert got_batch.shape == (4, dim)
        assert np.allclose(got_batch, rows, atol=1e-10, rtol=1e-10)


def test_expansion_empty_support():
    k = NonSeparablePoly(mu=0.5, dim=3)
    model = BatchModel(k, np.empty((0, 2)), np.empty((0, 3)), lam=0.1, norm_sq=0.0)
    assert np.array_equal(model.predict(np.ones(2)), np.zeros(3))
    batch = model.predict(np.ones((5, 2)))
    assert np.array_equal(batch, np.zeros((5, 3)))


def test_gram_matches_blockwise_assembly():
    rng = np.random.default_rng(15)
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        k = random_kernel(rng, dim)
        xs = rng.normal(size=(int(rng.integers(1, 7)), 3))
        assert np.allclose(k.gram(xs), block_gram(k, xs), atol=1e-12, rtol=1e-12)


@pytest.mark.parametrize("mu", [0.0, 0.2, 1.0])
@pytest.mark.parametrize("dim", [1, 4])
def test_poly_gram_equals_the_kronecker_sum(mu, dim):
    # the one-buffer writer puts the same floats where the Kronecker sum does
    xs = np.random.default_rng(18).normal(size=(37, 5))
    k = NonSeparablePoly(mu=mu, dim=dim)
    p = xs @ xs.T
    kron = np.kron(mu * p, np.ones((dim, dim))) + np.kron((1.0 - mu) * p * p, np.eye(dim))
    assert np.array_equal(k.gram(xs), kron)


def test_gram_symmetric_psd():
    rng = np.random.default_rng(16)
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        k = random_kernel(rng, dim)
        xs = rng.uniform(-1.0, 1.0, size=(5, 3))
        g = k.gram(xs)
        assert np.allclose(g, g.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(g)) >= -1e-8


def test_diag_operator_norm_hand_values():
    J = np.array([[1.0, 0.1], [0.1, 1.0]])
    k = SeparableGaussian(mu=1.0, dim=2, structure=J)
    assert abs(k.diag_operator_norm(np.zeros(3)) - 1.1) <= 1e-12
    # default structure for d = 4 has top eigenvalue 0.9 + 0.1 * 4
    k4 = SeparableGaussian(mu=1.0, dim=4)
    assert abs(k4.diag_operator_norm(np.ones(2)) - 1.3) <= 1e-12
    poly = NonSeparablePoly(mu=0.5, dim=2)
    assert poly.diag_operator_norm(np.zeros(3)) == 0.0


def test_diag_norm_matches_power_iteration():
    rng = np.random.default_rng(17)
    for _ in range(40):
        dim = int(rng.integers(2, 6))
        k = random_kernel(rng, dim)
        x = rng.normal(size=4)
        oracle = power_iteration_norm(k(x, x))
        assert abs(k.diag_operator_norm(x) - oracle) <= 1e-9 * max(1.0, oracle)


def test_operator_norm_bound():
    k = SeparableGaussian(mu=1.0, dim=2, structure=np.array([[1.0, 0.1], [0.1, 1.0]]))
    xs = np.random.default_rng(18).normal(size=(10, 3))
    assert abs(operator_norm_bound(k, xs) - 1.1) <= 1e-12
    poly = NonSeparablePoly(mu=0.5, dim=2)
    assert operator_norm_bound(poly, np.zeros((1, 3))) == 0.0
    oracle = max(power_iteration_norm(poly(x, x)) for x in xs)
    assert abs(operator_norm_bound(poly, xs) - oracle) <= 1e-9 * max(1.0, oracle)
    with pytest.raises(ValueError):
        operator_norm_bound(poly, np.empty((0, 3)))


def test_structure_validation():
    with pytest.raises(ConfigError):
        SeparableGaussian(mu=1.0, dim=2, structure=np.array([[1.0, 0.2], [0.1, 1.0]]))
    # an asymmetry far below allclose's default rtol still breaks K(x, x') == K(x', x)^T
    for off in (4e-6, 1e-11):
        with pytest.raises(ConfigError, match="symmetric"):
            SeparableGaussian(mu=1.0, dim=2, structure=np.array([[1.0, 0.2], [0.2 + off, 1.0]]))
    # relative to max|J|: rounding-level asymmetry of a large J passes
    big = 1e6 * np.array([[1.0, 0.2], [0.2 + 2e-16, 1.0]])
    assert SeparableGaussian(mu=1.0, dim=2, structure=big).structure[0, 1] == big[0, 1]
    with pytest.raises(ConfigError):
        # eigenvalues 3 and -1: symmetric but indefinite
        SeparableGaussian(mu=1.0, dim=2, structure=np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(DimensionMismatch):
        SeparableGaussian(mu=1.0, dim=3, structure=np.eye(2))
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ConfigError, match="must be finite"):
            SeparableGaussian(mu=1.0, dim=2, structure=np.array([[bad, 0.0], [0.0, 1.0]]))


def test_structure_spectrum_is_computed_once(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    k = SeparableGaussian(mu=1.0, dim=2, structure=np.array([[1.0, 0.1], [0.1, 1.0]]))
    xs = np.random.default_rng(19).normal(size=(10, 3))
    assert abs(k.diag_operator_norm(xs[0]) - 1.1) <= 1e-12
    assert abs(operator_norm_bound(k, xs) - 1.1) <= 1e-12
    assert len(calls) == 1


def test_parameter_validation():
    with pytest.raises(ConfigError):
        SeparableGaussian(mu=0.0, dim=2)
    with pytest.raises(ConfigError):
        SeparableGaussian(mu=-1.0, dim=2)
    for mu in (float("inf"), float("nan")):
        with pytest.raises(ConfigError):
            SeparableGaussian(mu=mu, dim=2)
    with pytest.raises(ConfigError):
        SeparableGaussian(mu=1.0, dim=0)
    with pytest.raises(ConfigError):
        NonSeparablePoly(mu=-0.1, dim=2)
    with pytest.raises(ConfigError):
        NonSeparablePoly(mu=1.1, dim=2)
    with pytest.raises(ConfigError):
        NonSeparablePoly(mu=0.5, dim=0)


def test_input_dimension_mismatch():
    k = SeparableGaussian(mu=1.0, dim=2)
    with pytest.raises(DimensionMismatch):
        k(np.ones(3), np.ones(4))
    with pytest.raises(DimensionMismatch):
        BatchModel(k, np.ones((2, 3)), np.ones((2, 3)), lam=0.1, norm_sq=0.0)


def test_kernels_are_immutable():
    k = SeparableGaussian(mu=1.0, dim=2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        k.mu = 2.0
    with pytest.raises(ValueError):
        k.structure[0, 0] = 5.0
    p = NonSeparablePoly(mu=0.5, dim=2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.mu = 0.9


def test_to_dict_round_trip():
    rng = np.random.default_rng(19)
    x, x2 = rng.normal(size=3), rng.normal(size=3)
    for k in (
        SeparableGaussian(mu=2.5, dim=3),
        SeparableGaussian(mu=0.7, dim=2, structure=np.array([[2.0, 0.0], [0.0, 1.0]])),
        NonSeparablePoly(mu=0.3, dim=4),
    ):
        back = kernel_from_dict(k.to_dict())
        assert type(back) is type(k)
        assert np.allclose(back(x, x2), k(x, x2), atol=1e-15)
    with pytest.raises(ConfigError):
        kernel_from_dict({"family": "laplace", "mu": 1.0, "dim": 2})
