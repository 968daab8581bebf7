import copy
import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    block_gram,
    centred_distance_bound,
    exact_sq_distances,
    gaussian_cross,
    gaussian_expansion,
    gaussian_quad,
    gaussian_scalars,
    poly_drop_share,
    poly_expansion,
    poly_quad,
    poly_sums,
    power_iteration_norm,
    squared_distances,
)
from ovklearn.batch import BatchModel, fit
from ovklearn.checkpoint import load_model, save_model
from ovklearn.cli import main
from ovklearn.exceptions import ConfigError, DimensionMismatch
from ovklearn.kernels import (
    FAMILIES,
    NonSeparablePoly,
    SeparableGaussian,
    default_structure,
    kernel_from_dict,
    operator_norm_bound,
)
from ovklearn.monorma import MONORMA
from ovklearn.onorma import ONORMA, TruncationSchedule, _ExpansionState


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
    # the kernel shares its family's bank with a sibling, as in a learner
    rng = np.random.default_rng(15)
    for _ in range(50):
        dim = int(rng.integers(1, 5))
        k = random_kernel(rng, dim)
        sibling = dataclasses.replace(k, mu=k.mu / 2)
        support = rng.normal(size=(int(rng.integers(1, 8)), 3))
        coeffs = rng.normal(size=(len(support), dim))
        x, a = rng.normal(size=3), rng.normal(size=dim)
        state = _ExpansionState([sibling, k], cross_terms=True)
        state.restore(support, coeffs, range(1, len(support) + 1), 3)
        (bank,) = state.banks
        expansion = sum(k(xi, x) @ ci for xi, ci in zip(support, coeffs))
        cross = [float(ci @ (k(xi, x) @ a)) for xi, ci in zip(support, coeffs)]
        kept, gs = state.expand(x)
        assert np.allclose(gs[1], expansion, rtol=1e-12, atol=1e-12)

        queries = rng.normal(size=(3, 3))
        block = [np.empty((3, dim)) for _ in range(2)]
        bank.expand_rows(state, queries, block)
        naive = [sum(k(xi, q) @ ci for xi, ci in zip(support, coeffs)) for q in queries]
        assert np.allclose(block[1], naive, rtol=1e-12, atol=1e-12)
        # the expansion over a (3, s) block of scalars leaves them intact when scratch=None
        sums = coeffs.sum(axis=1)
        rows = rng.uniform(size=(3, len(support)))
        unchanged = rows.copy()
        k.row_expansion(rows, coeffs, sums, None, np.empty((3, dim)))
        assert np.array_equal(rows, unchanged)

        # the quads as the step's post-loss bank call writes them
        quads = [None, None]
        bank.norm_terms(kept[0], float(x @ x), a, float(a @ a), quads)
        quad = float(a @ (k(x, x) @ a))
        assert abs(quads[1] - quad) <= 1e-12 * max(1.0, abs(quad))
        # and bit for bit the kernel's one-member point forms
        if k.family == "poly":
            # a poly bank keeps no cross sums: dropping the first term reads its
            # share of the norm from one evaluation at its point instead
            shares, x0, c0 = [None, None], support[0], coeffs[0]
            folded = None if bank._F is None else bank.read_features(bank._F, x0)
            bank.drop_shares(folded, bank.pending(), x0, c0, shares)
            g0 = sum(k(xi, x0) @ ci for xi, ci in zip(support, coeffs))
            share = 2.0 * float(g0 @ c0) - float(c0 @ (k(x0, x0) @ c0))
            assert abs(shares[1] - share) <= 1e-12 * max(1.0, abs(share))
            assert not hasattr(bank, "_C")
            assert np.array_equal(gs[1], poly_expansion(*poly_sums(support @ x, coeffs), k.mu))
            assert quads[1] == poly_quad(x, k.mu, a)
        else:
            row = bank_row_within_bound(bank, state, x)
            w, J = gaussian_scalars(row, k.mu), k.structure
            assert np.array_equal(gs[1], gaussian_expansion(w, coeffs, J))
            assert quads[1] == gaussian_quad(J, a)
            # the cross products, as storing the term at scale 1 adds them to
            # the stored terms' cross sums, here zeroed first
            bank._C[:] = 0.0
            state.update(kept, x, float(x @ x), a, float(a @ a), len(support) + 1, True)
            crosses = bank._C[: len(support)]
            assert np.allclose(crosses[:, 1], cross, rtol=1e-12, atol=1e-12)
            assert np.array_equal(crosses[:, 1], gaussian_cross(w, coeffs, J, a))


def bank_row_within_bound(bank, state, x):
    """The Gaussian bank's distance row at x, checked against the naive and the exact rows."""
    (rows, centre, _), support, p = bank.centred(state), state.support, len(x)
    row = bank.distances(support, rows, x)
    u = x - centre
    bound = centred_distance_bound(rows[:, p], float(np.einsum("i,i->", u, u)), p)
    assert np.all(np.abs(row - squared_distances(support, x)) <= bound)
    exact = exact_sq_distances(support, x)
    assert all(abs(Fraction(r) - e) <= b for r, e, b in zip(row.tolist(), exact, bound.tolist()))
    return row


@pytest.mark.parametrize("mu", [1e-3, 0.7, 1.0, 3.0])
def test_gaussian_scalars_keep_the_bits_of_the_negated_quotient(mu):
    # the step's row / -mu rounds as -row / mu does; a multiply by 1 / mu would not
    rng = np.random.default_rng(31)
    row = np.concatenate(
        [[0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e300], rng.uniform(0.0, 40.0 * mu, 500)]
    )
    kernel = SeparableGaussian(mu=mu, dim=2)
    expected = np.exp(np.negative(row) / mu)
    (shared,) = kernel.bank([kernel], [0]).scalars(row)
    assert np.array_equal(shared, expected)


# the special squared distances of the scalars test above
SPECIAL_ROW = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e300]


def test_gaussian_bank_shares_work_and_keeps_each_members_bits():
    rng = np.random.default_rng(37)
    root = rng.normal(size=(3, 3))
    psd = root @ root.T
    kernels = [
        SeparableGaussian(mu=0.5, dim=3),
        SeparableGaussian(mu=1.0, dim=3, structure=np.eye(3)),
        SeparableGaussian(mu=1.0, dim=3, structure=psd),  # equal mu, its own J
        SeparableGaussian(mu=2.0, dim=3),  # the default J again
        SeparableGaussian(mu=0.7, dim=3, structure=psd.copy()),  # an equal J, another array
    ]
    xs, ys = rng.uniform(size=(220, 4)), 0.5 * rng.normal(size=(220, 3))
    model = MONORMA(kernels, lam=0.1, eta0=0.5, truncation=TruncationSchedule(t0=60, epsilon=0.25))
    model.fit(xs[:200], ys[:200])
    state = model._state
    (bank,) = state.banks
    # one scalars row per distinct mu, one J product per distinct J
    assert bank.row_index == [0, 1, 1, 2, 3]
    assert len(bank._structures) == 3

    support, coeffs = state.support, state.raw_coeffs
    for x in xs[200:]:
        a = rng.normal(size=3)
        row = bank_row_within_bound(bank, state, x)
        for special in (row, np.concatenate([SPECIAL_ROW, rng.uniform(0.0, 10.0, 300)])):
            shared = bank.scalars(special)
            assert len(shared) == 4
            for j, kernel in enumerate(kernels):
                assert np.array_equal(shared[bank.row_index[j]], gaussian_scalars(special, kernel.mu))
        gs, quads = [None] * len(kernels), [None] * len(kernels)
        kept = scalars, _ = bank.expand(state, x, gs)
        bank.norm_terms(kept, float(x @ x), a, float(a @ a), quads)
        # the cross products, as storing the term adds them to the stored
        # terms' cross sums, zeroed first in a copy of the state
        trial = copy.deepcopy(state)
        trial.banks[0]._C[:] = 0.0
        trial.update([kept], x, float(x @ x), a, float(a @ a), model.t + 1, True)
        out, raw = trial.banks[0]._C[trial.start : trial.end - 1], trial.raw_coeffs[-1]
        for j, kernel in enumerate(kernels):
            own, J = gaussian_scalars(row, kernel.mu), kernel.structure
            assert np.array_equal(scalars[bank.row_index[j]], own)
            assert quads[j] == gaussian_quad(J, a)
            assert np.array_equal(out[:, j], gaussian_cross(own, coeffs, J, raw))
            assert np.array_equal(gs[j], state.scale * gaussian_expansion(own, coeffs, J))

    # a poly bank shares one evaluation, its two sums, and one per dropped term
    polys = [NonSeparablePoly(mu=mu, dim=3) for mu in (0.2, 0.7, 0.0)]
    model = MONORMA(polys, lam=0.1, eta0=0.5)
    model.fit(xs[:200], ys[:200])
    state = model._state
    (bank,) = state.banks
    support, coeffs = state.support, state.raw_coeffs
    # the step reads kept feature sums and sweeps only the terms not yet folded
    assert state.scale != 1.0 and bank._F is not None
    for x in xs[200:]:
        a = rng.normal(size=3)
        gs, quads, shares = [None] * len(polys), [None] * len(polys), [None] * len(polys)
        kept = linear, quadratic = bank.expand(state, x, gs)
        bank.norm_terms(kept, float(x @ x), a, float(a @ a), quads)
        folded = bank.read_features(bank._F, support[0])
        bank.drop_shares(folded, bank.pending(), support[0], coeffs[0], shares)
        want_linear, want_quadratic = poly_sums(support @ x, coeffs)
        assert abs(linear - want_linear) <= 1e-12 * abs(want_linear)
        assert np.allclose(quadratic, want_quadratic, rtol=1e-12, atol=0.0)
        for j, kernel in enumerate(polys):
            assert np.array_equal(gs[j], state.scale * poly_expansion(float(linear), quadratic, kernel.mu))
            assert quads[j] == poly_quad(x, kernel.mu, a)
            share = poly_drop_share(support, coeffs, kernel.mu)
            assert abs(shares[j] - share) <= 1e-12 * abs(share)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: kernel_from_dict({"family": ["x"]}), "unknown kernel family"),
        (lambda: kernel_from_dict({"family": None, "mu": 1.0, "dim": 2}), "unknown kernel family"),
        (lambda: kernel_from_dict({"family": "poly", "mu": 0.5}), "lacks dim"),
        (lambda: kernel_from_dict({"family": "gaussian", "dim": 2}), "lacks mu"),
        (lambda: kernel_from_dict({"family": "gaussian", "mu": "abc", "dim": 2}), "real number"),
        (lambda: kernel_from_dict({"family": "poly", "mu": None, "dim": 2}), "real number"),
        (lambda: kernel_from_dict({"family": "gaussian", "mu": 1.0, "dim": "2"}), "int >= 1"),
        (lambda: SeparableGaussian(mu=True, dim=2), "real number"),
        (lambda: NonSeparablePoly(mu=0.5, dim=2.5), "int >= 1"),
        (lambda: NonSeparablePoly(mu=0.5, dim=True), "int >= 1"),
        (lambda: SeparableGaussian(mu=1.0, dim=2.0), "int >= 1"),
        (lambda: SeparableGaussian(mu=1.0, dim=2, structure="abc"), "d x d array of numbers"),
    ],
)
def test_malformed_kernel_arguments_raise_config_error(build, message):
    with pytest.raises(ConfigError, match=message):
        build()


def test_kernel_arguments_accept_numpy_numbers():
    k = SeparableGaussian(mu=np.float64(0.5), dim=np.int64(3))
    assert k.structure.shape == (3, 3)
    assert NonSeparablePoly(mu=np.float32(0.25), dim=np.int32(2)).dim == 2


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


@pytest.mark.parametrize("dim", [1, 4])
def test_gaussian_gram_equals_the_kronecker_product(dim):
    xs = np.random.default_rng(21).normal(size=(37, 5))
    k = SeparableGaussian(mu=1.7, dim=dim, structure=default_structure(dim) + np.eye(dim) / 3)
    assert np.array_equal(k.gram(xs), np.kron(k.scalar_gram(xs), k.structure))


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


@pytest.mark.parametrize("mu", [1e-310, 5e-324])
def test_subnormal_gaussian_bandwidth_is_a_config_error(mu):
    # 1 / mu overflows, which the step, the block path and the Gram would each
    # meet differently: kernel values with overflow warnings, or NaN
    with pytest.raises(ConfigError, match="finite reciprocal"):
        SeparableGaussian(mu=mu, dim=2)


def test_tiny_normal_gaussian_bandwidth_works_on_every_path():
    # at mu = 1e-300 every distinct pair's kernel value underflows to 0 and
    # every equal pair's is 1, on the point path, the block path and the Gram
    kernel = SeparableGaussian(mu=1e-300, dim=2)
    xs, ys = np.random.default_rng(33).normal(size=(12, 3)), np.ones((12, 2))
    xs[7] = xs[2]
    model = ONORMA(kernel, lam=0.1, eta0=0.5)
    first = model.step(xs[0], ys[0]).prediction
    second = model.step(xs[0], ys[0]).prediction
    assert np.array_equal(first, np.zeros(2)) and np.all(second != 0.0)
    model.fit(xs[1:], ys[1:])
    far = xs + 10.0
    assert np.array_equal(model.predict(far), np.zeros((12, 2)))
    assert all(np.array_equal(model.predict(x), np.zeros(2)) for x in far)
    # at a stored point the kernel value is exp(-residue / mu), 1 or 0 as its
    # centred distance rounds, so there both paths are only checked finite
    assert np.all(np.isfinite(model.predict(xs)))
    assert all(np.all(np.isfinite(model.predict(x))) for x in xs)
    scalar = kernel.scalar_gram(xs)
    same = np.all(xs[:, None] == xs[None, :], axis=2).astype(float)
    assert np.array_equal(scalar, same)
    assert np.all(np.isfinite(kernel.gram(xs)))


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


def test_only_the_oracles_build_a_kernel_matrix(monkeypatch, tmp_path, capsys):
    def oracle_only(self, x, x2):
        raise AssertionError("the d x d kernel matrix is for the test oracles only")

    for cls in FAMILIES.values():
        monkeypatch.setattr(cls, "__call__", oracle_only)
    small = ["--set", "n_instances=60", "--set", "n_outputs=2"]
    poly = ["--set", "kernel=poly(mu=0.2)", "--set", "lambda=300", "--set", "eta0=0.003"]
    for algorithm, kernel in [
        ("onorma", "gaussian(mu=1)"),
        ("onorma", "poly(mu=0.2)"),
        ("monorma", "gaussian(mu=1),poly(mu=0.2)"),
        ("batch", "gaussian(mu=1)"),
        ("batch", "poly(mu=0.2)"),
    ]:
        argv = ["train", "--set", f"algorithm={algorithm}", "--set", f"kernel={kernel}"]
        argv += ["--set", "lambda=3", "--set", "eta0=0.03"]
        assert main(argv + small) == 0
    assert main(["check-bounds", *small, *poly]) == 0
    assert "result = bound holds" in capsys.readouterr().out

    rng = np.random.default_rng(20)
    xs, ys = rng.normal(size=(30, 3)), rng.normal(size=(30, 2))
    gaussian, poly_kernel = SeparableGaussian(mu=1.0, dim=2), NonSeparablePoly(mu=0.2, dim=2)
    truncated = TruncationSchedule(t0=5, epsilon=0.25)
    online = [ONORMA(k, lam=0.3, eta0=0.05) for k in (gaussian, poly_kernel)]
    online.append(MONORMA([gaussian, poly_kernel], lam=0.3, eta0=0.05, truncation=truncated))
    for model in online:
        model.fit(xs, ys)
    batch = [fit(k, xs, ys, lam=0.5) for k in (gaussian, poly_kernel)]
    for k in (gaussian, poly_kernel):
        assert k.gram(xs).shape == (60, 60) and operator_norm_bound(k, xs) > 0
    for i, model in enumerate(online + batch):
        path = tmp_path / f"model{i}.npz"
        save_model(path, model)
        back = load_model(path)
        assert np.allclose(back.predict(xs), model.predict(xs), rtol=1e-12, atol=1e-12)
        assert np.allclose(back.predict(xs[0]), model.predict(xs[0]), rtol=1e-12, atol=1e-12)
