"""Multi-row queries: the blocked sweep against the per-term oracle and the point path."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ovklearn
import ovklearn.kernels
from conftest import block_gram, naive_expansion
from ovklearn.batch import BatchModel
from ovklearn.exceptions import NumericsError
from ovklearn.kernels import NonSeparablePoly, SeparableGaussian
from ovklearn.monorma import MONORMA
from ovklearn.onorma import ONORMA, TruncationSchedule

RTOL = 1e-12
P, D = 3, 2


def assert_close(got, ref):
    assert got.shape == ref.shape
    if ref.size:
        assert np.max(np.abs(got - ref)) <= RTOL * np.max(np.abs(ref))


def models(support, coeffs):
    """Every model kind over the given terms: (model, kernels, weights)."""
    s, times = len(support), np.arange(1, len(support) + 1)
    out = []
    for kernel in (SeparableGaussian(mu=0.7, dim=D), NonSeparablePoly(mu=0.3, dim=D)):
        online = ONORMA(kernel, lam=0.1, eta0=0.5)
        online.restore(support, coeffs, times, P, s, [0.0])
        out.append((online, [kernel], [1.0]))
    kernel = SeparableGaussian(mu=0.7, dim=D, structure=[[1.0, 0.3], [0.3, 0.5]])
    out.append((BatchModel(kernel, support, coeffs, lam=0.1, norm_sq=0.0), [kernel], [1.0]))
    bank = [
        SeparableGaussian(mu=0.7, dim=D),
        NonSeparablePoly(mu=0.3, dim=D),
        SeparableGaussian(mu=2.0, dim=D, structure=np.eye(D)),
    ]
    delta = np.array([0.6, 0.5, np.sqrt(1.0 - 0.36 - 0.25)])
    # a mixed bank, and one bank per family: the Gaussians' bandwidths are not
    # all powers of two, and the poly kernels share one set of feature sums
    for kernels in (
        bank,
        [SeparableGaussian(mu=mu, dim=D) for mu in (0.5, 0.7, 3.0)],
        [NonSeparablePoly(mu=mu, dim=D) for mu in (0.0, 0.3, 1.0)],
    ):
        learner = MONORMA(kernels, lam=0.1, eta0=0.5)
        learner.restore(support, coeffs, times, P, s, np.zeros(3), delta)
        out.append((learner, kernels, delta))
    return out


class PolyPaths:
    """Records what each multi-row poly query reads while installed.

    A poly bank has one path for any number of rows: the feature sums kept
    with its folded terms plus a sweep of the terms not folded, so a support
    that was never folded is swept whole.  ``paths`` gets ``"features"`` for
    a query that read the kept feature sums (``read_features``) and
    ``"sweep"`` for one that swept the whole support; ``sweeps`` counts every
    call of the poly bank's ``expand_rows``.  ``take`` returns both and
    clears them.
    """

    def __init__(self, monkeypatch):
        self.paths, self.sweeps = [], 0
        self.reads = 0
        bank = NonSeparablePoly.bank
        read_features, expand_rows = bank.read_features, bank.expand_rows

        def counted_reads(*args):
            self.reads += 1
            return read_features(*args)

        def counted_rows(obj, *args):
            self.sweeps += 1
            before = self.reads
            expand_rows(obj, *args)
            self.paths.append("features" if self.reads > before else "sweep")

        monkeypatch.setattr(bank, "read_features", staticmethod(counted_reads))
        monkeypatch.setattr(bank, "expand_rows", counted_rows)

    def take(self):
        taken = (self.paths, self.sweeps)
        self.paths, self.sweeps = [], 0
        return taken


def near(rows, rng):
    """Each row moved by 1e-6 in a random direction."""
    step = rng.normal(size=rows.shape)
    return rows + 1e-6 * step / np.linalg.norm(step, axis=1, keepdims=True)


def case(name):
    rng = np.random.default_rng(61)
    support = rng.normal(size=(9, P))
    queries = rng.normal(size=(7, P))
    if name == "shifted":
        support, queries = support + 1e3, queries + 1e3
    elif name == "at-support":
        queries = np.vstack([support[:4], near(support[4:], rng)])
    elif name == "one-term":
        support = support[:1]
    elif name == "no-rows":
        queries = queries[:0]
    return support, rng.normal(size=(len(support), D)), queries


@pytest.mark.parametrize("blocks", ["one", "several"])
@pytest.mark.parametrize("name", ["plain", "shifted", "at-support", "one-term", "no-rows"])
def test_rows_match_the_per_term_oracle_and_the_point_path(name, blocks, monkeypatch):
    support, coeffs, queries = case(name)
    if blocks == "several":
        # two query rows per block: seven queries take three full blocks and one partial
        monkeypatch.setattr(ovklearn.kernels, "_BLOCK_BYTES", 2 * 8 * len(support))
    for model, kernels, weights in models(support, coeffs):
        gs = model._state.evaluate(queries)
        for kernel, g in zip(kernels, gs):
            naive = np.array([naive_expansion(kernel, support, coeffs, q) for q in queries])
            assert_close(g, naive.reshape(len(queries), D))
        got = model.predict(queries)
        assert got.shape == (len(queries), D)
        assert_close(got, sum(w * g for w, g in zip(weights, gs)))
        points = np.array([model.predict(q) for q in queries]).reshape(len(queries), D)
        assert_close(got, points)


@pytest.mark.parametrize("shift", [0.0, 1e3])
@pytest.mark.parametrize(
    "kernel",
    [SeparableGaussian(mu=0.7, dim=D), SeparableGaussian(mu=0.01, dim=D), NonSeparablePoly(mu=0.3, dim=D)],
    ids=["gaussian", "narrow-gaussian", "poly"],
)
def test_scalar_gram_matches_kernel_calls(kernel, shift):
    xs = np.random.default_rng(62).normal(size=(12, P)) + shift
    xs[5] = xs[4] + 1e-6  # a near-duplicate pair
    xs[7] = xs[3]  # an equal pair
    assert_close(kernel.gram(xs), block_gram(kernel, xs))
    scalar = kernel.scalar_gram(xs)
    assert_close(scalar, scalar.T)
    if kernel.family == "gaussian":
        # exp(0) = 1 exactly, so K(x_i, x_k) = J wherever x_i = x_k
        assert np.array_equal(np.diag(scalar), np.ones(len(xs)))
        assert scalar[3, 7] == scalar[7, 3] == 1.0


def mask_form_gram(kernel, xs):
    """The Gaussian scalar Gram with every equal pair's exponent set to 0 through a t x t mask."""
    centre = xs.mean(axis=0)
    rows = np.empty((len(xs), xs.shape[1] + 2))
    ovklearn.kernels.centred_rows(xs, centre, rows)
    w = ovklearn.kernels.centred_exponents(rows, centre, xs, -1.0 / kernel.mu, np.empty((len(xs),) * 2))
    _, point = np.unique(xs, axis=0, return_inverse=True)
    w[point[:, None] == point[None, :]] = 0.0
    return np.exp(w)


@pytest.mark.parametrize("equal", ["none", "pair", "signed-zero", "many"])
def test_gaussian_scalar_gram_matches_the_mask_form_bit_for_bit(equal):
    # the distinct-points branch writes only the diagonal, the other the mask;
    # -0.0 and 0.0 are one point, as np.unique(axis=0) counts them
    rng = np.random.default_rng(68)
    xs = rng.normal(size=(40, P))
    if equal == "pair":
        xs[17] = xs[3]
    elif equal == "signed-zero":
        xs[5], xs[9] = [0.0, 1.5, -2.0], [-0.0, 1.5, -2.0]
    elif equal == "many":
        xs[20:] = xs[:20]
    xs = np.asfortranarray(xs) if equal == "many" else xs
    kernel = SeparableGaussian(mu=0.7, dim=D)
    assert np.array_equal(kernel.scalar_gram(xs), mask_form_gram(kernel, xs))


def test_rows_whose_distances_overflow_raise_numerics_error():
    # inputs near 1e160 overflow the centred product to inf - inf; the point
    # path's distances overflow to inf, whose kernel value is 0
    xs = np.random.default_rng(0).standard_normal((30, 3)) * 1e160
    ys = np.random.default_rng(1).standard_normal((30, D))
    model = ONORMA(SeparableGaussian(mu=1.0, dim=D), lam=0.1, eta0=0.5)
    with np.errstate(over="ignore", invalid="ignore"):
        model.fit(xs[:20], ys[:20])
        assert np.array_equal(model.predict(xs[25]), np.zeros(D))
        with pytest.raises(NumericsError, match="non-finite prediction"):
            model.predict(xs[25:27])


def test_every_model_raises_on_predictions_that_overflow(monkeypatch):
    support, coeffs, queries = case("plain")
    paths = PolyPaths(monkeypatch)
    # nine terms are never folded, so a poly bank sweeps them; a poly learner
    # with a folded support reads its feature sums, whose M_k overflow
    rng = np.random.default_rng(67)
    wide = rng.normal(size=(ovklearn.kernels._FOLD + 6, P))
    folded = ONORMA(NonSeparablePoly(mu=0.3, dim=D), lam=0.1, eta0=0.5)
    with np.errstate(over="ignore", invalid="ignore"):
        folded.restore(1e160 * wide, rng.normal(size=(len(wide), D)), np.arange(1, len(wide) + 1), P, len(wide), [0.0])
    cases = [(model, kernels, "sweep") for model, kernels, _ in models(1e160 * support, coeffs)]
    cases.append((folded, [folded.kernel], "features"))
    for model, kernels, path in cases:
        poly = any(kernel.family == "poly" for kernel in kernels)
        for rows in (queries[:2], queries):
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericsError):
                model.predict(1e160 * rows)
            assert paths.take() == (([path], 1) if poly else ([], 0))
        if poly:
            # one point's inner products overflow to inf as well
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericsError):
                model.predict(1e160 * queries[0])


def trained_poly_models(mu, d, p=3):
    """Poly models whose support is not a plain restore: (model, kernels, weights)."""
    rng = np.random.default_rng(63 + d)
    xs, ys = rng.uniform(-1.0, 1.0, size=(90, p)), rng.normal(size=(90, d))
    kernel = NonSeparablePoly(mu=mu, dim=d)
    truncated = ONORMA(kernel, lam=0.1, eta0=0.5, truncation=TruncationSchedule(t0=20, epsilon=0.25))
    truncated.fit(xs, ys)
    # the lazy scale is not folded and the front of the support was dropped
    assert truncated._state.scale != 1.0 and truncated._state.times[0] > 1
    batch = BatchModel(kernel, xs[:50], 0.1 * ys[:50], lam=0.1, norm_sq=0.0)
    bank = [kernel, NonSeparablePoly(mu=0.5, dim=d), NonSeparablePoly(mu=1.0 - mu, dim=d)]
    learner = MONORMA(bank, lam=0.1, eta0=0.5)
    learner.fit(xs[:70], ys[:70])
    weights = learner._delta.copy()
    return [(truncated, [kernel], [1.0]), (batch, [kernel], [1.0]), (learner, bank, weights)]


@pytest.mark.parametrize("d", [1, 4])
@pytest.mark.parametrize("mu", [0.0, 0.3, 1.0])
def test_poly_feature_sums_match_the_per_term_oracle_and_the_point_path(mu, d, monkeypatch):
    queries = np.random.default_rng(64).uniform(-1.0, 1.0, size=(40, 3))
    # folds of 8 terms: each model folds, and the truncated one unfolds dropped terms
    monkeypatch.setattr(ovklearn.kernels, "_FOLD", 8)
    paths = PolyPaths(monkeypatch)
    for model, kernels, weights in trained_poly_models(mu, d):
        state = model._state
        gs = state.evaluate(queries)
        # one set of feature sums read by every kernel of the bank, and no other sweep
        assert paths.take() == (["features"], 1)
        for kernel, g in zip(kernels, gs):
            naive = [naive_expansion(kernel, state.support, state.coeffs, q) for q in queries]
            assert_close(g, np.array(naive))
        got = model.predict(queries)
        assert_close(got, sum(w * g for w, g in zip(weights, gs)))
        assert_close(got, np.array([model.predict(q) for q in queries]))
        paths.take()


def poly_model(s, p, d, rng):
    support, coeffs = rng.normal(size=(s, p)), rng.normal(size=(s, d))
    model = MONORMA([NonSeparablePoly(mu=mu, dim=d) for mu in (0.2, 0.7)], lam=0.1, eta0=0.5)
    model.restore(support, coeffs, np.arange(1, s + 1), p, s, np.zeros(2), [0.6, 0.8])
    return model


def restored_path(s):
    """The path of a poly bank restored over s terms: a support under one fold is never folded."""
    return "features" if s >= ovklearn.kernels._FOLD else "sweep"


@pytest.mark.parametrize("s, p, d", [(9, 3, 2), (60, 4, 2), (200, 20, 4)])
def test_poly_paths_agree_at_the_crossover(s, p, d, monkeypatch):
    # the row count at which the feature sums once began to pay,
    # n s (p + 2d) > (s + n) p^2 d (n = 80 at (200, 20, 4)): one path now
    # serves both sides, so the rows agree with their own first n - 1
    n = s * p * p * d // (s * (p + 2 * d) - p * p * d) + 1
    rng = np.random.default_rng(65)
    model = poly_model(s, p, d, rng)
    queries = rng.normal(size=(n, p))
    paths = PolyPaths(monkeypatch)
    below = model.predict(queries[:-1])
    assert paths.take() == ([restored_path(s)], 1)
    at = model.predict(queries)
    assert paths.take() == ([restored_path(s)], 1)
    assert_close(below, at[:-1])


@pytest.mark.parametrize("s, p, d, n", [(9, 3, 2, 3), (200, 20, 4, 1), (200, 20, 4, 80), (30, 40, 2, 500)])
def test_few_rows_or_wide_inputs_sweep_the_support_once(s, p, d, n, monkeypatch):
    # one call reads the support once, by the same path for any row count or width
    rng = np.random.default_rng(66)
    model = poly_model(s, p, d, rng)
    paths = PolyPaths(monkeypatch)
    queries = rng.normal(size=(n, p))
    got = model.predict(queries)
    assert paths.take() == ([restored_path(s)], 1)
    state = model._state
    for j, kernel in enumerate(state.kernels):
        naive = [naive_expansion(kernel, state.support, state.coeffs, q) for q in queries[:3]]
        assert_close(state.evaluate(queries[:3])[j], np.array(naive))
    assert_close(got[:3], np.array([model.predict(q) for q in queries[:3]]))


def imports_module(name):
    """Whether ``import ovklearn`` loads the module ``name``, in a fresh interpreter."""
    src = str(Path(ovklearn.__file__).resolve().parents[1])
    code = f"import sys, ovklearn; print({name!r} in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip() == "True"


def test_import_leaves_scipy_spatial_unloaded():
    # scipy.spatial alone costs about 0.1 s of the package's import time
    assert not imports_module("scipy.spatial")


def test_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg costs 0.17-0.35 s of import time; only a batch fit loads it
    assert not imports_module("scipy.linalg")
