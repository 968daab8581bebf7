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
    """Records which path each multi-row poly query takes while installed.

    ``paths`` gets ``"features"`` for a query read through the bank's feature
    sums and ``"sweep"`` for one swept over the support; ``sweeps`` counts
    every call of the poly bank's ``expand_rows``.  ``take`` returns both and
    clears them.
    """

    def __init__(self, monkeypatch):
        self.paths, self.sweeps = [], 0
        bank = NonSeparablePoly.bank
        feature_sums, expand_rows = bank.feature_sums, bank.expand_rows

        def counted_sums(*args):
            self.paths.append("features")
            return feature_sums(*args)

        def counted_rows(obj, *args):
            self.sweeps += 1
            before = len(self.paths)
            expand_rows(obj, *args)
            if len(self.paths) == before:
                self.paths.append("sweep")

        monkeypatch.setattr(bank, "feature_sums", staticmethod(counted_sums))
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
    for model, kernels, _ in models(1e160 * support, coeffs):
        poly = any(kernel.family == "poly" for kernel in kernels)
        # a poly bank sweeps two rows over the nine terms and reads seven
        # through its feature sums, whose M_k overflow
        for rows, path in ((queries[:2], "sweep"), (queries, "features")):
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


@pytest.mark.parametrize("s, p, d", [(9, 3, 2), (60, 4, 2), (200, 20, 4)])
def test_poly_paths_agree_at_the_crossover(s, p, d, monkeypatch):
    # the feature sums pay from n s (p + 2d) > (s + n) p^2 d on; at (200, 20, 4)
    # the two sides are equal at n = 80
    n = s * p * p * d // (s * (p + 2 * d) - p * p * d) + 1
    rng = np.random.default_rng(65)
    model = poly_model(s, p, d, rng)
    queries = rng.normal(size=(n, p))
    paths = PolyPaths(monkeypatch)
    below = model.predict(queries[:-1])
    assert paths.take() == (["sweep"], 1)
    at = model.predict(queries)
    assert paths.take() == (["features"], 1)
    assert_close(below, at[:-1])


@pytest.mark.parametrize("s, p, d, n", [(9, 3, 2, 3), (200, 20, 4, 1), (200, 20, 4, 80), (30, 40, 2, 500)])
def test_few_rows_or_wide_inputs_sweep_the_support_once(s, p, d, n, monkeypatch):
    # with 40 columns the feature sums cost more than the sweep at any n
    rng = np.random.default_rng(66)
    model = poly_model(s, p, d, rng)
    paths = PolyPaths(monkeypatch)
    model.predict(rng.normal(size=(n, p)))
    assert paths.take() == (["sweep"], 1)


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
