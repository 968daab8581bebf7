"""Multi-row queries: the blocked sweep against the per-term oracle and the point path."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ovklearn
import ovklearn.onorma
from conftest import block_gram, naive_expansion
from ovklearn.batch import BatchModel
from ovklearn.kernels import NonSeparablePoly, SeparableGaussian
from ovklearn.monorma import MONORMA
from ovklearn.onorma import ONORMA

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
    mixed = MONORMA(bank, lam=0.1, eta0=0.5)
    mixed.restore(support, coeffs, times, P, s, np.zeros(3), delta)
    out.append((mixed, bank, delta))
    return out


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
        monkeypatch.setattr(ovklearn.onorma, "_BLOCK_BYTES", 2 * 8 * len(support))
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
    "kernel", [SeparableGaussian(mu=0.7, dim=D), NonSeparablePoly(mu=0.3, dim=D)], ids=["gaussian", "poly"]
)
def test_scalar_gram_matches_kernel_calls(kernel, shift):
    xs = np.random.default_rng(62).normal(size=(12, P)) + shift
    xs[5] = xs[4] + 1e-6  # a near-duplicate pair
    assert_close(kernel.gram(xs), block_gram(kernel, xs))
    scalar = kernel.scalar_gram(xs)
    assert_close(scalar, scalar.T)
    if kernel.family == "gaussian":
        assert_close(np.diag(scalar), np.ones(len(xs)))


def test_import_leaves_scipy_spatial_unloaded():
    # scipy.spatial alone costs about 0.1 s of the package's import time
    src = str(Path(ovklearn.__file__).resolve().parents[1])
    code = "import sys, ovklearn; print('scipy.spatial' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
