"""Property tests over random streams and fuzzed command lines.

Property 1: along a random stream, every tracked norm equals the naive
Gram oracle, and a checkpoint taken at a random step restores the same
terms; a truncated learner rebuilds the same cross sums by re-appending
them.  Property 4: no ``--set`` value makes the CLI end other than with
exit 0, 2 or 3.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gram_norm_sq
from ovklearn.checkpoint import load_model, save_model
from ovklearn.cli import main
from ovklearn.kernels import NonSeparablePoly, SeparableGaussian
from ovklearn.monorma import MONORMA
from ovklearn.onorma import ONORMA, TruncationSchedule

LEARNERS = ["gaussian", "poly", "monorma"]


def build(kind, d, t0):
    truncation = None if t0 is None else TruncationSchedule(t0=t0, epsilon=0.25)
    if kind == "gaussian":
        return ONORMA(SeparableGaussian(mu=1.0, dim=d), lam=0.1, eta0=0.5, truncation=truncation)
    if kind == "poly":
        return ONORMA(NonSeparablePoly(mu=0.3, dim=d), lam=0.1, eta0=0.5, truncation=truncation)
    kernels = [SeparableGaussian(mu=0.5, dim=d), SeparableGaussian(mu=2.0, dim=d)]
    return MONORMA(kernels, lam=0.1, eta0=0.5, truncation=truncation)


def tracked(model):
    return model.gamma if isinstance(model, MONORMA) else np.array([model.norm_sq])


def close(have, want, rel):
    return np.max(np.abs(have - want), initial=0.0) <= rel * np.max(np.abs(want), initial=0.0)


@pytest.mark.parametrize("truncated", [False, True], ids=["plain", "truncated"])
@pytest.mark.parametrize("kind", LEARNERS)
@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(5, 30),
    saved_frac=st.floats(0.0, 1.0),
    t0=st.integers(2, 6),
    p=st.integers(1, 4),
    d=st.integers(1, 3),
)
def test_tracked_norms_and_restore(
    tmp_path_factory, kind, truncated, seed, n, saved_frac, t0, p, d
):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1.0, 1.0, size=(n, p))
    ys = rng.normal(size=(n, d))
    live = build(kind, d, t0 if truncated else None)
    saved_at = int(saved_frac * n)
    live.fit(xs[:saved_at], ys[:saved_at])

    path = tmp_path_factory.mktemp("prop") / "model.npz"
    save_model(path, live)
    back = load_model(path)
    assert np.array_equal(back._state.support, live._state.support)
    assert np.array_equal(back._state.coeffs, live._state.coeffs)
    assert np.array_equal(back._state.times, live._state.times)
    if truncated:
        # restore replays append: the rebuilt sums are the live ones with the scale folded in
        s2 = live._state.scale ** 2
        assert back._state.scale == 1.0
        for name in ("_C", "_Q"):
            have = getattr(back._state, name)[back._state.start : back._state.end]
            want = s2 * getattr(live._state, name)[live._state.start : live._state.end]
            assert close(have, want, 1e-12)

    for x, y in zip(xs[saved_at:], ys[saved_at:]):
        live.step(x, y)
        back.step(x, y)
    state = live._state
    oracle = np.array(
        [gram_norm_sq(k, list(state.support), list(state.coeffs)) for k in state.kernels]
    )
    assert close(tracked(live), oracle, 1e-10)
    assert close(tracked(back), tracked(live), 1e-12)
    if truncated and n > t0:
        assert live.support_size <= live.truncation.window(n)


# documented config keys: values in range, then values at or beyond their
# edges; in-range values are drawn more often, so many runs get past the
# parser.  The dataset stays small so every run is quick.
NUMBERS = ["0", "-1", "1e-300", "1e308", "nan", "inf", "-inf", "abc", ""]
FUZZ_VALUES = {
    "algorithm": (["onorma", "monorma", "batch"], ["magic", ""]),
    "kernel": (
        ["gaussian(mu=1)", "poly(mu=0.2)", "gaussian(mu=1),poly(mu=0.5)", "gaussian(mu=1e308)"],
        ["gaussian(mu=0)", "poly(mu=2)", "gaussian(mu=nan)", "poly(mu=inf)", "rbf(mu=1)", ","],
    ),
    "loss": (["squared", "eps(0.25)", "eps(0)", "eps(1e308)"], ["eps(-1)", "eps(nan)", "hinge"]),
    "lambda": (["0.01", "0.5", "3", "1e-300", "1e308"], NUMBERS),
    "eta0": (["0.02", "0.3", "1", "1e-300"], NUMBERS),
    "r": (["0.5", "2", "1e-300", "1e308"], NUMBERS),
    "truncate": (["true", "false"], ["yes", "maybe"]),
    "t0": (["1", "5", "1000000"], ["0", "-3", "1.5", "x"]),
    "epsilon": (["0.25", "0.49", "1e-300"], ["0", "0.5", "nan", "-1"]),
    "seed": (["0", "1", "4294967295", "4294967296"], ["-1", "1e3", "x"]),
    "train_fraction": (["0.5", "0.01", "0.99"], ["0", "1", "-0.5", "2", "nan"]),
    "normalize": (["true", "false"], ["2"]),
    "n_instances": (["40", "20", "3", "2", "1"], ["0", "-5", "x"]),
    "n_outputs": (["1", "2", "4"], ["0", "-1", "x"]),
}


def fuzz_value(key):
    valid, odd = FUZZ_VALUES[key]
    return st.sampled_from(15 * valid + odd)


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(["train", "check-bounds"]),
    overrides=st.fixed_dictionaries({}, optional={k: fuzz_value(k) for k in FUZZ_VALUES}),
)
@pytest.mark.filterwarnings("ignore")
def test_fuzzed_settings_exit_0_2_or_3(command, overrides):
    overrides.setdefault("n_instances", "40")
    argv = [command]
    for key, value in overrides.items():
        argv += ["--set", f"{key}={value}"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3), argv
