"""Property tests over random streams and fuzzed command lines.

Property 1: along a random stream, every tracked norm equals the naive
Gram oracle, and a checkpoint taken at a random step restores the same
terms; a truncated learner rebuilds the same cross sums by replaying
them, and after every step a poly learner's kept feature sums match a
fresh sum over their folded range, exactly after a restore or a buffer
move.  Property 3: through any mix of steps,
lazy-scale folds, truncation drops, buffer moves, restores and a late
switch to truncation, a Gaussian learner's kept centred rows are its
support minus its centre, bit for bit, with their einsum norms, and a
poly learner's kept feature sums hold as in property 1.
Property 2: over random kernel banks, the
weights stay on the boundary ``sum_j delta_j^r = 1`` after every step, and
the predictions and per-kernel norms equal the naive multi-kernel
learner's.  Property 4: no ``--set`` value makes the CLI end other than
with exit 0, 2 or 3.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ovklearn.kernels
from conftest import UNIT_ROUNDOFF, NaiveMultiKernelLearner, gram_norm_sq
from ovklearn.checkpoint import load_model, save_model
from ovklearn.cli import main
from ovklearn.kernels import NonSeparablePoly, SeparableGaussian, default_structure
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


def features_hold(state, exact):
    """Whether the kept feature sums F match a fresh ``feature_sums`` of their folded range.

    Only a poly bank keeps them.  F covers the buffer rows ``[lo, hi)``,
    with ``lo <= start <= hi <= end``, and is None while that range is
    empty.  ``exact`` (after a restore or a buffer move, which sum F afresh)
    asks for the fresh sum's bits.  Otherwise F was built by folding and
    unfolding blocks since it was last summed afresh, from terms that all
    lie in the buffer rows ``[0, end)``, N of them.  Each entry of F is then
    a sum of at most 2N products ``x_ia c_ik x_ib`` (``x_ia S_i`` for v,
    with ``S_i`` a sum of d), each term meeting at most d + 1 roundings in
    its product and 2N - 1 in the additions, so by the standard summation
    bound (Higham, ch. 4) it errs by at most ``(2N + d + 2) u`` times the
    sum of the absolute terms, to first order; the fresh sum by at most
    ``(N + d + 1) u`` times the same sum.  The two sums differ by at most
    ``(3N + 2d + 4) u`` times the absolute feature sums of the N rows,
    with room for second-order terms.
    """
    bank = next((bank for bank in state.banks if bank.kernels[0].family == "poly"), None)
    if bank is None:
        return not any(hasattr(other, "_F") for other in state.banks)
    F, lo, hi = bank._F, bank._lo, bank._hi
    if not lo <= state.start <= hi <= state.end or (F is None and lo != hi):
        return False
    if F is None:
        return True
    fresh = bank.feature_sums(state._X[lo:hi], state._A[lo:hi])
    if exact:
        return np.array_equal(F, fresh)
    n, d = state.end, state.dim
    absolute = bank.feature_sums(np.abs(state._X[:n]), np.abs(state._A[:n]))
    return bool(np.all(np.abs(F - fresh) <= (3 * n + 2 * d + 4) * UNIT_ROUNDOFF * absolute))


def centred_rows_hold(state):
    # only a Gaussian bank keeps the centred rows [x_i - c, ||x_i - c||^2, 1]; each must
    # equal a fresh subtraction and einsum, bit for bit, under the bound on its norm
    bank = next((bank for bank in state.banks if bank.kernels[0].family == "gaussian"), None)
    if bank is None:
        return not any(hasattr(other, "_R") for other in state.banks)
    rows, centre, peak = bank.centred(state)
    p = state.input_dim or 0
    diffs = rows[:, :p]
    return (
        rows.shape == (len(state), p + 2)
        and np.array_equal(diffs, state.support - centre)
        and np.array_equal(rows[:, p], np.einsum("ij,ij->i", diffs, diffs))
        and bool(np.all(rows[:, p + 1] == 1.0))
        and bool(np.all(rows[:, p] <= peak))
    )


CENTRED_LEARNERS = {
    "gaussian": lambda d: [SeparableGaussian(mu=1.0, dim=d)],
    "mixed": lambda d: [SeparableGaussian(mu=0.5, dim=d), NonSeparablePoly(mu=0.3, dim=d)],
    "poly": lambda d: [NonSeparablePoly(mu=0.3, dim=d)],
}
# a run of steps, a checkpoint round trip, or a switch to truncation
CENTRED_OPS = st.one_of(
    st.tuples(st.just("steps"), st.integers(1, 70)),
    st.tuples(st.just("checkpoint"), st.just(0)),
    st.tuples(st.just("truncate"), st.integers(1, 30)),
)


@pytest.mark.parametrize("kind", list(CENTRED_LEARNERS))
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ops=st.lists(CENTRED_OPS, min_size=1, max_size=6),
    truncated=st.booleans(),
    folds=st.booleans(),
    drift=st.sampled_from([0.0, 1.0, 1e3]),
    p=st.integers(1, 4),
    d=st.integers(1, 3),
)
def test_kept_centred_rows_are_the_support_minus_the_centre(
    tmp_path_factory, kind, seed, ops, truncated, folds, drift, p, d
):
    rng = np.random.default_rng(seed)
    kernels = CENTRED_LEARNERS[kind](d)
    # lambda = eta0 = 0.9 folds the lazy scale into the coefficients every few steps
    lam, eta0 = (0.9, 0.9) if folds else (0.1, 0.5)
    schedule = TruncationSchedule(t0=10, epsilon=0.25) if truncated else None
    model = MONORMA(kernels, lam=lam, eta0=eta0, truncation=schedule)
    state, moves, t = model._state, 0, 0
    # a poly kernel diverges on inputs that drift far from the unit box
    drift = drift if kind == "gaussian" else 0.0
    assert centred_rows_hold(state)
    for op, arg in ops:
        if op == "steps":
            for _ in range(arg):
                # inputs that drift away from where the first terms were centred
                t += 1
                x = rng.uniform(-1.0, 1.0, size=p) + drift * t / 100.0
                buffers = state._X
                model.step(x, rng.normal(size=d))
                moves += state._X is not buffers
                assert features_hold(state, exact=state._X is not buffers)
        elif op == "checkpoint":
            path = tmp_path_factory.mktemp("centred") / "model.npz"
            save_model(path, model)
            model = load_model(path)
            state = model._state
            assert features_hold(state, exact=True)
        elif model.truncation is None:
            model.truncation = TruncationSchedule(t0=arg, epsilon=0.25)
        assert centred_rows_hold(state)
    if t > 64:
        assert moves >= 2


def close(have, want, rel):
    return np.max(np.abs(have - want), initial=0.0) <= rel * np.max(np.abs(want), initial=0.0)


def stepped_features_hold(model, kind, x, y):
    """One step, then :func:`features_hold`, exactly when the step moved the buffers.

    A move sums F afresh before the step stores its term, which a fold of
    one term then folds in at once, so that fold is checked within the bound.
    """
    buffers = model._state._X
    model.step(x, y)
    moved = model._state._X is not buffers and ovklearn.kernels._FOLD > 1
    return features_hold(model._state, exact=moved)


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
    fold=st.sampled_from([1, 3, 8, ovklearn.kernels._FOLD]),
)
def test_tracked_norms_and_restore(
    tmp_path_factory, kind, truncated, seed, n, saved_frac, t0, p, d, fold
):
    with pytest.MonkeyPatch.context() as patch:
        # short folds, so that streams this short fold and unfold their feature sums
        patch.setattr(ovklearn.kernels, "_FOLD", fold)
        tracked_norms_and_restore(tmp_path_factory, kind, truncated, seed, n, saved_frac, t0, p, d)


def tracked_norms_and_restore(tmp_path_factory, kind, truncated, seed, n, saved_frac, t0, p, d):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1.0, 1.0, size=(n, p))
    ys = rng.normal(size=(n, d))
    live = build(kind, d, t0 if truncated else None)
    saved_at = int(saved_frac * n)
    for x, y in zip(xs[:saved_at], ys[:saved_at]):
        assert stepped_features_hold(live, kind, x, y)

    path = tmp_path_factory.mktemp("prop") / "model.npz"
    save_model(path, live)
    back = load_model(path)
    assert np.array_equal(back._state.support, live._state.support)
    assert np.array_equal(back._state.coeffs, live._state.coeffs)
    assert np.array_equal(back._state.times, live._state.times)
    assert features_hold(back._state, exact=True)
    if truncated and kind == "poly":
        # a poly learner keeps no cross sums: its drops read the feature sums
        assert not any(hasattr(bank, "_C") for bank in back._state.banks + live._state.banks)
    elif truncated:
        # restore replays the appends' cross sums: the rebuilt sums are the live ones with the scale folded in
        s2 = live._state.scale ** 2
        assert back._state.scale == 1.0
        for name in ("_C", "_Q"):
            have = getattr(back._state.banks[0], name)[back._state.start : back._state.end]
            want = s2 * getattr(live._state.banks[0], name)[live._state.start : live._state.end]
            assert close(have, want, 1e-12)

    for x, y in zip(xs[saved_at:], ys[saved_at:]):
        assert stepped_features_hold(live, kind, x, y)
        assert stepped_features_hold(back, kind, x, y)
    state = live._state
    oracle = np.array(
        [gram_norm_sq(k, list(state.support), list(state.coeffs)) for k in state.kernels]
    )
    assert close(tracked(live), oracle, 1e-10)
    assert close(tracked(back), tracked(live), 1e-12)
    if truncated and n > t0:
        assert live.support_size <= live.truncation.window(n)


# a kernel of a bank: family, bandwidth or mix, and (Gaussian) structure matrix
BANK_KERNEL = st.one_of(
    st.tuples(
        st.just("gaussian"),
        st.floats(0.1, 8.0),
        st.sampled_from(["default", "identity", "random"]),
    ),
    st.tuples(st.just("poly"), st.floats(0.0, 1.0), st.none()),
)


def bank_kernel(spec, d, rng):
    family, mu, structure = spec
    if family == "poly":
        return NonSeparablePoly(mu=mu, dim=d)
    if structure == "random":
        a = rng.normal(size=(d, d))
        J = a @ a.T / d
        J = (J + J.T) / 2
    else:
        J = default_structure(d) if structure == "default" else np.eye(d)
    return SeparableGaussian(mu=mu, dim=d, structure=J)


@pytest.mark.parametrize("truncated", [False, True], ids=["plain", "truncated"])
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    specs=st.lists(BANK_KERNEL, min_size=1, max_size=6),
    r=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
    n=st.integers(5, 20),
    t0=st.integers(2, 6),
    p=st.integers(1, 4),
    d=st.integers(1, 3),
)
def test_bank_weights_stay_on_the_simplex_and_match_the_oracle(
    truncated, seed, specs, r, n, t0, p, d
):
    rng = np.random.default_rng(seed)
    kernels = [bank_kernel(spec, d, rng) for spec in specs]
    xs = rng.uniform(-1.0, 1.0, size=(n, p))
    ys = rng.normal(size=(n, d))
    queries = rng.uniform(-1.0, 1.0, size=(4, p))
    truncation = TruncationSchedule(t0=t0, epsilon=0.25) if truncated else None
    model = MONORMA(kernels, lam=0.1, eta0=0.5, r=r, truncation=truncation)
    naive = NaiveMultiKernelLearner(kernels, lam=0.1, eta0=0.5, r=r, truncation=truncation)
    for x, y in zip(xs, ys):
        assert close(model.step(x, y).prediction, naive.step(x, y), 1e-10)
        assert abs(float(np.sum(model.delta**r)) - 1.0) <= 1e-12
        assert close(model.gamma, naive.gamma, 1e-10)
        assert model.support_size == len(naive.terms)
    state = model._state
    oracle = [gram_norm_sq(k, list(state.support), list(state.coeffs)) for k in kernels]
    assert close(model.gamma, np.array(oracle), 1e-10)
    want = np.array([naive.predict(q) for q in queries])
    assert close(model.predict(queries), want, 1e-10)
    assert close(np.array([model.predict(q) for q in queries]), want, 1e-10)


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
