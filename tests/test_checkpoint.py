import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NaiveMultiKernelLearner, NaiveOnlineLearner, gram_norm_sq
from ovklearn.batch import fit
from ovklearn.checkpoint import load_model, save_model
from ovklearn.exceptions import ConfigError, DataError, OvkError
from ovklearn.kernels import NonSeparablePoly, SeparableGaussian, kernel_from_dict
from ovklearn.losses import EpsilonInsensitive
from ovklearn.monorma import MONORMA
from ovklearn.onorma import ONORMA, TruncationSchedule


def stream(seed, n, p=3, d=2):
    rng = np.random.default_rng(seed)
    return rng.uniform(size=(n, p)), 0.5 * rng.normal(size=(n, d))


def probe_points(seed, n, p=3):
    return np.random.default_rng(seed).uniform(size=(n, p))


def test_onorma_round_trip(tmp_path):
    xs, ys = stream(0, 120)
    # aggressive decay forces at least one lazy-scale fold before saving
    model = ONORMA(SeparableGaussian(mu=1.0, dim=2), lam=0.9, eta0=0.9)
    for x, y in zip(xs, ys):
        model.step(x, y)
    path = tmp_path / "model.npz"
    save_model(path, model)
    back = load_model(path)
    assert back.t == model.t
    assert back.lam == model.lam and back.eta0 == model.eta0
    assert back.norm_sq == model.norm_sq
    assert back.kernel.mu == model.kernel.mu
    assert np.array_equal(back.kernel.structure, model.kernel.structure)
    assert back.loss.name() == model.loss.name()
    assert back.truncation is None
    probes = probe_points(1, 10)
    assert np.allclose(back.predict(probes), model.predict(probes), atol=1e-12)
    # the restored learner keeps learning identically
    x_next, y_next = probe_points(2, 1)[0], np.array([0.3, -0.1])
    r1 = model.step(x_next, y_next)
    r2 = back.step(x_next, y_next)
    assert np.allclose(r1.prediction, r2.prediction, atol=1e-12)
    assert r1.loss == pytest.approx(r2.loss, abs=1e-12)


def test_onorma_truncated_round_trip(tmp_path):
    xs, ys = stream(3, 60)
    schedule = TruncationSchedule(t0=20, epsilon=0.25)
    model = ONORMA(
        NonSeparablePoly(mu=0.4, dim=2), lam=0.2, eta0=0.5, truncation=schedule
    )
    for x, y in zip(xs, ys):
        model.step(x, y)
    path = tmp_path / "trunc.npz"
    save_model(path, model)
    back = load_model(path)
    assert back.truncation == schedule
    assert back.support_size == model.support_size
    probes = probe_points(4, 8)
    assert np.allclose(back.predict(probes), model.predict(probes), atol=1e-12)


def truncated_learner(kind):
    schedule = TruncationSchedule(t0=10, epsilon=0.25)
    if kind == "monorma":
        kernels = [SeparableGaussian(mu=1.0, dim=2), SeparableGaussian(mu=3.0, dim=2)]
        return MONORMA(kernels, lam=0.3, eta0=0.6, r=1.5, truncation=schedule)
    kernel = SeparableGaussian(mu=1.0, dim=2) if kind == "gaussian" else NonSeparablePoly(0.4, 2)
    return ONORMA(kernel, lam=0.3, eta0=0.6, truncation=schedule)


def tracked_norms(model):
    return model.gamma if isinstance(model, MONORMA) else np.array([model.norm_sq])


@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(["gaussian", "poly", "monorma"]),
    seed=st.integers(0, 2**16),
    saved_at=st.integers(0, 80),
    continued=st.integers(20, 60),
)
def test_save_load_continue_matches_uninterrupted(tmp_path_factory, kind, seed, saved_at, continued):
    # the reloaded learner rebuilds its cross terms; its later drops must
    # downdate the norms exactly as the uninterrupted run does
    xs, ys = stream(seed, saved_at + continued)
    straight, first = truncated_learner(kind), truncated_learner(kind)
    for x, y in zip(xs[:saved_at], ys[:saved_at]):
        straight.step(x, y)
        first.step(x, y)
    path = tmp_path_factory.mktemp("ckpt") / "model.npz"
    save_model(path, first)
    back = load_model(path)
    for x, y in zip(xs[saved_at:], ys[saved_at:]):
        expected, got = straight.step(x, y), back.step(x, y)
        scale = max(1.0, float(np.max(np.abs(expected.prediction))))
        assert np.max(np.abs(got.prediction - expected.prediction)) <= 1e-12 * scale
        want, have = tracked_norms(straight), tracked_norms(back)
        assert np.all(np.abs(have - want) <= 1e-12 * np.maximum(1.0, want))
    assert back.support_size == straight.support_size < saved_at + continued


def test_monorma_round_trip(tmp_path):
    xs, ys = stream(5, 80)
    kernels = [SeparableGaussian(mu=1.0, dim=2), SeparableGaussian(mu=4.0, dim=2)]
    model = MONORMA(kernels, lam=0.3, eta0=0.6, r=1.5)
    for x, y in zip(xs, ys):
        model.step(x, y)
    path = tmp_path / "mk.npz"
    save_model(path, model)
    back = load_model(path)
    assert back.r == model.r
    # weights travel through JSON as repr floats, hence bit-exact
    assert np.array_equal(back.delta, model.delta)
    assert np.array_equal(back.gamma, model.gamma)
    probes = probe_points(6, 10)
    assert np.allclose(back.predict(probes), model.predict(probes), atol=1e-12)
    x_next, y_next = probe_points(7, 1)[0], np.array([0.1, 0.2])
    r1 = model.step(x_next, y_next)
    r2 = back.step(x_next, y_next)
    assert np.allclose(r1.prediction, r2.prediction, atol=1e-12)
    assert np.allclose(back.delta, model.delta, atol=1e-12)


def test_batch_round_trip(tmp_path):
    xs, ys = stream(8, 40)
    model = fit(SeparableGaussian(mu=2.0, dim=2), xs, ys, lam=0.5)
    path = tmp_path / "batch.npz"
    save_model(path, model)
    back = load_model(path)
    assert back.lam == model.lam
    assert back.norm_sq == model.norm_sq
    assert np.array_equal(back.coeffs, model.coeffs)
    probes = probe_points(9, 6)
    assert np.allclose(back.predict(probes), model.predict(probes), atol=1e-12)


def test_epsilon_survives_exactly(tmp_path):
    eps = 1.0 / 3.0
    model = ONORMA(
        SeparableGaussian(mu=1.0, dim=1), loss=EpsilonInsensitive(eps), lam=0.1
    )
    xs, ys = stream(10, 20, d=1)
    for x, y in zip(xs, ys):
        model.step(x, y)
    path = tmp_path / "eps.npz"
    save_model(path, model)
    back = load_model(path)
    assert back.loss.epsilon == eps


# each builds a trained model from settings that ``num`` passes through: the
# numpy scalars themselves, or their Python values
NUMPY_SETTINGS = {
    "float32-mu": lambda num: ONORMA(SeparableGaussian(num(np.float32(0.3)), 2), lam=0.1),
    "int64-dim": lambda num: ONORMA(SeparableGaussian(1.0, num(np.int64(2))), lam=0.1),
    "float32-lam": lambda num: ONORMA(SeparableGaussian(1.0, 2), lam=num(np.float32(0.1))),
    "float64-epsilon": lambda num: ONORMA(
        SeparableGaussian(1.0, 2), loss=EpsilonInsensitive(num(np.float64(0.25))), lam=0.1
    ),
    "monorma": lambda num: MONORMA(
        [SeparableGaussian(num(np.float32(0.7)), 2), NonSeparablePoly(num(np.float32(0.2)), 2)],
        lam=num(np.float32(0.1)),
        eta0=num(np.float64(0.5)),
        r=num(np.float32(1.5)),
        truncation=TruncationSchedule(num(np.int64(10)), num(np.float32(0.25))),
    ),
    "batch": lambda num: fit(
        SeparableGaussian(num(np.float32(0.3)), 2), *stream(33, 20), lam=num(np.float32(0.1))
    ),
}


@pytest.mark.parametrize("name", NUMPY_SETTINGS)
def test_numpy_scalar_settings_round_trip(tmp_path, name):
    # numpy scalars give the learner of their Python values, which a checkpoint restores
    model, plain = NUMPY_SETTINGS[name](lambda v: v), NUMPY_SETTINGS[name](lambda v: v.item())
    xs, ys = stream(34, 40)
    online = not hasattr(model, "coeffs")
    if online:
        model.fit(xs[:30], ys[:30])
        plain.fit(xs[:30], ys[:30])
    path = tmp_path / "numpy.npz"
    save_model(path, model)
    back = load_model(path)
    # the plain learner's bits; the reloaded one's to 1e-12, as every checkpoint's
    probes = probe_points(35, 6)
    if online:
        assert back.loss == model.loss
        for x, y in zip(xs[30:], ys[30:]):
            expected, again, got = model.step(x, y), plain.step(x, y), back.step(x, y)
            assert np.array_equal(again.prediction, expected.prediction)
            assert np.allclose(got.prediction, expected.prediction, rtol=1e-12, atol=1e-12)
    assert np.array_equal(plain.predict(probes), model.predict(probes))
    assert np.allclose(back.predict(probes), model.predict(probes), rtol=1e-12, atol=1e-12)


def test_epsilon_is_a_real_number():
    assert EpsilonInsensitive(np.float64(0.25)).name() == "eps(0.25)"
    with pytest.raises(ConfigError, match="real number"):
        EpsilonInsensitive(True)


def test_empty_model_round_trip(tmp_path):
    model = ONORMA(SeparableGaussian(mu=1.0, dim=3), lam=0.1)
    path = tmp_path / "fresh.npz"
    save_model(path, model)
    back = load_model(path)
    assert back.t == 0
    assert back.support_size == 0
    assert np.array_equal(back.predict(np.ones((2, 5))), np.zeros((2, 3)))


def test_rejects_foreign_archive(tmp_path):
    path = tmp_path / "foreign.npz"
    np.savez(path, stuff=np.ones(3))
    with pytest.raises(DataError, match="not a model checkpoint"):
        load_model(path)


def test_rejects_unknown_version(tmp_path):
    meta = {"format_version": 99, "model": "onorma"}
    path = tmp_path / "future.npz"
    np.savez(path, meta=np.array(json.dumps(meta)))
    with pytest.raises(DataError, match="format version 99"):
        load_model(path)


def test_rejects_unknown_kind(tmp_path):
    meta = {"format_version": 1, "model": "perceptron"}
    path = tmp_path / "odd.npz"
    np.savez(path, meta=np.array(json.dumps(meta)))
    with pytest.raises(DataError, match="unknown model kind 'perceptron'"):
        load_model(path)


def npy_bytes():
    buf = io.BytesIO()
    np.save(buf, np.ones(3))
    return buf.getvalue()


@pytest.mark.parametrize(
    "contents",
    [None, b"", b"definitely not an archive\n", b"PK\x03\x04 truncated zip", npy_bytes()],
    ids=["missing", "empty", "text", "broken-zip", "bare-array"],
)
def test_rejects_unreadable_file(tmp_path, contents):
    path = tmp_path / "garbage.npz"
    if contents is not None:
        path.write_bytes(contents)
    with pytest.raises(DataError, match="not a model checkpoint"):
        load_model(path)


def test_rejects_incomplete_archive(tmp_path):
    model = ONORMA(SeparableGaussian(mu=1.0, dim=2), lam=0.1)
    xs, ys = stream(11, 5)
    for x, y in zip(xs, ys):
        model.step(x, y)
    full = tmp_path / "full.npz"
    save_model(full, model)
    with np.load(full) as zf:
        meta = zf["meta"]
    path = tmp_path / "partial.npz"
    np.savez(path, meta=meta)  # no support, coeffs or times
    with pytest.raises(DataError, match="not a model checkpoint.*support"):
        load_model(path)
    np.savez(path, meta=np.array(json.dumps({"format_version": 1, "model": "onorma"})))
    with pytest.raises(DataError, match="not a model checkpoint.*kernel"):
        load_model(path)
    np.savez(path, meta=np.array(json.dumps([1, 2])))
    with pytest.raises(DataError, match="not a model checkpoint"):
        load_model(path)


def tampered_copy(source, path, field, value):
    """Rewrite ``source`` into ``path`` with one array entry or meta field set to ``value``."""
    with np.load(source) as zf:
        arrays = {name: zf[name] for name in zf.files}
    meta = json.loads(str(arrays.pop("meta")))
    if field in arrays:
        arrays[field] = arrays[field].copy()
        arrays[field].flat[-1] = value
    elif isinstance(meta[field], list):
        meta[field][-1] = value
    else:
        meta[field] = value
    np.savez(path, meta=np.array(json.dumps(meta)), **arrays)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "kind, field",
    [
        ("onorma", "support"),
        ("onorma", "coeffs"),
        ("onorma", "norm_sq"),
        ("monorma", "support"),
        ("monorma", "gamma"),
        ("monorma", "delta"),
        ("batch", "support"),
        ("batch", "coeffs"),
        ("batch", "norm_sq"),
    ],
)
def test_rejects_non_finite_values(tmp_path, kind, field, value):
    xs, ys = stream(12, 20)
    kernels = [SeparableGaussian(mu=1.0, dim=2), NonSeparablePoly(mu=0.4, dim=2)]
    if kind == "batch":
        model = fit(kernels[0], xs, ys, lam=0.5)
    else:
        model = ONORMA(kernels[0], lam=0.1) if kind == "onorma" else MONORMA(kernels, lam=0.1)
        model.fit(xs, ys)
    saved, path = tmp_path / "saved.npz", tmp_path / "tampered.npz"
    save_model(saved, model)
    load_model(saved)  # the untouched file loads
    tampered_copy(saved, path, field, value)
    with pytest.raises(DataError, match=f"non-finite {field}"):
        load_model(path)


def test_save_rejects_other_objects(tmp_path):
    with pytest.raises(TypeError):
        save_model(tmp_path / "no.npz", object())


# Format v1 as written by hand: the archive entries and meta fields below are
# the format, so a renamed key or a reinterpreted field fails here even when
# save and load change together.
GAUSS_V1 = {"family": "gaussian", "mu": 1.0, "dim": 2, "structure": [[1.0, 0.2], [0.2, 1.0]]}
POLY_V1 = {"family": "poly", "mu": 0.4, "dim": 2}


def v1_terms(seed, times):
    rng = np.random.default_rng(seed)
    n = len(times)
    return rng.uniform(size=(n, 3)), 0.3 * rng.normal(size=(n, 2)), np.array(times, dtype=np.int64)


def v1_onorma_meta(kernel, truncation, t, support, coeffs):
    naive_norm = gram_norm_sq(kernel_from_dict(kernel), support, coeffs)
    return {
        "format_version": 1,
        "model": "onorma",
        "kernel": kernel,
        "loss": "squared",
        "lam": 0.3,
        "eta0": 0.6,
        "truncation": truncation,
        "t": t,
        "norm_sq": naive_norm,
        "input_dim": 3,
    }


def v1_monorma_meta(t, support, coeffs):
    gammas = [gram_norm_sq(kernel_from_dict(k), support, coeffs) for k in (GAUSS_V1, POLY_V1)]
    return {
        "format_version": 1,
        "model": "monorma",
        "kernels": [GAUSS_V1, POLY_V1],
        "loss": "squared",
        "lam": 0.3,
        "eta0": 0.6,
        "r": 1.5,
        "truncation": {"t0": 5, "epsilon": 0.25},
        "t": t,
        # weights on the boundary sum(delta**r) = 1, where every run keeps them
        "delta": [0.8, 0.4325261336522499],
        "gamma": gammas,
        "input_dim": 3,
    }


def write_v1(path, meta, support, coeffs, times):
    np.savez(path, meta=np.array(json.dumps(meta)), support=support, coeffs=coeffs, times=times)


@pytest.mark.parametrize("truncated", [False, True], ids=["plain", "truncated"])
def test_format_v1_onorma_archive_loads_and_resumes(tmp_path, truncated):
    # truncated: t0 = 5 keeps 9 terms at t = 12, and the next steps drop the oldest
    kernel, schedule = (POLY_V1, {"t0": 5, "epsilon": 0.25}) if truncated else (GAUSS_V1, None)
    times = list(range(4, 13)) if truncated else list(range(1, 9))
    support, coeffs, stamps = v1_terms(20, times)
    meta = v1_onorma_meta(kernel, schedule, times[-1], support, coeffs)
    path = tmp_path / "v1.npz"
    write_v1(path, meta, support, coeffs, stamps)
    back = load_model(path)
    assert back.t == meta["t"] and back.norm_sq == meta["norm_sq"]
    assert back.truncation == (TruncationSchedule(**schedule) if truncated else None)
    naive = NaiveOnlineLearner(
        kernel_from_dict(kernel), lam=0.3, eta0=0.6, truncation=back.truncation
    )
    naive.t = meta["t"]
    naive.terms = [[int(k), x, a.copy()] for k, x, a in zip(stamps, support, coeffs)]
    xs, ys, _ = v1_terms(21, range(6))
    for x, y in zip(xs, ys):
        assert np.max(np.abs(back.predict(x) - naive.predict(x))) <= 1e-12
        assert np.max(np.abs(back.step(x, y).prediction - naive.step(x, y))) <= 1e-12
    assert back.support_size == len(naive.terms)
    if truncated:
        assert back.support_size < len(times) + len(xs)


def test_format_v1_monorma_archive_loads(tmp_path):
    support, coeffs, stamps = v1_terms(22, range(4, 13))
    meta = v1_monorma_meta(12, support, coeffs)
    path = tmp_path / "v1.npz"
    write_v1(path, meta, support, coeffs, stamps)
    back = load_model(path)
    assert back.t == 12 and back.r == 1.5
    assert back.truncation == TruncationSchedule(t0=5, epsilon=0.25)
    assert back.delta.tolist() == meta["delta"] and back.gamma.tolist() == meta["gamma"]
    naive = NaiveMultiKernelLearner([kernel_from_dict(k) for k in meta["kernels"]])
    naive.delta = np.array(meta["delta"])
    naive.terms = [[x, a] for x, a in zip(support, coeffs)]
    probes = v1_terms(23, range(5))[0]
    naive_preds = np.array([naive.predict(x) for x in probes])
    assert np.max(np.abs(back.predict(probes) - naive_preds)) <= 1e-12


@pytest.mark.parametrize(
    "kind, field, value, message",
    [
        ("onorma", "t", -5, "t must be an integer >= 0, got -5"),
        ("onorma", "t", "7", "t must be an integer >= 0, got '7'"),
        ("onorma", "t", 2.5, "t must be an integer >= 0, got 2.5"),
        ("onorma", "t", True, "t must be an integer >= 0, got True"),
        ("onorma", "norm_sq", -1, "negative norm_sq"),
        ("monorma", "gamma", [-1, 2], "negative gamma"),
        ("monorma", "delta", [-3, 5], "delta must be >= 0 with sum(delta**r) = 1"),
        ("monorma", "delta", [0.8, 0.5], "delta must be >= 0 with sum(delta**r) = 1"),
    ],
    ids=[
        "t-negative",
        "t-string",
        "t-fraction",
        "t-bool",
        "norm_sq-negative",
        "gamma-negative",
        "delta-negative",
        "delta-off-boundary",
    ],
)
def test_rejects_impossible_meta(tmp_path, kind, field, value, message):
    support, coeffs, stamps = v1_terms(25, range(1, 9))
    if kind == "onorma":
        meta = v1_onorma_meta(GAUSS_V1, None, 8, support, coeffs)
    else:
        meta = v1_monorma_meta(8, support, coeffs)
    path = tmp_path / "v1.npz"
    write_v1(path, meta, support, coeffs, stamps)
    load_model(path)  # the archive before the edit loads
    write_v1(path, {**meta, field: value}, support, coeffs, stamps)
    with pytest.raises(DataError, match=re.escape(message)):
        load_model(path)


@pytest.mark.parametrize("spec", [[1, 2], None, "gaussian"], ids=["list", "null", "string"])
def test_rejects_a_kernel_spec_that_is_not_a_dict(tmp_path, spec):
    with pytest.raises(ConfigError, match="kernel spec must be a dict"):
        kernel_from_dict(spec)
    support, coeffs, stamps = v1_terms(27, range(1, 9))
    meta = {**v1_onorma_meta(GAUSS_V1, None, 8, support, coeffs), "kernel": spec}
    write_v1(tmp_path / "v1.npz", meta, support, coeffs, stamps)
    with pytest.raises(OvkError, match="kernel spec must be a dict"):
        load_model(tmp_path / "v1.npz")


def test_zero_kernel_weight_loads(tmp_path):
    # the weight update underflows small weights to exactly 0 (seen at r = 0.5)
    support, coeffs, stamps = v1_terms(26, range(1, 9))
    meta = {**v1_monorma_meta(8, support, coeffs), "delta": [0.0, 1.0]}
    write_v1(tmp_path / "v1.npz", meta, support, coeffs, stamps)
    assert load_model(tmp_path / "v1.npz").delta.tolist() == [0.0, 1.0]


def test_save_model_writes_format_v1_fields(tmp_path):
    support, coeffs, _ = v1_terms(24, range(3))
    truncated = TruncationSchedule(t0=5, epsilon=0.25)
    gaussian, poly = kernel_from_dict(GAUSS_V1), kernel_from_dict(POLY_V1)
    cases = [
        (ONORMA(gaussian, lam=0.3, eta0=0.6), v1_onorma_meta(GAUSS_V1, None, 3, support, coeffs)),
        (
            MONORMA([gaussian, poly], lam=0.3, eta0=0.6, r=1.5, truncation=truncated),
            v1_monorma_meta(3, support, coeffs),
        ),
    ]
    for model, v1_meta in cases:
        model.fit(support, coeffs)
        path = tmp_path / "saved.npz"
        save_model(path, model)
        with np.load(path) as zf:
            assert sorted(zf.files) == ["coeffs", "meta", "support", "times"]
            assert sorted(json.loads(str(zf["meta"]))) == sorted(v1_meta)
    save_model(path, fit(gaussian, support, coeffs, lam=0.5))
    with np.load(path) as zf:
        assert sorted(zf.files) == ["coeffs", "meta", "support"]
        batch_meta = json.loads(str(zf["meta"]))
    assert sorted(batch_meta) == ["format_version", "kernel", "lam", "model", "norm_sq"]
