"""Every public numeric setting goes through one gate (``ovklearn.exceptions``).

A setting is a finite real number or an int, a bool is neither, and a
numpy scalar is stored as the Python number of the same value.  Each
entry point below is called once per rejected value, which must raise
ConfigError and no other exception type, and once with a numpy scalar,
whose result must equal, type included, the result for the Python number.
"""

import json
import math

import numpy as np
import pytest

from ovklearn import (
    MONORMA,
    ONORMA,
    BatchModel,
    EpsilonInsensitive,
    ExperimentConfig,
    NonSeparablePoly,
    SeparableGaussian,
    SynthSpec,
    TruncationSchedule,
    batch_fit,
    check_cumulative_bound,
    compute_constants,
    delta_update,
    encode_labels,
    gen_synthetic,
    load_csv,
    load_model,
    save_model,
    split_and_normalize,
    sweep,
    truncation_window,
)
from ovklearn.exceptions import ConfigError

KERNEL = SeparableGaussian(1.0, 2)
XS = np.linspace(0.0, 1.0, 12).reshape(6, 2)
YS = np.cos(XS)
DATASET = gen_synthetic(SynthSpec(10, 2, 0))
# one step, so that m = True would also pass a count of the log's steps
RUN_LOG = ONORMA(KERNEL, lam=0.125, eta0=0.5).fit(XS[:1], YS[:1])
CONSTANTS = compute_constants(1.0, c_y=1.0, eta0=0.25, lam=3.0, branch="least_squares")

# name -> (kind, a valid value exact in float32, call(value, csv path), what it stores)
SETTINGS = {
    "gaussian mu": ("real", 0.5, lambda v, _: SeparableGaussian(v, 2), lambda k: k.mu),
    "gaussian dim": ("int", 2, lambda v, _: SeparableGaussian(1.0, v), lambda k: k.dim),
    "poly mu": ("real", 0.25, lambda v, _: NonSeparablePoly(v, 2), lambda k: k.mu),
    "poly dim": ("int", 3, lambda v, _: NonSeparablePoly(0.5, v), lambda k: k.dim),
    "ONORMA lam": ("real", 0.125, lambda v, _: ONORMA(KERNEL, lam=v, eta0=0.5), lambda m: m.lam),
    "ONORMA eta0": ("real", 0.5, lambda v, _: ONORMA(KERNEL, lam=0.125, eta0=v), lambda m: m.eta0),
    "MONORMA lam": (
        "real", 0.125, lambda v, _: MONORMA([KERNEL] * 2, lam=v, eta0=0.5), lambda m: m.lam
    ),
    "MONORMA eta0": ("real", 0.5, lambda v, _: MONORMA([KERNEL] * 2, eta0=v), lambda m: m.eta0),
    "MONORMA r": ("real", 2.0, lambda v, _: MONORMA([KERNEL] * 2, eta0=0.5, r=v), lambda m: m.r),
    "TruncationSchedule t0": ("int", 10, lambda v, _: TruncationSchedule(v), lambda s: s.t0),
    "TruncationSchedule epsilon": (
        "real", 0.25, lambda v, _: TruncationSchedule(10, v), lambda s: s.epsilon
    ),
    "truncation_window t": ("int", 50, lambda v, _: truncation_window(v, 10, 0.25), lambda w: w),
    "truncation_window t0": ("int", 10, lambda v, _: truncation_window(50, v, 0.25), lambda w: w),
    "truncation_window epsilon": (
        "real", 0.25, lambda v, _: truncation_window(50, 10, v), lambda w: w
    ),
    "EpsilonInsensitive epsilon": (
        "real", 0.25, lambda v, _: EpsilonInsensitive(v), lambda loss: loss.epsilon
    ),
    "batch_fit lam": ("real", 0.5, lambda v, _: batch_fit(KERNEL, XS, YS, v), lambda b: b.lam),
    "BatchModel lam": (
        "real", 0.5, lambda v, _: BatchModel(KERNEL, XS, YS, lam=v, norm_sq=0.25), lambda b: b.lam
    ),
    "BatchModel norm_sq": (
        "real",
        0.25,
        lambda v, _: BatchModel(KERNEL, XS, YS, lam=0.5, norm_sq=v),
        lambda b: b.norm_sq,
    ),
    "delta_update r": (
        "real", 2.0, lambda v, _: delta_update([0.5, 0.5], [1.0, 2.0], v), lambda d: d.tolist()
    ),
    "SynthSpec n_instances": ("int", 10, lambda v, _: SynthSpec(v, 2, 0), lambda s: s.n_instances),
    "SynthSpec n_outputs": ("int", 2, lambda v, _: SynthSpec(10, v, 0), lambda s: s.n_outputs),
    "SynthSpec seed": ("int", 3, lambda v, _: SynthSpec(10, 2, v), lambda s: s.seed),
    "split_and_normalize train_fraction": (
        "real", 0.5, lambda v, _: split_and_normalize(DATASET, v, 0), lambda r: len(r[0])
    ),
    "split_and_normalize seed": (
        "int", 3, lambda v, _: split_and_normalize(DATASET, 0.5, v), lambda r: r[0].xs.tolist()
    ),
    "load_csv input column": (
        "int", 0, lambda v, path: load_csv(path, [v, 1], [2], header=False), lambda d: d.xs.tolist()
    ),
    "load_csv output column": (
        "int", 2, lambda v, path: load_csv(path, [0, 1], [v], header=False), lambda d: d.ys.tolist()
    ),
    "load_csv one_hot_classes": (
        "int",
        3,
        lambda v, path: load_csv(path, [0, 1], [2], header=False, one_hot_classes=v),
        lambda d: d.ys.tolist(),
    ),
    "encode_labels class_index": ("int", 1, lambda v, _: encode_labels(v, 3), lambda c: c.tolist()),
    "encode_labels d": ("int", 3, lambda v, _: encode_labels(1, v), lambda c: c.tolist()),
    "compute_constants eta0": (
        "real",
        0.25,
        lambda v, _: compute_constants(1.0, c_y=1.0, eta0=v, lam=3.0, branch="least_squares"),
        lambda c: c.eta0,
    ),
    "compute_constants lam": (
        "real",
        3.0,
        lambda v, _: compute_constants(1.0, c_y=1.0, eta0=0.25, lam=v, branch="least_squares"),
        lambda c: c.lam,
    ),
    "compute_constants c_y": (
        "real",
        1.0,
        lambda v, _: compute_constants(1.0, c_y=v, eta0=0.25, lam=3.0, branch="least_squares"),
        lambda c: c.c_y,
    ),
    "check_cumulative_bound batch_risk": (
        "real",
        0.5,
        lambda v, _: check_cumulative_bound(RUN_LOG, v, CONSTANTS, 1),
        lambda r: r.batch_risk,
    ),
    "check_cumulative_bound m": (
        "int", 1, lambda v, _: check_cumulative_bound(RUN_LOG, 0.5, CONSTANTS, v), lambda r: r.m
    ),
}

REJECTED = {
    "True": True, "np.True_": np.True_, "'1'": "1", "None": None, "nan": math.nan, "inf": math.inf
}

# None is a valid value here: no one-hot coding
NONE_ALLOWED = {"load_csv one_hot_classes"}


def _cases():
    for name, (kind, *_) in SETTINGS.items():
        labels = [*REJECTED, *(["2.5"] if kind == "int" else []), "numpy"]
        for label in labels:
            if not (label == "None" and name in NONE_ALLOWED):
                yield pytest.param(name, label, id=f"{name}-{label}")


@pytest.mark.parametrize("name, label", _cases())
def test_numeric_settings_pass_one_gate(name, label, tmp_path):
    kind, valid, call, stored = SETTINGS[name]
    path = tmp_path / "classes.csv"
    path.write_text("0.5,1.5,0\n1.0,0.25,2\n2.0,1.0,1\n")
    if label != "numpy":
        with pytest.raises(ConfigError):
            call({"2.5": 2.5, **REJECTED}[label], path)
        return
    # a numpy scalar gives the Python number's result, as a Python number
    scalar = np.float32(valid) if kind == "real" else np.int64(valid)
    want, got = stored(call(valid, path)), stored(call(scalar, path))
    assert type(want) in (float, int, list)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize(
    "lam, norm_sq",
    [(0.0, 0.25), (-0.5, 0.25), (0.5, -0.25)],
    ids=["lam-0", "lam-negative", "norm-negative"],
)
def test_batch_model_rejects_out_of_range_numbers(lam, norm_sq):
    with pytest.raises(ConfigError):
        BatchModel(KERNEL, XS, YS, lam=lam, norm_sq=norm_sq)


def test_batch_checkpoint_with_a_string_lambda_is_a_config_error(tmp_path):
    path = tmp_path / "batch.npz"
    save_model(path, batch_fit(KERNEL, XS, YS, 0.5))
    with np.load(path) as zf:
        arrays = {name: zf[name] for name in zf.files}
    meta = json.loads(str(arrays.pop("meta")))
    meta["lam"] = "0.5"
    np.savez(path, meta=np.array(json.dumps(meta)), **arrays)
    with pytest.raises(ConfigError, match="lambda must be a real number"):
        load_model(path)


SWEEP_CONFIG = ExperimentConfig(n_instances=20, n_outputs=2, eta0=0.5)


@pytest.mark.parametrize(
    "value",
    [True, np.True_, None, math.nan, math.inf, "nan", "inf"],
    ids=["True", "np.True_", "None", "nan", "inf", "'nan'", "'inf'"],
)
def test_sweep_values_pass_the_numeric_gate(value):
    with pytest.raises(ConfigError):
        sweep(SWEEP_CONFIG, "lambda", [0.5, value])


def test_sweep_reads_numpy_scalars_and_strings_as_their_numbers():
    # the CLI hands sweep strings; a numpy scalar runs as its Python number
    want = sweep(SWEEP_CONFIG, "lambda", [0.5])
    for value in (np.float32(0.5), "0.5"):
        ((got_value, got),) = sweep(SWEEP_CONFIG, "lambda", [value])
        assert type(got_value) is float and got_value == 0.5
        assert {k: v for k, v in got.items() if not k.endswith("time_s")} == {
            k: v for k, v in want[0][1].items() if not k.endswith("time_s")
        }
