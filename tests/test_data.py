import numpy as np
import pytest

from ovklearn.data import (
    SYNTH_INPUT_DIM,
    WEIGHT_VARIANCES,
    Dataset,
    SynthSpec,
    feature_map,
    gen_synthetic,
    load_csv,
    save_csv,
    split_and_normalize,
    synthetic_weights,
)
from ovklearn.cli import main
from ovklearn.exceptions import ConfigError, DataError


def test_feature_map_zero_input():
    phi = feature_map(np.zeros(SYNTH_INPUT_DIM))
    assert np.array_equal(phi, [0, 0, 0, 0, 0, 0, 1])
    # only the constant feature survives, so each output is the last weight
    spec = SynthSpec(10, 3, seed=5)
    w = synthetic_weights(spec)
    assert np.array_equal(feature_map(np.zeros(20)) @ w.T, w[:, 6])


def test_feature_map_hand_values():
    x = np.arange(1.0, 21.0)
    phi = feature_map(x)
    assert np.array_equal(phi, [1.0, 16.0, 2.0, 15.0, 2.0, 4.0, 1.0])
    batch = feature_map(np.stack([x, 2 * x]))
    assert batch.shape == (2, 7)
    assert np.array_equal(batch[0], phi)


def test_feature_map_needs_five_columns():
    with pytest.raises(DataError):
        feature_map(np.ones(4))


def test_gen_synthetic_shapes_and_determinism():
    spec = SynthSpec(50, 4, seed=123)
    ds = gen_synthetic(spec)
    assert ds.xs.shape == (50, 20)
    assert ds.ys.shape == (50, 4)
    assert ds.task == "regression"
    assert "seed123" in ds.name
    again = gen_synthetic(SynthSpec(50, 4, seed=123))
    assert np.array_equal(ds.xs, again.xs)
    assert np.array_equal(ds.ys, again.ys)
    other = gen_synthetic(SynthSpec(50, 4, seed=124))
    assert not np.array_equal(ds.xs, other.xs)


def test_feature_and_weight_draws_are_independent_streams():
    # same seed, different sizes: the weight draw must not shift when the
    # number of instances changes
    w_small = synthetic_weights(SynthSpec(10, 3, seed=9))
    w_large = synthetic_weights(SynthSpec(10_000, 3, seed=9))
    assert np.array_equal(w_small, w_large)


def test_synthetic_feature_means():
    ds = gen_synthetic(SynthSpec(2000, 2, seed=77))
    means = ds.xs.mean(axis=0)
    assert np.all(means >= 0.45) and np.all(means <= 0.55)


def test_weight_recovery_by_least_squares():
    spec = SynthSpec(200, 5, seed=31)
    ds = gen_synthetic(spec)
    phi = feature_map(ds.xs)
    recovered, *_ = np.linalg.lstsq(phi, ds.ys, rcond=None)
    assert np.allclose(recovered.T, synthetic_weights(spec), atol=1e-8)


def test_weight_marginal_spreads():
    # many outputs = many iid weight rows; sample std tracks the target
    w = synthetic_weights(SynthSpec(1, 4000, seed=3))
    stds = w.std(axis=0)
    assert np.all(np.abs(stds - np.sqrt(WEIGHT_VARIANCES)) <= 0.1 * np.sqrt(WEIGHT_VARIANCES))


def test_csv_round_trip(tmp_path):
    ds = gen_synthetic(SynthSpec(25, 3, seed=8))
    path = tmp_path / "synth.csv"
    save_csv(path, ds)
    back = load_csv(path, range(20), range(20, 23))
    assert np.array_equal(back.xs, ds.xs)
    assert np.array_equal(back.ys, ds.ys)
    header = path.read_text().splitlines()[0]
    assert header.startswith("x1,") and header.endswith(",y3")


def test_load_csv_without_header(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("1,2,3\n4,5,6\n")
    ds = load_csv(path, [0, 1], [2], header=False)
    assert np.array_equal(ds.xs, [[1.0, 2.0], [4.0, 5.0]])
    assert np.array_equal(ds.ys, [[3.0], [6.0]])


def test_load_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("a,b,c\n1,2,3\n\n ,, \n4,5,6\n")
    ds = load_csv(path, [0, 1], [2])
    assert len(ds) == 2


def test_load_csv_error_reporting(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f1,f2,target\n1,2,3\n1,oops,3\n")
    with pytest.raises(DataError, match=r"bad\.csv:3.*'oops'.*f2"):
        load_csv(path, [0, 1], [2])
    short = tmp_path / "short.csv"
    short.write_text("f1,f2,target\n1,2\n")
    with pytest.raises(DataError, match="need at least 3 columns"):
        load_csv(short, [0, 1], [2])
    empty = tmp_path / "empty.csv"
    empty.write_text("f1,f2,target\n")
    with pytest.raises(DataError, match="no data rows"):
        load_csv(empty, [0, 1], [2])
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "missing.csv", [0], [1])


def test_load_csv_column_spec_validation(tmp_path):
    path = tmp_path / "ok.csv"
    path.write_text("1,2,3\n")
    with pytest.raises(ConfigError, match="overlap"):
        load_csv(path, [0, 1], [1], header=False)
    with pytest.raises(ConfigError):
        load_csv(path, [], [2], header=False)


@pytest.mark.parametrize(
    "input_cols, output_cols, message",
    [
        ([0, 1], [-1], "output_cols: column index -1 is negative"),
        ([-1, 0, 1], [2], "input_cols: column index -1 is negative"),
    ],
)
def test_load_csv_rejects_negative_columns(tmp_path, input_cols, output_cols, message):
    path = tmp_path / "ok.csv"
    path.write_text("1,2,3\n4,5,6\n")
    with pytest.raises(ConfigError, match=message):
        load_csv(path, input_cols, output_cols, header=False)


@pytest.mark.parametrize(
    "cols, message",
    [
        (["input_cols=0-19", "output_cols=-1"], "output_cols: column index -1 is negative"),
        (["input_cols=-1,0-19", "output_cols=20"], "input_cols: column index -1 is negative"),
    ],
    ids=["last-column-as-output", "label-as-input"],
)
def test_train_rejects_negative_columns(tmp_path, capsys, cols, message):
    path = tmp_path / "data.csv"
    save_csv(path, gen_synthetic(SynthSpec(10, 1, seed=0)))
    argv = ["train", "--set", "data=csv", "--set", f"csv_path={path}"]
    for setting in cols:
        argv += ["--set", setting]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_load_csv_one_hot(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("f1,f2,label\n0.1,0.2,0\n0.3,0.4,2\n0.5,0.6,1\n")
    ds = load_csv(path, [0, 1], [2], one_hot_classes=3)
    assert ds.task == "classification"
    assert np.array_equal(ds.ys, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    bad = tmp_path / "frac.csv"
    bad.write_text("f,label\n0.1,1.5\n")
    with pytest.raises(DataError, match="not an integer"):
        load_csv(bad, [0], [1], one_hot_classes=3)
    out_of_range = tmp_path / "range.csv"
    out_of_range.write_text("f,label\n0.1,7\n")
    with pytest.raises(DataError):
        load_csv(out_of_range, [0], [1], one_hot_classes=3)
    with pytest.raises(ConfigError):
        load_csv(path, [0], [1, 2], one_hot_classes=3)
    with pytest.raises(ConfigError):
        load_csv(path, [0, 1], [2], one_hot_classes=1)


def test_split_even_halves():
    ds = gen_synthetic(SynthSpec(100, 2, seed=4))
    train, test, stats = split_and_normalize(ds, 0.5, seed=1)
    assert len(train) == 50 and len(test) == 50
    assert stats.mean is None and stats.std is None
    # the two halves partition the original rows
    merged = np.vstack([train.xs, test.xs])
    assert np.array_equal(
        merged[np.lexsort(merged.T)], ds.xs[np.lexsort(ds.xs.T)]
    )


def test_split_seed_determinism():
    ds = gen_synthetic(SynthSpec(60, 2, seed=4))
    t1, _, _ = split_and_normalize(ds, 0.5, seed=9)
    t2, _, _ = split_and_normalize(ds, 0.5, seed=9)
    assert np.array_equal(t1.xs, t2.xs)
    t3, _, _ = split_and_normalize(ds, 0.5, seed=10)
    assert not np.array_equal(t1.xs, t3.xs)


def test_split_validation():
    ds = gen_synthetic(SynthSpec(10, 2, seed=4))
    with pytest.raises(ConfigError):
        split_and_normalize(ds, 0.0, seed=1)
    with pytest.raises(ConfigError):
        split_and_normalize(ds, 1.0, seed=1)
    with pytest.raises(DataError):
        split_and_normalize(ds, 0.01, seed=1)
    with pytest.raises(DataError):
        split_and_normalize(ds, 0.99, seed=1)


def test_normalization_uses_train_statistics():
    rng = np.random.default_rng(90)
    xs = rng.normal(loc=5.0, scale=3.0, size=(80, 4))
    xs[:, 3] = 2.5  # constant column: std is replaced by 1
    ys = rng.normal(size=(80, 2))
    ds = Dataset(xs, ys)
    train, test, stats = split_and_normalize(ds, 0.5, seed=2, normalize=True)
    assert np.all(np.abs(train.xs.mean(axis=0)) <= 1e-10)
    assert np.allclose(train.xs.std(axis=0)[:3], 1.0, atol=1e-10)
    assert np.allclose(train.xs[:, 3], 0.0)
    # test rows are transformed with the train stats, not their own
    restored = test.xs * stats.std + stats.mean
    reference, _, _ = split_and_normalize(ds, 0.5, seed=2, normalize=False)
    assert np.allclose(np.sort(restored[:, 0]), np.sort(np.setdiff1d(xs[:, 0], reference.xs[:, 0])), atol=1e-12)
    assert stats.std[3] == 1.0


def test_dataset_validation():
    with pytest.raises(DataError):
        Dataset(np.ones(3), np.ones((3, 1)))
    with pytest.raises(DataError):
        Dataset(np.ones((3, 2)), np.ones((4, 1)))
    with pytest.raises(DataError):
        Dataset(np.array([[np.nan, 1.0]]), np.ones((1, 1)))
    with pytest.raises(DataError):
        Dataset(np.ones((2, 2)), np.ones((2, 1)), task="ranking")


def test_dataset_immutability_and_take():
    ds = gen_synthetic(SynthSpec(10, 2, seed=4))
    with pytest.raises(ValueError):
        ds.xs[0, 0] = 5.0
    sub = ds.take([3, 1], name="probe")
    assert sub.name == "probe"
    assert np.array_equal(sub.xs[0], ds.xs[3])
    assert len(sub) == 2
    assert sub.input_dim == 20 and sub.output_dim == 2


def test_synth_spec_validation():
    with pytest.raises(ConfigError):
        SynthSpec(0, 2, seed=1)
    with pytest.raises(ConfigError):
        SynthSpec(5, 0, seed=1)
