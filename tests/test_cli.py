import dataclasses
from pathlib import Path

import numpy as np
import pytest

import ovklearn.cli
from ovklearn.cli import main

BOUND_CONFIG = str(Path(__file__).resolve().parents[1] / "configs" / "bound-check.cfg")


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_then_train(tmp_path, capsys):
    data = tmp_path / "synth.csv"
    code, out, _ = run_cli(
        ["generate", "--n", "40", "--outputs", "2", "--seed", "7", "--out", str(data)],
        capsys,
    )
    assert code == 0
    assert out.strip() == f"wrote 40 rows (20 inputs, 2 outputs) to {data}"

    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "data = csv\n"
        f"csv_path = {data}\n"
        "input_cols = 0-19\n"
        "output_cols = 20-21\n"
        "lambda = 3\n"
        "eta0 = 0.3\n"
    )
    code, out, _ = run_cli(["train", "--config", str(cfg)], capsys)
    assert code == 0
    assert "algorithm = onorma" in out
    assert "n_train = 20" in out
    assert "test_mse = " in out


def test_train_with_overrides(capsys):
    code, out, _ = run_cli(
        [
            "train",
            "--set", "n_instances=40",
            "--set", "n_outputs=2",
            "--set", "lambda=3",
            "--set", "eta0=0.3",
            "--set", "algorithm=batch",
        ],
        capsys,
    )
    assert code == 0
    assert "algorithm = batch" in out
    assert "fit_time_s = " in out


def test_missing_config_file(tmp_path, capsys):
    code, _, err = run_cli(["train", "--config", str(tmp_path / "nope.cfg")], capsys)
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "settings",
    [
        ["structure={dir}"],
        ["data=csv", "csv_path={dir}", "input_cols=0", "output_cols=1"],
        ["metrics={dir}"],
    ],
    ids=["structure", "csv_path", "metrics"],
)
def test_directory_as_file_path_exits_2(tmp_path, capsys, settings):
    argv = ["train", "--config", BOUND_CONFIG]
    for item in settings:
        argv += ["--set", item.format(dir=tmp_path)]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("error: ") and str(tmp_path) in err


def test_bad_algorithm_exits_2(capsys):
    code, _, err = run_cli(["train", "--set", "algorithm=magic"], capsys)
    assert code == 2
    assert "algorithm" in err


def test_malformed_override_exits_2(capsys):
    code, _, err = run_cli(["train", "--set", "lambda"], capsys)
    assert code == 2
    assert "expected key=value" in err


@pytest.mark.parametrize("algorithm", ["onorma", "monorma", "batch"])
def test_nan_hyperparameter_exits_2(algorithm, capsys):
    code, _, err = run_cli(
        ["train", "--set", f"algorithm={algorithm}", "--set", "lambda=nan"], capsys
    )
    assert code == 2
    assert "lambda must be finite and > 0, got nan" in err


@pytest.mark.parametrize("r", ["1e-300", "1e308"])
def test_unrepresentable_weight_exponent_exits_2(r, capsys):
    # the two weights would start at 0 (predicting 0 everywhere) or at 1 each (off the simplex)
    code, _, err = run_cli(
        [
            "train",
            "--config",
            BOUND_CONFIG,
            "--set",
            "algorithm=monorma",
            "--set",
            "kernel=gaussian(mu=1),gaussian(mu=2)",
            "--set",
            f"r={r}",
        ],
        capsys,
    )
    assert code == 2
    assert f"constraint exponent r = {float(r)!r} cannot weight 2 kernels" in err


@pytest.mark.parametrize("setting", ["lambda=nan", "lambda=inf", "eta0=nan", "eta0=inf"])
def test_check_bounds_non_finite_hyperparameter_exits_2(setting, capsys):
    code, _, err = run_cli(
        ["check-bounds", "--config", BOUND_CONFIG, "--set", setting], capsys
    )
    assert code == 2
    name, value = setting.split("=")
    assert f"{name} must be finite and > 0, got {value}" in err


def test_non_finite_epsilon_exits_2(capsys):
    code, _, err = run_cli(["train", "--set", "loss=eps(nan)"], capsys)
    assert code == 2
    assert "bad epsilon in loss spec 'eps(nan)'" in err


def test_infinite_gaussian_bandwidth_exits_2(capsys):
    code, _, err = run_cli(["train", "--set", "kernel=gaussian(mu=1e400)"], capsys)
    assert code == 2
    assert "gaussian kernel mu must be finite and > 0, got inf" in err


def test_subnormal_gaussian_bandwidth_exits_2(capsys):
    code, _, err = run_cli(["train", "--set", "kernel=gaussian(mu=1e-320)"], capsys)
    assert code == 2
    assert "gaussian kernel mu must have a finite reciprocal, got 1e-320" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--set", "seed=-1"],
        ["check-bounds", "--config", BOUND_CONFIG, "--set", "seed=-1"],
        ["generate", "--n", "10", "--seed", "-1", "--out", "unused.csv"],
    ],
    ids=["train", "check-bounds", "generate"],
)
def test_negative_seed_exits_2(argv, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert "must be >= 0, got -1" in err


def singular_batch_run(tmp_path, capsys, extra=()):
    # duplicated rows with a vanishing ridge make the solve unservable
    data = tmp_path / "dup.csv"
    rows = ["f1,f2,y1"]
    for _ in range(10):
        rows.append("0.5,0.5,1.0")
        rows.append("0.5,0.5,-1.0")
    data.write_text("\n".join(rows) + "\n")
    return run_cli(
        [
            "train",
            "--set", "algorithm=batch",
            "--set", "data=csv",
            "--set", f"csv_path={data}",
            "--set", "input_cols=0-1",
            "--set", "output_cols=2",
            "--set", "lambda=1e-300",
            *extra,
        ],
        capsys,
    )


def test_singular_batch_system_exits_3(tmp_path, capsys):
    code, _, err = singular_batch_run(tmp_path, capsys)
    assert code == 3
    assert err.startswith("numeric failure: ")


def test_singular_poly_batch_system_exits_3(tmp_path, capsys):
    # the dense solve fails the same way and reports its two-spectrum condition estimate
    code, _, err = singular_batch_run(tmp_path, capsys, ["--set", "kernel=poly(mu=0.5)"])
    assert code == 3
    assert err.startswith("numeric failure: ")
    assert "condition estimate" in err


@pytest.mark.parametrize("kernel", ["gaussian(mu=1)", "poly(mu=0.2)"])
def test_batch_fit_on_inputs_whose_kernel_values_overflow_exits_3(kernel, tmp_path, capsys):
    data = tmp_path / "huge.csv"
    xs = np.random.default_rng(0).standard_normal((40, 3)) * 1e160
    ys = np.random.default_rng(1).standard_normal((40, 2))
    np.savetxt(data, np.hstack([xs, ys]), delimiter=",")
    argv = ["train", "--config", BOUND_CONFIG, "--set", "algorithm=batch", "--set", "data=csv"]
    argv += ["--set", f"csv_path={data}", "--set", "input_cols=0-2", "--set", "output_cols=3-4"]
    argv += ["--set", "normalize=false", "--set", f"kernel={kernel}"]
    with np.errstate(over="ignore", invalid="ignore"):
        code, _, err = run_cli(argv, capsys)
    assert code == 3
    assert err.startswith("numeric failure: non-finite kernel values")


def summary_value(out, key):
    (line,) = [line for line in out.splitlines() if line.startswith(f"{key} = ")]
    return float(line.split(" = ")[1])


def test_train_warns_when_the_effective_step_diverges(capsys):
    # the literal reference settings: eta0 = 1 puts the first step at 14-72
    config = str(Path(BOUND_CONFIG).with_name("benchmark.cfg"))
    code, out, err = run_cli(["train", "--config", config], capsys)
    assert code == 0
    assert summary_value(out, "max_eff_step") > 2.0
    assert err.startswith("warning: max_eff_step = ")


def test_train_is_silent_when_the_effective_step_is_stable(capsys):
    code, out, err = run_cli(["train", "--config", BOUND_CONFIG], capsys)
    assert code == 0
    assert summary_value(out, "max_eff_step") <= 2.0
    assert err == ""


def test_monorma_train_warns_when_its_effective_step_diverges(capsys):
    # the weighted bound reads about 49 here; the run's cumulative MSE reaches 1e157
    config = str(Path(BOUND_CONFIG).with_name("benchmark.cfg"))
    argv = ["train", "--config", config, "--set", "algorithm=monorma"]
    code, out, err = run_cli(argv + ["--set", "kernel=poly(mu=0.2),poly(mu=0.8)"], capsys)
    assert code == 0
    assert summary_value(out, "max_eff_step") > 2.0
    assert err.startswith("warning: max_eff_step = ")
    argv = ["train", "--config", BOUND_CONFIG, "--set", "algorithm=monorma"]
    code, out, err = run_cli(argv + ["--set", "kernel=gaussian(mu=1),gaussian(mu=2)"], capsys)
    assert code == 0
    assert summary_value(out, "max_eff_step") <= 2.0
    assert err == ""


def stable_args(extra=()):
    base = [
        "check-bounds",
        "--set", "n_instances=80",
        "--set", "n_outputs=2",
        "--set", "lambda=3",
        "--set", "eta0=0.3",
    ]
    return base + list(extra)


def test_check_bounds_pass(capsys):
    code, out, _ = run_cli(stable_args(), capsys)
    assert code == 0
    assert "hypotheses_pass = true" in out
    assert "result = bound holds" in out


def test_check_bounds_at_a_thousand_training_rows(capsys):
    # the guarantee's batch reference is then a t = 1000, d = 4 Gaussian fit
    code, out, _ = run_cli(
        ["check-bounds", "--config", BOUND_CONFIG, "--set", "n_instances=2000"], capsys
    )
    assert code == 0
    assert "m = 1000" in out
    assert "result = bound holds" in out


def test_check_bounds_hypothesis_failure(capsys):
    code, out, _ = run_cli(stable_args(["--set", "lambda=0.01"]), capsys)
    assert code == 3
    assert "result = hypotheses failed; no guarantee to check" in out


def test_check_bounds_violation_exits_3(monkeypatch, capsys):
    real = ovklearn.cli.bound_check

    def violated(cfg):
        hyp, consts, report = real(cfg)
        return hyp, consts, dataclasses.replace(report, rhs=report.lhs - 1.0, slack=-1.0)

    monkeypatch.setattr(ovklearn.cli, "bound_check", violated)
    code, out, _ = run_cli(stable_args(), capsys)
    assert code == 3
    assert "holds = false" in out
    assert out.endswith("result = bound violated\n")


def test_check_bounds_eps_loss_diagnostics(capsys):
    code, out, _ = run_cli(stable_args(["--set", "loss=eps(0.25)"]), capsys)
    assert code == 0
    assert "result = no batch reference for this loss; diagnostics only" in out


def test_sweep_writes_table(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    code, out, _ = run_cli(
        [
            "sweep",
            "--set", "n_instances=40",
            "--set", "n_outputs=2",
            "--set", "eta0=0.3",
            "--param", "lambda",
            "--values", "3,2.5",
            "--out", str(out_path),
        ],
        capsys,
    )
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "value,test_mse,cum_mse,time_s"
    assert len(lines) == 3
    assert [float(line.split(",")[0]) for line in lines[1:]] == [2.5, 3.0]
    assert out.startswith("value,test_mse,cum_mse,time_s")


def test_sweep_non_numeric_value_exits_2(capsys):
    code, _, err = run_cli(["sweep", "--param", "lambda", "--values", "abc"], capsys)
    assert code == 2
    assert "sweep values must be numbers" in err


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_generate_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(["generate", "--n", "10", "--outputs", "2", "--out", str(a)], capsys)
    run_cli(["generate", "--n", "10", "--outputs", "2", "--out", str(b)], capsys)
    assert a.read_text() == b.read_text()
    arr = np.loadtxt(a, delimiter=",", skiprows=1)
    assert arr.shape == (10, 22)


# keys whose values are words, not numbers, in the check-bounds report
TEXT_KEYS = {
    "kappa_note", "branch", "loss", "sigma_admissible", "hypotheses_pass",
    "holds", "truncated", "result", "c_lip",
}


def test_check_bounds_prints_plain_numbers(capsys):
    code, out, _ = run_cli(stable_args(), capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert not [line for line in lines if "np." in line]
    numbers = {}
    for line in lines:
        key, value = line.split(" = ", 1)
        if key not in TEXT_KEYS:
            numbers[key] = float(value)
    assert {"rhs", "slack", "kappa", "u", "alpha", "beta"} <= set(numbers)
    # the guarantee's numbers on the shipped config, pinned
    code, out, _ = run_cli(["check-bounds", "--config", BOUND_CONFIG], capsys)
    assert code == 0
    pinned = {
        "lhs_mean_inst_risk": 0.6343758257167997,
        "batch_risk": 0.6215416241188464,
        "rhs": 4.804143869371358,
        "slack": 4.1697680436545586,
    }
    values = dict(line.split(" = ", 1) for line in out.strip().split("\n"))
    for key, expected in pinned.items():
        assert float(values[key]) == pytest.approx(expected, rel=1e-12, abs=0.0)


POLY_BANK = "kernel=poly(mu=0),poly(mu=0.5),poly(mu=1)"


@pytest.mark.parametrize(
    "extra, final_cum_mse, test_mse",
    [
        (["kernel=poly(mu=0.2)"], 0.33085980047712793, 0.23983303004721598),
        (
            ["kernel=poly(mu=0.2)", "truncate=true", "t0=30"],
            0.45257801361291145,
            0.3820923200911847,
        ),
        (["algorithm=monorma", POLY_BANK], 0.2998935602309761, 0.20286026512932145),
        (
            ["algorithm=monorma", POLY_BANK, "truncate=true", "t0=30"],
            0.42350018270797923,
            0.35741896692668845,
        ),
    ],
    ids=["onorma", "onorma-truncated", "monorma", "monorma-truncated"],
)
def test_poly_train_numbers_pinned(capsys, extra, final_cum_mse, test_mse):
    # the poly step reads each term's stored coefficient sum; these pin its results
    argv = ["train", "--config", BOUND_CONFIG, "--set", "lambda=0.01", "--set", "eta0=0.02"]
    for setting in extra:
        argv += ["--set", setting]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    values = dict(line.split(" = ", 1) for line in out.strip().split("\n"))
    assert float(values["final_cum_mse"]) == pytest.approx(final_cum_mse, rel=1e-12, abs=0.0)
    assert float(values["test_mse"]) == pytest.approx(test_mse, rel=1e-12, abs=0.0)


GAUSSIAN_BANK = "kernel=gaussian(mu=1),gaussian(mu=2)"
MIXED_BANK = "kernel=gaussian(mu=1),poly(mu=0.2)"
TRUNCATED = ["truncate=true", "t0=30"]


@pytest.mark.parametrize(
    "extra, final_cum_mse, test_mse",
    [
        (["lambda=0.1", "eta0=0.5"], 0.942652721492647, 0.7457017304057447),
        (["lambda=0.1", "eta0=0.5", *TRUNCATED], 1.0806492916485941, 0.9413370838488174),
        (
            ["lambda=0.1", "eta0=0.5", "algorithm=monorma", GAUSSIAN_BANK, *TRUNCATED],
            0.7771434744096227,
            0.6541326607735009,
        ),
        (
            ["lambda=0.01", "eta0=0.02", "algorithm=monorma", MIXED_BANK, *TRUNCATED],
            0.45259300807164154,
            0.3821432269592556,
        ),
    ],
    ids=["onorma", "onorma-truncated", "monorma-gaussians-truncated", "monorma-mixed-truncated"],
)
def test_gaussian_and_mixed_train_numbers_pinned(capsys, extra, final_cum_mse, test_mse):
    # the Gaussian and mixed banks' step code; these pin its results
    argv = ["train", "--config", BOUND_CONFIG]
    for setting in extra:
        argv += ["--set", setting]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    values = dict(line.split(" = ", 1) for line in out.strip().split("\n"))
    assert float(values["final_cum_mse"]) == pytest.approx(final_cum_mse, rel=1e-12, abs=0.0)
    assert float(values["test_mse"]) == pytest.approx(test_mse, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "contents, message",
    [
        ("a,b\n1,2\n", "structure file {path}: could not convert"),
        ("1,0\n0\n", "structure file {path}: the number of columns changed"),
        ("inf,0\n0,1\n", "structure matrix must be finite"),
        ("nan,0\n0,1\n", "structure matrix must be finite"),
        ("1,0,0\n0,1,0\n0,0,1\n", "structure matrix: dimensions differ"),
    ],
    ids=["text", "ragged", "inf", "nan", "wrong-shape"],
)
def test_bad_structure_file_exits_2(tmp_path, capsys, contents, message):
    path = tmp_path / "J.csv"
    path.write_text(contents)
    code, _, err = run_cli(
        ["train", "--set", "n_instances=20", "--set", "n_outputs=2", "--set", f"structure={path}"],
        capsys,
    )
    assert code == 2
    assert message.format(path=path) in err


def test_overflowing_batch_ridge_exits_3(capsys):
    code, _, err = run_cli(
        ["train", "--set", "algorithm=batch", "--set", "n_instances=20", "--set", "lambda=1e308"],
        capsys,
    )
    assert code == 3
    assert "lambda * t overflows" in err
