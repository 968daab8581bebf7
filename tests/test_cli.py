from pathlib import Path

import numpy as np
import pytest

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


def test_singular_batch_system_exits_3(tmp_path, capsys):
    # duplicated rows with a vanishing ridge make the solve unservable
    data = tmp_path / "dup.csv"
    rows = ["f1,f2,y1"]
    for _ in range(10):
        rows.append("0.5,0.5,1.0")
        rows.append("0.5,0.5,-1.0")
    data.write_text("\n".join(rows) + "\n")
    code, _, err = run_cli(
        [
            "train",
            "--set", "algorithm=batch",
            "--set", "data=csv",
            "--set", f"csv_path={data}",
            "--set", "input_cols=0-1",
            "--set", "output_cols=2",
            "--set", "lambda=1e-300",
        ],
        capsys,
    )
    assert code == 3
    assert err.startswith("numeric failure: ")


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


def test_check_bounds_hypothesis_failure(capsys):
    code, out, _ = run_cli(stable_args(["--set", "lambda=0.01"]), capsys)
    assert code == 3
    assert "result = hypotheses failed; no guarantee to check" in out


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
