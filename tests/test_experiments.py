import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from ovklearn.checkpoint import load_model
from ovklearn.data import SynthSpec, gen_synthetic, save_csv
from ovklearn.exceptions import ConfigError
from ovklearn.experiments import (
    SUMMARY_KEYS,
    ExperimentConfig,
    KernelSpec,
    MetricsRecord,
    bound_check,
    metrics_text,
    parse_config_text,
    read_config,
    run_experiment,
    summary_text,
    sweep,
    sweep_table_text,
)


def small_cfg(**kw):
    base = dict(
        algorithm="onorma",
        kernels=(KernelSpec("gaussian", 1.0),),
        lam=3.0,
        eta0=0.3,
        n_instances=60,
        n_outputs=2,
        seed=0,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_kernel_spec_parse_and_text():
    spec = KernelSpec.parse("gaussian(mu=1)")
    assert spec == KernelSpec("gaussian", 1.0)
    assert KernelSpec.parse("  poly( mu = 0.25 )  ") == KernelSpec("poly", 0.25)
    assert spec.text() == "gaussian(mu=1)"
    assert KernelSpec("poly", 0.25).text() == "poly(mu=0.25)"
    built = spec.build(3)
    assert built.dim == 3 and built.mu == 1.0
    custom = spec.build(2, structure=np.eye(2))
    assert np.array_equal(custom.structure, np.eye(2))


@pytest.mark.parametrize(
    "mu", [1.0, 100.0, 0.25, 0.123456789, 1.0 / 3.0, 1e-7, 2.5e20, 1e16, 0.1 + 0.2]
)
def test_kernel_spec_text_round_trips(mu):
    for family in ("gaussian", "poly"):
        spec = KernelSpec(family, mu)
        assert KernelSpec.parse(spec.text()) == spec


def test_kernel_spec_errors():
    with pytest.raises(ConfigError, match="bad kernel spec"):
        KernelSpec.parse("linear(mu=1)")
    with pytest.raises(ConfigError, match="bad kernel spec"):
        KernelSpec.parse("gaussian(sigma=1)")
    with pytest.raises(ConfigError, match="bad mu"):
        KernelSpec.parse("gaussian(mu=abc)")
    with pytest.raises(ConfigError, match="unknown kernel family"):
        KernelSpec("rbf", 1.0)


def test_parse_config_text():
    raw = parse_config_text(
        "# leading comment\n"
        "\n"
        "algorithm = onorma\n"
        "lambda = 0.5  # trailing note\n"
        "kernel = gaussian(mu=1),poly(mu=0.2)\n"
    )
    assert raw == {
        "algorithm": "onorma",
        "lambda": "0.5",
        "kernel": "gaussian(mu=1),poly(mu=0.2)",
    }


def test_parse_config_text_errors():
    with pytest.raises(ConfigError, match="config line 2: duplicate key 'seed'"):
        parse_config_text("seed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match="config line 1: expected key = value"):
        parse_config_text("just words\n")
    with pytest.raises(ConfigError, match="empty key"):
        parse_config_text("= 3\n")


def test_read_config_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("lambda = 0.5\nseed = 3\n")
    cfg = read_config(path, ["lambda=2.0", "eta0=0.25"])
    assert cfg.lam == 2.0  # override beats the file
    assert cfg.seed == 3
    assert cfg.eta0 == 0.25
    with pytest.raises(ConfigError, match="expected key=value"):
        read_config(path, ["noequals"])


def test_read_config_rejects_unknown_and_unparsable():
    with pytest.raises(ConfigError, match="unknown config key 'bogus'"):
        read_config(None, ["bogus=1"])
    with pytest.raises(ConfigError, match=r"config field 'lambda': cannot parse 'abc'"):
        read_config(None, ["lambda=abc"])
    with pytest.raises(ConfigError, match="expected true/false"):
        read_config(None, ["truncate=maybe"])


def readme_rows(section):
    """(keys in the first cell, stripped other cells) per row of a README table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split(f"## {section}\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:-1] for line in table.splitlines() if line.startswith("|")]
    return [(re.findall(r"`([^`]+)`", row[0]), [c.strip() for c in row[1:]]) for row in rows[2:]]


def readme_config_keys():
    """Every key in the first cells of README's "Config keys" table."""
    return [key for keys, _ in readme_rows("Config keys") for key in keys]


def read_config_accepts(key):
    try:
        read_config(None, [f"{key}=?"])
    except ConfigError as exc:
        return not str(exc).startswith("unknown config key")
    return True


def test_readme_lists_exactly_the_accepted_config_keys():
    documented = readme_config_keys()
    fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
    accepted = [key for key in sorted(set(documented + fields)) if read_config_accepts(key)]
    assert len(accepted) == len(fields)
    assert sorted(documented) == accepted


def test_column_spec_parsing():
    cfg = read_config(
        None,
        [
            "data=csv",
            "csv_path=whatever.csv",
            "input_cols=0-2,5",
            "output_cols=6",
        ],
    )
    assert cfg.input_cols == (0, 1, 2, 5)
    assert cfg.output_cols == (6,)
    for bad in ["input_cols=3-1", "input_cols=x", "input_cols="]:
        with pytest.raises(ConfigError, match="input_cols"):
            read_config(None, [bad, "data=csv", "csv_path=w", "output_cols=6"])


def test_column_range_errors_name_the_problem():
    with pytest.raises(ConfigError) as info:
        read_config(None, ["input_cols=5-2"])
    assert str(info.value) == "config field 'input_cols': empty range '5-2'"
    with pytest.raises(ConfigError) as info:
        read_config(None, ["output_cols=0,x"])
    assert str(info.value) == "config field 'output_cols': bad column index 'x'"


def test_config_validation():
    with pytest.raises(ConfigError, match="algorithm"):
        ExperimentConfig(algorithm="sgd")
    with pytest.raises(ConfigError, match="at least one kernel"):
        ExperimentConfig(kernels=())
    two = (KernelSpec("gaussian", 1.0), KernelSpec("poly", 0.3))
    with pytest.raises(ConfigError, match="exactly one"):
        ExperimentConfig(algorithm="onorma", kernels=two)
    with pytest.raises(ConfigError, match="exactly one"):
        ExperimentConfig(algorithm="batch", kernels=two)
    ExperimentConfig(algorithm="monorma", kernels=two)  # allowed
    with pytest.raises(ConfigError, match="required when data = csv"):
        ExperimentConfig(data="csv")
    with pytest.raises(ConfigError, match="unknown source"):
        ExperimentConfig(data="parquet")


def test_run_onorma_summary_and_bound():
    records, summary = run_experiment(small_cfg())
    assert summary["n_train"] == 30 and summary["n_test"] == 30
    assert summary["kernel"] == "gaussian(mu=1)"
    assert len(records) == 30
    assert summary["final_cum_mse"] == records[-1].cum_mse
    assert summary["support_size"] <= 30
    assert summary["train_time_s"] > 0
    assert summary["test_mse"] >= 0
    # gaussian section norm is constant, so the empirical sup is exact
    assert summary["hyp_kappa_sq"] == pytest.approx(1.1, abs=1e-12)
    assert summary["hyp_passes"] is True
    assert summary["bound_holds"] is True
    assert summary["bound_slack"] >= -1e-9
    assert summary["bound_rhs"] >= summary["bound_lhs"]


@pytest.mark.parametrize(
    "extra",
    [[], ["kernel=poly(mu=0.2)", "lambda=300", "eta0=0.003"]],
    ids=["gaussian", "poly"],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hypotheses_keep_the_effective_step_below_one_half(extra, seed):
    # lambda > 2 kappa^2 and eta0 lambda < 1 give eta_t kappa^2 < eta0 lambda / 2 < 1/2,
    # so a run whose hypotheses pass never warns about its effective step
    config = Path(__file__).resolve().parents[1] / "configs" / "bound-check.cfg"
    cfg = read_config(config, extra + [f"seed={seed}"])
    _, summary = run_experiment(cfg)
    assert summary["hyp_passes"] is True
    assert summary["max_eff_step"] <= cfg.eta0 * summary["hyp_kappa_sq"] < cfg.eta0 * cfg.lam / 2
    assert summary["max_eff_step"] < 0.5


def test_monorma_max_eff_step_reads_the_weights_held_before_each_step():
    from ovklearn.data import split_and_normalize
    from ovklearn.experiments import load_dataset

    kernels = (KernelSpec("gaussian", 1.0), KernelSpec("poly", 0.2))
    cfg = small_cfg(algorithm="monorma", kernels=kernels, lam=0.5, eta0=0.1)
    records, summary = run_experiment(cfg)
    train = split_and_normalize(load_dataset(cfg), cfg.train_fraction, cfg.seed, cfg.normalize)[0]
    built = cfg.build_kernels(train.output_dim)
    deltas = [np.full(2, 2 ** -0.5)] + [record.deltas for record in records[:-1]]
    steps = [
        cfg.eta0 / np.sqrt(t) * sum(w * k.diag_operator_norm(x) for w, k in zip(ws, built))
        for t, (x, ws) in enumerate(zip(train.xs, deltas), start=1)
    ]
    assert abs(summary["max_eff_step"] - max(steps)) <= 1e-12 * max(steps)
    # the weights move, so the bound is not the uniform start's
    uniform = max(
        cfg.eta0 / np.sqrt(t) * sum(2 ** -0.5 * k.diag_operator_norm(x) for k in built)
        for t, x in enumerate(train.xs, start=1)
    )
    assert summary["max_eff_step"] != uniform


def test_cum_mse_recurrence():
    records, _ = run_experiment(small_cfg())
    for prev, rec in zip(records, records[1:]):
        t = rec.step
        expected = ((t - 1) * prev.cum_mse + 2.0 * rec.loss) / t
        assert rec.cum_mse == pytest.approx(expected, rel=1e-10)


def test_run_monorma_deltas():
    cfg = small_cfg(
        algorithm="monorma",
        kernels=(KernelSpec("gaussian", 1.0), KernelSpec("gaussian", 3.0)),
        lam=0.3,
        eta0=0.5,
        r=2.0,
    )
    records, summary = run_experiment(cfg)
    assert summary["r"] == 2.0
    assert "delta_1" in summary and "delta_2" in summary
    assert summary["delta_1"] ** 2 + summary["delta_2"] ** 2 == pytest.approx(1.0, abs=1e-10)
    text = metrics_text(records)
    header, *rows = text.strip().split("\n")
    assert header.endswith(",delta_1,delta_2")
    last = rows[-1].split(",")
    d1, d2 = float(last[5]), float(last[6])
    assert d1 == summary["delta_1"] and d2 == summary["delta_2"]


def test_run_batch_summary(tmp_path):
    cfg = small_cfg(algorithm="batch", lam=1.0, metrics=str(tmp_path / "m.csv"))
    records, summary = run_experiment(cfg)
    assert records == []
    assert summary["support_size"] == summary["n_train"]
    assert summary["fit_time_s"] > 0
    assert (tmp_path / "m.csv").read_text() == "step,loss,cum_mse,r_inst,step_us\n"


def test_metrics_text_format():
    rec = MetricsRecord(step=1, loss=0.5, cum_mse=1.0, r_inst=0.75, step_us=12.5)
    assert metrics_text([rec]) == (
        "step,loss,cum_mse,r_inst,step_us\n1,0.5,1.0,0.75,12.5\n"
    )
    with_deltas = dataclasses.replace(rec, deltas=np.array([0.6, 0.8]))
    assert metrics_text([with_deltas]) == (
        "step,loss,cum_mse,r_inst,step_us,delta_1,delta_2\n"
        "1,0.5,1.0,0.75,12.5,0.6,0.8\n"
    )


def test_summary_text_format():
    text = summary_text({"flag": True, "x": 0.5, "name": "run", "n": 3})
    assert text == "flag = true\nx = 0.5\nname = run\nn = 3\n"


def test_metrics_deterministic_modulo_timing(tmp_path):
    cfg = small_cfg()
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_experiment(dataclasses.replace(cfg, metrics=str(a)))
    run_experiment(dataclasses.replace(cfg, metrics=str(b)))
    rows_a = [line.split(",") for line in a.read_text().splitlines()]
    rows_b = [line.split(",") for line in b.read_text().splitlines()]
    assert len(rows_a) == len(rows_b)
    for ra, rb in zip(rows_a, rows_b):
        del ra[4], rb[4]  # wall-clock column is the only permitted difference
        assert ra == rb


def test_file_outputs(tmp_path):
    cfg = small_cfg(
        metrics=str(tmp_path / "metrics.csv"),
        summary=str(tmp_path / "summary.txt"),
        checkpoint=str(tmp_path / "model.npz"),
    )
    _, summary = run_experiment(cfg)
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines[0] == "step,loss,cum_mse,r_inst,step_us"
    assert len(lines) == 31
    parsed = parse_config_text((tmp_path / "summary.txt").read_text())
    assert parsed["algorithm"] == "onorma"
    assert float(parsed["test_mse"]) == summary["test_mse"]
    model = load_model(tmp_path / "model.npz")
    assert model.t == 30


def test_csv_data_source(tmp_path):
    ds = gen_synthetic(SynthSpec(40, 2, seed=11))
    path = tmp_path / "data.csv"
    save_csv(path, ds)
    cfg = read_config(
        None,
        [
            "data=csv",
            f"csv_path={path}",
            "input_cols=0-19",
            "output_cols=20-21",
            "lambda=3",
            "eta0=0.3",
            "seed=2",
        ],
    )
    _, summary = run_experiment(cfg)
    assert summary["n_train"] == 20 and summary["n_test"] == 20
    assert summary["input_dim"] == 20 and summary["output_dim"] == 2
    assert np.isfinite(summary["test_mse"])


def test_classification_summary(tmp_path):
    rng = np.random.default_rng(21)
    path = tmp_path / "labels.csv"
    rows = ["f1,f2,label"]
    for i in range(30):
        x = rng.uniform(size=2)
        rows.append(f"{x[0]},{x[1]},{i % 3}")
    path.write_text("\n".join(rows) + "\n")
    cfg = read_config(
        None,
        [
            "data=csv",
            f"csv_path={path}",
            "input_cols=0-1",
            "output_cols=2",
            "one_hot_classes=3",
            "lambda=0.5",
            "eta0=0.5",
        ],
    )
    _, summary = run_experiment(cfg)
    assert summary["task"] == "classification"
    assert 0.0 <= summary["test_misclass"] <= 1.0


def test_structure_file_feeds_kernel(tmp_path):
    path = tmp_path / "J.csv"
    path.write_text("1.0,0.2\n0.2,1.0\n")
    cfg = small_cfg(structure=str(path))
    _, summary = run_experiment(cfg)
    assert summary["hyp_kappa_sq"] == pytest.approx(1.2, abs=1e-12)


def test_sweep_sorted_and_consistent(tmp_path):
    cfg = small_cfg(metrics=str(tmp_path / "unused.csv"))
    rows = sweep(cfg, "lambda", [3.0, 2.5])
    assert [v for v, _ in rows] == [2.5, 3.0]
    assert not (tmp_path / "unused.csv").exists()  # sweep points write no files
    _, direct = run_experiment(dataclasses.replace(cfg, lam=3.0, metrics=None))
    assert rows[1][1]["test_mse"] == direct["test_mse"]
    assert rows[1][1]["support_size"] == direct["support_size"]
    table = sweep_table_text(rows)
    lines = table.strip().split("\n")
    assert lines[0] == "value,test_mse,cum_mse,time_s"
    assert len(lines) == 3
    assert lines[1].startswith("2.5,")


def test_sweep_over_mu_sets_every_kernel():
    cfg = small_cfg(
        algorithm="monorma",
        kernels=(KernelSpec("gaussian", 1.0), KernelSpec("gaussian", 3.0)),
        lam=0.3,
        eta0=0.5,
    )
    rows = sweep(cfg, "mu", [2.0, 0.5])
    assert [v for v, _ in rows] == [0.5, 2.0]
    for value, summary in rows:
        assert summary["kernel"].split(",") == [KernelSpec("gaussian", value).text()] * 2
    point = dataclasses.replace(cfg, kernels=(KernelSpec("gaussian", 2.0),) * 2)
    assert rows[1][1]["test_mse"] == run_experiment(point)[1]["test_mse"]


def test_sweep_errors():
    cfg = small_cfg()
    with pytest.raises(ConfigError, match="sweep parameter"):
        sweep(cfg, "t0", [1.0])
    with pytest.raises(ConfigError, match="at least one value"):
        sweep(cfg, "lambda", [])
    with pytest.raises(ConfigError, match="sweep values must be numbers"):
        sweep(cfg, "lambda", ["0.5", "abc"])


def test_sweep_table_batch_row():
    rows = [(0.5, {"test_mse": 1.0, "fit_time_s": 0.25})]
    assert sweep_table_text(rows) == "value,test_mse,cum_mse,time_s\n0.5,1.0,,0.25\n"


def test_bound_check_passes_on_stable_config():
    hyp, consts, report = bound_check(small_cfg(n_instances=80))
    assert hyp.passes
    assert consts is not None
    assert report is not None and report.holds
    assert report.slack >= -1e-9


def test_bound_check_hypothesis_failure():
    hyp, consts, report = bound_check(small_cfg(lam=0.01))
    assert not hyp.passes
    assert consts is None and report is None


def test_bound_check_rejects_multi_kernel():
    cfg = small_cfg(
        algorithm="monorma",
        kernels=(KernelSpec("gaussian", 1.0), KernelSpec("gaussian", 2.0)),
    )
    with pytest.raises(ConfigError, match="onorma"):
        bound_check(cfg)


def test_bound_check_eps_loss_diagnostics_only():
    hyp, consts, report = bound_check(small_cfg(loss="eps(0.25)"))
    assert hyp.passes
    assert hyp.branch != "least_squares"
    assert consts is None and report is None


def test_readme_lists_the_summary_keys_in_order():
    documented = [key for keys, _ in readme_rows("Summary keys") for key in keys]
    assert documented == list(SUMMARY_KEYS)


# each condition of README's "Runs" column, as a test of (config, hypotheses pass)
RUN_CONDITIONS = {
    "all": lambda cfg, passes: True,
    "`onorma`": lambda cfg, passes: cfg.algorithm == "onorma",
    "`monorma`": lambda cfg, passes: cfg.algorithm == "monorma",
    "`batch`": lambda cfg, passes: cfg.algorithm == "batch",
    "`truncate = true`": lambda cfg, passes: cfg.truncate,
    "classification": lambda cfg, passes: cfg.one_hot_classes is not None,
    "squared loss": lambda cfg, passes: cfg.loss == "squared",
    "hypotheses pass": lambda cfg, passes: passes,
}


def readme_summary_keys_for(cfg, passes):
    """SUMMARY_KEYS a run should carry by README's "Runs" column, delta_<j> expanded."""
    keys = []
    for row_keys, (runs, _) in readme_rows("Summary keys"):
        # "+" joins conditions that must all hold; ", " joins alternatives
        terms = [term.split(", ") for term in runs.split(" + ")]
        if all(any(RUN_CONDITIONS[alt](cfg, passes) for alt in term) for term in terms):
            keys += row_keys
    deltas = [f"delta_{j}" for j in range(1, len(cfg.kernels) + 1)]
    return [k for key in keys for k in (deltas if key == "delta_<j>" else [key])]


@pytest.fixture(scope="module")
def matrix_data(tmp_path_factory):
    """A regression CSV and a one-hot classification CSV, 40 rows each."""
    root = tmp_path_factory.mktemp("matrix")
    save_csv(root / "reg.csv", gen_synthetic(SynthSpec(40, 2, seed=11)))
    rng = np.random.default_rng(21)
    rows = ["f1,f2,label"] + [f"{a},{b},{i % 3}" for i, (a, b) in enumerate(rng.uniform(size=(40, 2)))]
    (root / "cls.csv").write_text("\n".join(rows) + "\n")
    return {
        "reg": [f"csv_path={root / 'reg.csv'}", "input_cols=0-19", "output_cols=20-21"],
        "cls": [f"csv_path={root / 'cls.csv'}", "input_cols=0-1", "output_cols=2", "one_hot_classes=3"],
    }


MATRIX = [
    (algorithm, truncate, loss, data, "3")
    for algorithm in ("onorma", "monorma", "batch")
    for truncate in ("false", "true")
    for loss in ("squared", "eps(0.25)")
    for data in ("reg", "cls")
] + [("onorma", "false", "squared", "reg", "0.01")]


@pytest.mark.parametrize(
    "algorithm, truncate, loss, data, lam", MATRIX, ids=["-".join(case) for case in MATRIX]
)
def test_summary_carries_the_readme_keys_in_order(
    tmp_path, matrix_data, algorithm, truncate, loss, data, lam
):
    kernel = "gaussian(mu=1),gaussian(mu=3)" if algorithm == "monorma" else "gaussian(mu=1)"
    settings = [f"algorithm={algorithm}", f"kernel={kernel}", f"truncate={truncate}", "t0=5"]
    settings += [f"loss={loss}", f"lambda={lam}", "eta0=0.3", "data=csv"] + matrix_data[data]
    cfg = read_config(None, settings + [f"summary={tmp_path / 'summary.txt'}"])
    # lambda = 3 clears 2 kappa^2 (2.2 and 2.4 on these datasets); lambda = 0.01 does not
    passes = lam == "3"
    _, summary = run_experiment(cfg)
    assert list(summary) == readme_summary_keys_for(cfg, passes)
    assert list(parse_config_text((tmp_path / "summary.txt").read_text())) == list(summary)
    if "hyp_passes" in summary:
        assert summary["hyp_passes"] is passes
