"""Experiment orchestration: configs, training runs, sweeps, metrics files.

A run trains one algorithm (online single-kernel, online multi-kernel,
or batch) on half of a dataset, freezes the model, and scores it on the
held-out half.  Online runs stream one metrics record per training
example; identical config and seed reproduce the metrics file byte for
byte except for the wall-clock column.

Configs are flat ``key = value`` text; every key has a default matching
the reference experimental settings (lambda = 0.01, eta0 = 1, squared
loss, 50/50 split).  Kernel specs are strings like ``gaussian(mu=1)``
or ``poly(mu=0.2)``, comma-separated when the learner combines several.
"""

from __future__ import annotations

import dataclasses
import math
import re
import time
from dataclasses import dataclass

import numpy as np

from .batch import fit as batch_fit
from .batch import regularized_risk
from .bounds import check_cumulative_bound, check_hypotheses, compute_constants, key_value_text
from .data import Dataset, SynthSpec, gen_synthetic, load_csv, split_and_normalize
from .exceptions import ConfigError, DataError, check_positive, check_real
from .kernels import FAMILIES, NonSeparablePoly, SeparableGaussian
from .losses import SquaredLoss, loss_from_name
from .monorma import MONORMA
from .onorma import ONORMA, TruncationSchedule

__all__ = [
    "KernelSpec",
    "ExperimentConfig",
    "SWEEPABLE",
    "SUMMARY_KEYS",
    "MetricsRecord",
    "parse_config_text",
    "read_config",
    "run_experiment",
    "bound_check",
    "sweep",
    "write_metrics",
    "metrics_text",
    "summary_text",
    "sweep_table_text",
]

# the squared loss's curvature threshold for the effective step eta_t ||K(x, x)||
STABLE_STEP = 2.0

_KERNEL_RE = re.compile(rf"^({'|'.join(FAMILIES)})\(\s*mu\s*=\s*([^)]+?)\s*\)$")


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family and parameter, instantiated once output_dim is known."""

    family: str
    mu: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown kernel family {self.family!r}")

    @classmethod
    def parse(cls, text: str) -> "KernelSpec":
        m = _KERNEL_RE.match(text.strip())
        if not m:
            raise ConfigError(
                f"bad kernel spec {text!r}; expected family(mu=value) with "
                f"family in {{{', '.join(FAMILIES)}}}"
            )
        try:
            mu = float(m.group(2))
        except ValueError:
            raise ConfigError(f"bad mu in kernel spec {text!r}") from None
        return cls(m.group(1), mu)

    def build(self, dim: int, structure=None):
        if self.family == "gaussian":
            return SeparableGaussian(mu=self.mu, dim=dim, structure=structure)
        return NonSeparablePoly(mu=self.mu, dim=dim)

    def text(self) -> str:
        # repr is the shortest text that parses back to the same float
        return f"{self.family}(mu={repr(float(self.mu)).removesuffix('.0')})"


def _parse_bool(value: str, key: str) -> bool:
    low = value.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ConfigError(f"config field {key!r}: expected true/false, got {value!r}")


def _parse_cols(value: str, key: str) -> tuple[int, ...]:
    """Index ranges like ``0-19`` or ``0,3,7-9`` into a flat tuple."""
    cols: list[int] = []
    for part in value.split(","):
        part = part.strip()
        if not part:
            continue
        m = re.match(r"^(\d+)\s*-\s*(\d+)$", part)
        if m:
            lo, hi = int(m.group(1)), int(m.group(2))
            if hi < lo:
                raise ConfigError(f"config field {key!r}: empty range {part!r}")
            cols.extend(range(lo, hi + 1))
            continue
        try:
            cols.append(int(part))
        except ValueError:
            raise ConfigError(
                f"config field {key!r}: bad column index {part!r}"
            ) from None
    if not cols:
        raise ConfigError(f"config field {key!r}: no columns given")
    return tuple(cols)


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's worth of settings; see README for every key's meaning."""

    algorithm: str = "onorma"
    kernels: tuple[KernelSpec, ...] = (KernelSpec("gaussian", 1.0),)
    loss: str = "squared"
    lam: float = 0.01
    eta0: float = 1.0
    r: float = 2.0
    truncate: bool = False
    t0: int = 100
    epsilon: float = 0.25
    seed: int = 0
    train_fraction: float = 0.5
    normalize: bool = False
    data: str = "synthetic"
    n_instances: int = 500
    n_outputs: int = 4
    csv_path: str | None = None
    input_cols: tuple[int, ...] | None = None
    output_cols: tuple[int, ...] | None = None
    header: bool = True
    one_hot_classes: int | None = None
    structure: str | None = None
    metrics: str | None = None
    summary: str | None = None
    checkpoint: str | None = None

    def __post_init__(self):
        if self.algorithm not in ("onorma", "monorma", "batch"):
            raise ConfigError(
                f"config field 'algorithm': unknown value {self.algorithm!r}"
            )
        if not self.kernels:
            raise ConfigError("config field 'kernel': at least one kernel required")
        if self.algorithm in ("onorma", "batch") and len(self.kernels) != 1:
            raise ConfigError(
                f"config field 'kernel': {self.algorithm} takes exactly one "
                f"kernel, got {len(self.kernels)}"
            )
        if self.data not in ("synthetic", "csv"):
            raise ConfigError(f"config field 'data': unknown source {self.data!r}")
        if self.data == "csv":
            for key in ("csv_path", "input_cols", "output_cols"):
                if getattr(self, key) is None:
                    raise ConfigError(f"config field {key!r}: required when data = csv")

    def build_kernels(self, dim: int):
        structure = None
        if self.structure is not None:
            try:
                structure = np.loadtxt(self.structure, delimiter=",", ndmin=2)
            except ValueError as exc:
                raise DataError(f"structure file {self.structure}: {exc}") from None
        return [spec.build(dim, structure=structure) for spec in self.kernels]

    def build_loss(self):
        return loss_from_name(self.loss)

    def truncation_schedule(self) -> TruncationSchedule | None:
        if not self.truncate:
            return None
        return TruncationSchedule(t0=self.t0, epsilon=self.epsilon)

    def build_learner(self, kernels, loss):
        """The online learner the config names, over already built kernels."""
        common = dict(
            loss=loss, lam=self.lam, eta0=self.eta0, truncation=self.truncation_schedule()
        )
        if self.algorithm == "onorma":
            return ONORMA(kernels[0], **common)
        return MONORMA(kernels, r=self.r, **common)


# the two ExperimentConfig fields whose config key is not the field name
_KEYS = {"kernels": "kernel", "lam": "lambda"}

# parse(value, key) per field annotation, which ``from __future__ import
# annotations`` keeps as text; a field typed ``X | None`` parses as X
_PARSERS = {
    "str": lambda value, key: value,
    "int": lambda value, key: int(value),
    "float": lambda value, key: float(value),
    "bool": _parse_bool,
    "tuple[int, ...]": _parse_cols,
    "tuple[KernelSpec, ...]": lambda value, key: tuple(map(KernelSpec.parse, value.split(","))),
}

# config key -> (field name, parser) in field order; built at import, so a
# field whose annotation has no parser fails every test, not a user's run
_FIELDS = {
    _KEYS.get(f.name, f.name): (f.name, _PARSERS[f.type.removesuffix(" | None")])
    for f in dataclasses.fields(ExperimentConfig)
}

# the parameters `sweep` varies: every kernel's mu, or the field of a config key
SWEEPABLE = ("mu", "lambda", "eta0")

# every key a run summary can carry, in the order it is written; README's
# "Summary keys" table says which runs carry each.  delta_<j> stands for
# MONORMA's kernel weights delta_1..delta_m.
SUMMARY_KEYS = (
    "algorithm", "dataset", "task", "n_train", "n_test", "input_dim", "output_dim",
    "kernel", "loss", "lambda", "eta0", "seed", "train_fraction", "normalize",
    "truncate", "t0", "epsilon", "r", "test_protocol",
    "fit_time_s", "train_time_s", "final_cum_mse", "support_size", "max_eff_step", "delta_<j>",
    "test_mse", "test_misclass",
    "hyp_kappa_sq", "hyp_c_y", "hyp_lambda_margin", "hyp_passes",
    "bound_u", "bound_alpha", "bound_beta", "bound_lhs", "bound_batch_risk",
    "bound_rhs", "bound_slack", "bound_holds",
)


def parse_config_text(text: str) -> dict[str, str]:
    """Flat ``key = value`` lines; '#' starts a comment; blanks ignored."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {lineno}: expected key = value, got {line!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"config line {lineno}: empty key")
        if key in raw:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        raw[key] = value.strip()
    return raw


def _build_config(raw: dict[str, str]) -> ExperimentConfig:
    kwargs = {}
    for key, (name, parse) in _FIELDS.items():
        if key in raw:
            value = raw.pop(key)
            try:
                kwargs[name] = parse(value, key)
            except ConfigError:
                raise
            except ValueError:
                raise ConfigError(
                    f"config field {key!r}: cannot parse {value!r}"
                ) from None
    if raw:
        raise ConfigError(f"unknown config key {sorted(raw)[0]!r}")
    return ExperimentConfig(**kwargs)


def read_config(path=None, overrides=None) -> ExperimentConfig:
    """Config file plus ``key=value`` override strings (later wins)."""
    raw: dict[str, str] = {}
    if path is not None:
        with open(path) as fh:
            raw = parse_config_text(fh.read())
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, value = item.split("=", 1)
        raw[key.strip()] = value.strip()
    return _build_config(raw)


@dataclass(frozen=True)
class MetricsRecord:
    """One training step's metrics; cum_mse averages pre-update errors."""

    step: int
    loss: float
    cum_mse: float
    r_inst: float
    step_us: float
    deltas: np.ndarray | None = None


def _f(value) -> str:
    # repr of a builtin float round-trips and is identical across runs
    return repr(float(value))


def metrics_text(records) -> str:
    """Metrics CSV as a string; header even when there are no records."""
    m_deltas = len(records[0].deltas) if records and records[0].deltas is not None else 0
    header = "step,loss,cum_mse,r_inst,step_us" + "".join(
        f",delta_{j + 1}" for j in range(m_deltas)
    )
    lines = [header]
    for rec in records:
        row = [
            str(rec.step),
            _f(rec.loss),
            _f(rec.cum_mse),
            _f(rec.r_inst),
            _f(rec.step_us),
        ]
        if rec.deltas is not None:
            row.extend(_f(v) for v in rec.deltas)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def write_metrics(path, records) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(metrics_text(records))


def summary_text(summary: dict) -> str:
    """Flat ``key = value`` block mirroring the config format."""
    return key_value_text(summary) + "\n"


def load_dataset(cfg: ExperimentConfig) -> Dataset:
    if cfg.data == "synthetic":
        return gen_synthetic(SynthSpec(cfg.n_instances, cfg.n_outputs, cfg.seed))
    return load_csv(
        cfg.csv_path,
        cfg.input_cols,
        cfg.output_cols,
        header=cfg.header,
        one_hot_classes=cfg.one_hot_classes,
    )


def _test_scores(predict, test: Dataset) -> dict:
    preds = predict(test.xs)
    errs = preds - test.ys
    out = {"test_mse": float(np.mean(np.einsum("ij,ij->i", errs, errs)))}
    if test.task == "classification":
        pred_labels = np.argmax(preds, axis=1)
        true_labels = np.argmax(test.ys, axis=1)
        out["test_misclass"] = float(np.mean(pred_labels != true_labels))
    return out


def _max_eff_step(model, kernels, xs, weights) -> float:
    """``max_t eta_t sum_j delta_j ||K_j(x_t, x_t)||_op`` over the inputs ``xs`` in stream order.

    ``weights[t - 1]`` are the kernel weights held before step t, ``[1.0]``
    for one kernel.  Over several kernels the sum is the triangle-inequality
    bound of ``||sum_j delta_j K_j(x_t, x_t)||_op``.  With squared loss a
    step above ``STABLE_STEP`` overshoots: the run is then expected to
    diverge.
    """
    steps = (
        model.learning_rate(t) * sum(w * k.diag_operator_norm(x) for w, k in zip(ws, kernels))
        for t, (x, ws) in enumerate(zip(xs, weights), start=1)
    )
    return float(max(steps, default=0.0))


def run_experiment(cfg: ExperimentConfig):
    """Train per the config; returns (metrics records, summary dict).

    Writes the metrics CSV, summary text, and checkpoint when the config
    names paths for them.  The model is frozen after the training half;
    test scores never update it.
    """
    dataset = load_dataset(cfg)
    train, test, _ = split_and_normalize(
        dataset, cfg.train_fraction, cfg.seed, cfg.normalize
    )
    kernels = cfg.build_kernels(train.output_dim)
    loss = cfg.build_loss()

    # each section writes its values in any order; SUMMARY_KEYS orders them
    values: dict = {key: getattr(cfg, _FIELDS[key][0]) for key in SUMMARY_KEYS if key in _FIELDS}
    values["kernel"] = ",".join(s.text() for s in cfg.kernels)
    if not cfg.truncate:
        del values["t0"], values["epsilon"]
    if cfg.algorithm != "monorma":
        del values["r"]
    values.update(
        dataset=dataset.name, task=dataset.task, n_train=len(train), n_test=len(test),
        input_dim=train.input_dim, output_dim=train.output_dim, test_protocol="frozen-after-training"
    )

    records: list[MetricsRecord] = []
    step_results = []
    if cfg.algorithm == "batch":
        start = time.perf_counter()
        model = batch_fit(kernels[0], train.xs, train.ys, cfg.lam)
        values["fit_time_s"] = time.perf_counter() - start
        values["support_size"] = len(train)
    else:
        model = cfg.build_learner(kernels, loss)
        # the weights held before each step: the start, then each step's record
        weights = [model.delta] if cfg.algorithm == "monorma" else [[1.0]]
        sq_sum = 0.0
        start = time.perf_counter()
        for i, (x, y) in enumerate(zip(train.xs, train.ys), start=1):
            tick = time.perf_counter_ns()
            res = model.step(x, y)
            step_us = (time.perf_counter_ns() - tick) / 1000.0
            err = res.prediction - y
            sq_sum += float(err @ err)
            records.append(
                MetricsRecord(
                    step=i,
                    loss=res.loss,
                    cum_mse=sq_sum / i,
                    r_inst=res.instantaneous_risk,
                    step_us=step_us,
                    deltas=model.delta if cfg.algorithm == "monorma" else None,
                )
            )
            step_results.append(res)
        values["train_time_s"] = time.perf_counter() - start
        values["final_cum_mse"] = records[-1].cum_mse if records else 0.0
        values["support_size"] = model.support_size
        if cfg.algorithm == "monorma":
            weights += [record.deltas for record in records[:-1]]
            values.update((f"delta_{j}", float(dj)) for j, dj in enumerate(model.delta, start=1))
        else:
            weights *= len(records)
        values["max_eff_step"] = _max_eff_step(model, kernels, train.xs, weights)

    values.update(_test_scores(model.predict, test))

    if cfg.algorithm == "onorma" and isinstance(loss, SquaredLoss):
        hyp, consts, report = _guarantee(cfg, kernels[0], train, loss, lambda: step_results)
        # hyp_<field> and bound_<field> read the report or constants field named
        for key in SUMMARY_KEYS:
            prefix, _, field = key.partition("_")
            if prefix == "hyp":
                values[key] = getattr(hyp, field)
            elif prefix == "bound" and report is not None:
                values[key] = getattr(report if hasattr(report, field) else consts, field)

    # sorted is stable, so delta_1..delta_m keep their order; an undeclared key raises
    rank = {key: SUMMARY_KEYS.index(re.sub(r"^delta_\d+$", "delta_<j>", key)) for key in values}
    summary = {key: values[key] for key in sorted(values, key=rank.get)}

    if cfg.metrics is not None:
        write_metrics(cfg.metrics, records)
    if cfg.summary is not None:
        with open(cfg.summary, "w") as fh:
            fh.write(summary_text(summary))
    if cfg.checkpoint is not None:
        from .checkpoint import save_model

        save_model(cfg.checkpoint, model)
    return records, summary


def bound_check(cfg: ExperimentConfig):
    """Hypothesis diagnostics plus, when they pass, the run-vs-bound report.

    Returns (hypothesis report, constants or None, bound report or None).
    Only the single-kernel online learner with squared loss carries a
    proven guarantee here; other configs get diagnostics only.
    """
    if cfg.algorithm != "onorma":
        raise ConfigError(
            "config field 'algorithm': bound checking needs onorma "
            f"(got {cfg.algorithm!r})"
        )
    # eta0 reaches compute_constants only when the hypotheses pass
    check_positive("eta0", cfg.eta0)
    loss = cfg.build_loss()
    dataset = load_dataset(cfg)
    train, _, _ = split_and_normalize(dataset, cfg.train_fraction, cfg.seed, cfg.normalize)
    kernels = cfg.build_kernels(train.output_dim)
    # the learner is built inside run_log, so eta0 * lambda >= 1 reaches
    # compute_constants (exit 3) before the constructor's own check (exit 2)
    return _guarantee(
        cfg, kernels[0], train, loss, lambda: cfg.build_learner(kernels, loss).fit(train.xs, train.ys)
    )


def _guarantee(cfg: ExperimentConfig, kernel, train: Dataset, loss, run_log):
    """Hypotheses, then constants, the online run and the batch reference.

    ``run_log()`` returns the online run's StepResults; it is called only
    once the constants exist.  Returns (hypothesis report, constants or
    None, bound report or None): the bound is checked only when the
    hypotheses pass on the least-squares branch, the one with a batch
    minimiser.
    """
    hyp = check_hypotheses(kernel, train.xs, train.ys, cfg.lam, loss)
    if not hyp.passes or hyp.branch != "least_squares":
        return hyp, None, None
    consts = compute_constants(
        math.sqrt(hyp.kappa_sq),
        c_y=hyp.c_y,
        eta0=cfg.eta0,
        lam=cfg.lam,
        branch="least_squares",
        truncated=cfg.truncate,
    )
    step_results = run_log()
    reference = batch_fit(kernel, train.xs, train.ys, cfg.lam)
    report = check_cumulative_bound(
        step_results, regularized_risk(reference, train.xs, train.ys), consts, len(train)
    )
    return hyp, consts, report


def sweep(cfg: ExperimentConfig, parameter: str, values):
    """One run per value; returns [(value, summary)] sorted by value."""
    if parameter not in SWEEPABLE:
        raise ConfigError(
            f"sweep parameter must be one of {SWEEPABLE}, got {parameter!r}"
        )
    numbers = []
    for value in values:
        # the CLI's values are strings; any other value passes the numeric gate as it is
        if isinstance(value, str):
            try:
                value = float(value)
            except ValueError as exc:
                raise ConfigError(f"sweep values must be numbers: {exc}") from None
        numbers.append(check_real(f"sweep value of {parameter}", value))
    values = numbers
    if not values:
        raise ConfigError("sweep needs at least one value")
    base = dataclasses.replace(cfg, metrics=None, summary=None, checkpoint=None)
    rows = []
    for value in sorted(values):
        if parameter == "mu":
            kernels = tuple(dataclasses.replace(s, mu=value) for s in base.kernels)
            point = dataclasses.replace(base, kernels=kernels)
        else:
            point = dataclasses.replace(base, **{_FIELDS[parameter][0]: value})
        _, summary = run_experiment(point)
        rows.append((value, summary))
    return rows


def sweep_table_text(rows) -> str:
    """Plot-ready CSV: one row per swept value."""
    lines = ["value,test_mse,cum_mse,time_s"]
    for value, summary in rows:
        time_s = summary.get("train_time_s", summary.get("fit_time_s", 0.0))
        cum = summary.get("final_cum_mse")
        lines.append(
            ",".join(
                [
                    _f(value),
                    _f(summary["test_mse"]),
                    "" if cum is None else _f(cum),
                    _f(time_s),
                ]
            )
        )
    return "\n".join(lines) + "\n"
