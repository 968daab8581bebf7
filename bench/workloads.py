"""The benchmark's two workloads: set-up, one measured pass, output checks.

Every workload drives the library from outside, through its public API and
the ``check-bounds`` command of its CLI, as one closed loop: one caller
issues each call and waits for it to return before issuing the next.

Inputs.  Both use the synthetic regression task of ``ovklearn.data``
with one fixed task draw and one fixed train/test split (``TASK_SEED``).
The benchmark seed picks the order in which the training rows are
streamed.  Drawing the task or the split from the seed moves the held-out
MSE of one learner by up to a factor of three across seeds, which would
hide a change in what is learned; with both fixed the MSE guards move by
a few per cent.
``check-bounds`` is run the way a user runs it, with ``--set seed=<seed>``.

The two workloads share the library's code but not its costs.
``growing-batch`` lets the support grow to thousands of terms, so its
steps and predicts are dominated by ``kernels.expansion``, and it fits
the dense batch reference at t = 1000 (in ``batch_fit`` and inside
``check-bounds``), where ``kernels.gram`` and the Cholesky factor dominate
and set peak memory.  ``online-truncated`` keeps a few hundred terms, so
ONORMA's step is its fixed per-call cost and MONORMA's is the
``per_kernel_norm_sq`` recompute; its references run at the library's
small default size (a t = 250 batch fit, ``configs/bound-check.cfg`` as
written).  Every learner kind and both references run in both workloads,
so every end-to-end metric is defined on both.
"""

from __future__ import annotations

import contextlib
import io
import os
import time
from dataclasses import dataclass, field

import numpy as np

import ovklearn
import ovklearn.cli

TASK_SEED = 0
N_OUTPUTS = 4
BOUND_CONFIG = os.path.join("configs", "bound-check.cfg")

# correctness tolerances
PREDICT_RTOL = 1e-9
NORM_RTOL = 1e-8
SIMPLEX_TOL = 1e-12
RELOAD_TOL = 1e-12
RESIDUAL_TOL = 1e-8
# held-out rows checked against the per-term oracle
ORACLE_ROWS = 8
# largest s*d for which the Gram norm and residual checks form the matrix
GRAM_CHECK_MAX = 4000
# interleaved chunks per pass (see run_pass)
SLOTS = 16


def gaussian(mu):
    return ovklearn.SeparableGaussian(mu=mu, dim=N_OUTPUTS)


def poly(mu):
    return ovklearn.NonSeparablePoly(mu=mu, dim=N_OUTPUTS)


@dataclass(frozen=True)
class Learner:
    """One online model of a workload: its label, kind and constructor."""

    label: str
    kind: str  # "onorma" or "monorma"
    kernels: tuple
    lam: float
    eta0: float
    steps: int | None = None  # None: the whole training split
    truncated: bool = False

    def build(self):
        truncation = ovklearn.TruncationSchedule(t0=100, epsilon=0.25) if self.truncated else None
        if self.kind == "onorma":
            (kernel,) = self.kernels
            return ovklearn.ONORMA(kernel, lam=self.lam, eta0=self.eta0, truncation=truncation)
        return ovklearn.MONORMA(
            list(self.kernels), lam=self.lam, eta0=self.eta0, r=2.0, truncation=truncation
        )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_instances: int
    train_fraction: float
    learners: tuple
    batch_rows: int  # training rows of the batch reference fit
    check_bounds_instances: int | None  # None: the config file as written
    reference_repeats: int  # batch fits and check-bounds calls per pass


def _growing_batch():
    return Workload(
        name="growing-batch",
        why="untruncated 4000-step streams grow the support to 4000 terms (kernels.expansion); "
        "dense t=1000 ridge fits (kernels.gram, Cholesky) set peak memory",
        n_instances=5000,
        train_fraction=0.8,
        learners=(
            Learner("onorma-gaussian", "onorma", (gaussian(1.0),), 0.1, 0.5),
            Learner("onorma-poly", "onorma", (poly(0.2),), 0.01, 0.02),
            Learner("monorma-gaussians", "monorma", (gaussian(1.0), gaussian(2.0)), 0.1, 0.5),
        ),
        batch_rows=1000,
        check_bounds_instances=2000,
        reference_repeats=1,
    )


def _online_truncated():
    return Workload(
        name="online-truncated",
        why="truncation keeps a few hundred terms, so ONORMA's step is fixed "
        "per-call overhead and MONORMA's is the per_kernel_norm_sq recompute",
        n_instances=5000,
        train_fraction=0.8,
        learners=(
            Learner("onorma-gaussian", "onorma", (gaussian(1.0),), 0.1, 0.5, truncated=True),
            Learner("onorma-poly", "onorma", (poly(0.2),), 0.01, 0.02, truncated=True),
            Learner(
                "monorma-gaussians",
                "monorma",
                (gaussian(1.0), gaussian(2.0)),
                0.1,
                0.5,
                steps=800,
                truncated=True,
            ),
        ),
        batch_rows=250,
        check_bounds_instances=None,
        reference_repeats=3,
    )


WORKLOADS = {w.name: w for w in (_growing_batch(), _online_truncated())}

BATCH_KERNEL = poly(0.2)
BATCH_LAM = 0.01


@dataclass
class Inputs:
    train: object
    test: object
    oracle_rows: np.ndarray
    cli_argv: list
    workdir: str


def setup(workload: Workload, seed: int, workdir: str) -> Inputs:
    """Generate and split the data, then warm every code path a pass uses."""
    if not os.path.isfile(BOUND_CONFIG):
        raise FileNotFoundError(f"{BOUND_CONFIG} not found")
    dataset = ovklearn.gen_synthetic(
        ovklearn.SynthSpec(workload.n_instances, N_OUTPUTS, TASK_SEED)
    )
    train, test, _ = ovklearn.split_and_normalize(dataset, workload.train_fraction, TASK_SEED)
    train = train.take(np.random.default_rng(seed).permutation(len(train)))
    argv = ["check-bounds", "--config", BOUND_CONFIG, "--set", f"seed={seed}"]
    if workload.check_bounds_instances is not None:
        argv += ["--set", f"n_instances={workload.check_bounds_instances}"]
    oracle_rows = np.linspace(0, len(test) - 1, ORACLE_ROWS).astype(int)
    inputs = Inputs(train, test, oracle_rows, argv, workdir)

    # warm-up: every call a pass makes, on a few rows
    xs, ys = train.xs[:32], train.ys[:32]
    path = os.path.join(workdir, "warmup.npz")
    for learner in workload.learners:
        model = learner.build()
        for x, y in zip(xs, ys):
            model.step(x, y)
        model.predict(test.xs[:8])
        ovklearn.save_model(path, model)
        ovklearn.load_model(path)
    ovklearn.batch_fit(BATCH_KERNEL, xs, ys, BATCH_LAM).predict(test.xs[:8])
    os.remove(path)
    return inputs


@dataclass
class PassResult:
    """Timings and outputs of one measured pass."""

    step_ns: dict = field(default_factory=lambda: {"onorma": [], "monorma": []})
    predict_rows: int = 0
    predict_s: float = 0.0
    batch_fit_s: list = field(default_factory=list)
    check_bounds_s: list = field(default_factory=list)
    cli_results: list = field(default_factory=list)
    preds: dict = field(default_factory=dict)
    models: dict = field(default_factory=dict)
    checkpoints: dict = field(default_factory=dict)
    kept_ratio: dict = field(default_factory=dict)
    batch_model: object = None
    attempted: int = 0
    wall_s: float = 0.0


def _timed_steps(model, xs, ys, times, lo, hi):
    clock = time.perf_counter_ns
    for i in range(lo, hi):
        tick = clock()
        model.step(xs[i], ys[i])
        times[i] = clock() - tick


def run_pass(workload: Workload, inputs: Inputs, tracer=None) -> PassResult:
    """Train every learner, with the references in between; predict; checkpoint.

    The learners' streams advance in SLOTS interleaved chunks, and the
    reference calls (batch fit, check-bounds) sit at evenly spaced slots,
    so every metric samples the whole pass rather than one stretch of it:
    on a shared machine the speed drifts over seconds, and a metric timed
    in one short stretch inherits that drift.
    """
    out = PassResult()
    train, test = inputs.train, inputs.test
    start = time.perf_counter()
    streams = []
    for learner in workload.learners:
        n = learner.steps or len(train)
        streams.append((learner, learner.build(), n, np.empty(n, dtype=np.int64)))
    ref_slots = np.linspace(0, SLOTS - 1, workload.reference_repeats + 2)[1:-1].round()
    ref_xs, ref_ys = train.xs[: workload.batch_rows], train.ys[: workload.batch_rows]
    batch_model = None
    for slot in range(SLOTS):
        for learner, model, n, times in streams:
            lo, hi = slot * n // SLOTS, (slot + 1) * n // SLOTS
            if tracer is not None:
                tracer.stream(learner.label, lo)
            _timed_steps(model, train.xs, train.ys, times, lo, hi)
        for _ in range(int(np.count_nonzero(ref_slots == slot))):
            if tracer is not None:
                tracer.stream("batch-fit", len(out.batch_fit_s))
            tick = time.perf_counter()
            batch_model = ovklearn.batch_fit(BATCH_KERNEL, ref_xs, ref_ys, BATCH_LAM)
            out.batch_fit_s.append(time.perf_counter() - tick)

            if tracer is not None:
                tracer.stream("check-bounds", len(out.check_bounds_s))
            text = io.StringIO()
            tick = time.perf_counter()
            with contextlib.redirect_stdout(text):
                code = ovklearn.cli.main(list(inputs.cli_argv))
            out.check_bounds_s.append(time.perf_counter() - tick)
            out.cli_results.append((code, text.getvalue()))
    out.attempted += 2 * workload.reference_repeats

    for learner, model, n, times in streams:
        out.step_ns[learner.kind].append(times)
        out.kept_ratio[learner.label] = model.support_size / n
        out.attempted += n
    models = [(learner.label, model) for learner, model, _, _ in streams]
    for label, model in models + [("batch", batch_model)]:
        if tracer is not None:
            tracer.stream(f"{label}-predict")
        tick = time.perf_counter()
        out.preds[label] = model.predict(test.xs)
        out.predict_s += time.perf_counter() - tick
        out.predict_rows += len(test.xs)
        out.attempted += 1
    for label, model in models:
        path = os.path.join(inputs.workdir, f"{label}.npz")
        if tracer is not None:
            tracer.stream(f"{label}-checkpoint")
        ovklearn.save_model(path, model)
        ovklearn.load_model(path)
        out.models[label] = model
        out.checkpoints[label] = path
        out.attempted += 2
    out.batch_model = batch_model
    out.wall_s = time.perf_counter() - start
    return out


def mse(preds, ys) -> float:
    errs = preds - ys
    return float(np.mean(np.einsum("ij,ij->i", errs, errs)))


def held_out_mse(workload: Workload, inputs: Inputs, result: PassResult) -> dict:
    """Held-out MSE per model kind, averaged over the models of that kind."""
    kinds = {learner.label: learner.kind for learner in workload.learners}
    kinds["batch"] = "batch"
    values = {"onorma": [], "monorma": [], "batch": []}
    for label, preds in result.preds.items():
        values[kinds[label]].append(mse(preds, inputs.test.ys))
    return {kind: float(np.mean(v)) for kind, v in values.items()}


def _rel(err, scale) -> float:
    return float(err) / max(float(scale), 1e-300)


def _naive_predict(kernels, weights, support, coeffs, x) -> np.ndarray:
    """sum_j w_j sum_i K_j(x_i, x) a_i, one kernel call per term."""
    out = np.zeros(N_OUTPUTS)
    for kernel, w in zip(kernels, weights):
        acc = np.zeros(N_OUTPUTS)
        for xi, ai in zip(support, coeffs):
            acc += kernel(xi, x) @ ai
        out += w * acc
    return out


def _oracle_error(kernels, weights, support, coeffs, rows, preds) -> float:
    """Largest relative gap between predictions and the per-term oracle."""
    worst = 0.0
    for x, p in zip(rows, preds):
        naive = _naive_predict(kernels, weights, support, coeffs, x)
        worst = max(worst, _rel(np.linalg.norm(p - naive), np.linalg.norm(naive)))
    return worst


def check_outputs(workload: Workload, inputs: Inputs, result: PassResult) -> list:
    """Check one pass's outputs; returns (name, ok, detail) per check.

    Runs after the pass, outside every timed region.
    """
    checks = []
    rows = inputs.test.xs[inputs.oracle_rows]

    def record(name, ok, detail):
        checks.append((name, bool(ok), detail))

    for learner in workload.learners:
        label = learner.label
        model = result.models[label]
        with np.load(result.checkpoints[label], allow_pickle=False) as archive:
            support = archive["support"]
            coeffs = archive["coeffs"]
        weights = model.delta if learner.kind == "monorma" else [1.0]
        preds = result.preds[label][inputs.oracle_rows]
        worst = _oracle_error(learner.kernels, weights, support, coeffs, rows, preds)
        record(f"{label}: predict vs per-term oracle", worst <= PREDICT_RTOL, f"rel {worst:.2e}")

        if support.shape[0] * N_OUTPUTS <= GRAM_CHECK_MAX:
            a = coeffs.ravel()
            forms = [float(a @ (k.gram(support) @ a)) for k in learner.kernels]
            tracked = model.gamma if learner.kind == "monorma" else [model.norm_sq]
            worst = max(_rel(abs(t - f), max(abs(f), 1e-12)) for t, f in zip(tracked, forms))
            record(f"{label}: tracked norms vs Gram form", worst <= NORM_RTOL, f"rel {worst:.2e}")

        if learner.kind == "monorma":
            err = abs(float(np.sum(model.delta**model.r)) - 1.0)
            record(f"{label}: sum delta^r = 1", err <= SIMPLEX_TOL, f"err {err:.2e}")

        reloaded = ovklearn.load_model(result.checkpoints[label])
        a, b = model.predict(rows), reloaded.predict(rows)
        err = float(np.max(np.abs(a - b)))
        ok = err <= RELOAD_TOL * max(1.0, float(np.max(np.abs(a))))
        record(f"{label}: reloaded checkpoint predicts the same", ok, f"max diff {err:.2e}")

    batch = result.batch_model
    preds = result.preds["batch"][inputs.oracle_rows]
    worst = _oracle_error([batch.kernel], [1.0], batch.support, batch.coeffs, rows, preds)
    record("batch: predict vs per-term oracle", worst <= PREDICT_RTOL, f"rel {worst:.2e}")
    t = len(batch.support)
    if t * N_OUTPUTS <= GRAM_CHECK_MAX:
        a = batch.coeffs.ravel()
        y = inputs.train.ys[:t].ravel()
        resid = batch.kernel.gram(batch.support) @ a + BATCH_LAM * t * a - y
        rel = _rel(np.linalg.norm(resid), np.linalg.norm(y))
        record("batch: relative residual", rel <= RESIDUAL_TOL, f"rel {rel:.2e}")
    return checks


def check_cli(result: PassResult) -> list:
    """Every check-bounds call exited 0 and reported that the bound holds."""
    return [
        (
            "check-bounds: exit 0, bound holds",
            code == 0 and "result = bound holds" in text,
            f"exit {code}",
        )
        for code, text in result.cli_results
    ]


def check_repeat(first: PassResult, later: PassResult) -> list:
    """A later pass on the same inputs gives bit-identical predictions."""
    return [
        (f"{label}: same predictions as the first pass", np.array_equal(p, later.preds[label]), "")
        for label, p in first.preds.items()
    ]
