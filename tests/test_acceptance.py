"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line (criterion 10
prints one line per sub-part) so a plain pytest run doubles as a
checklist.  The checks cover kernel axioms, gradient correctness, the
per-step and cumulative guarantees, oracle equivalences for the lazy
decay and the multi-kernel recursions, the batch solver, a desk-scale
rerun of the reference benchmark settings, per-step cost scaling, and
byte-level reproducibility.

The benchmark rerun (criterion 10) keeps the reference task, kernels,
lambda and pass counts, but runs the online learners at eta0 = 0.02.  The
literal eta0 = 1 puts the first effective step eta0 * ||K(x_1, x_1)||
far above the squared-loss stability threshold of about 2, so the online
learners diverge and promise nothing; at 0.02 the step stays below it.
Sub-parts 10a-10c then check what the method does promise: the running
MSE falls over the stream (10a), the online model lands between the batch
minimiser and the mean predictor on held-out data (10b), and the kernel
pair keeps up with the single kernel (10c); 10d compares wall time.  The
literal settings stay in the test: it asserts that their first step
exceeds the threshold on every seed, reports their divergence, and checks
that a naive reimplementation of the update rule diverges identically.
See README "Step sizes and stability".
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from conftest import NaiveOnlineLearner, block_gram, gram_norm_sq
from ovklearn.batch import fit as batch_fit
from ovklearn.batch import regularized_risk
from ovklearn.bounds import (
    check_cumulative_bound,
    check_hypotheses,
    coefficient_bound_ratios,
    compute_constants,
)
from ovklearn.data import SynthSpec, gen_synthetic, split_and_normalize
from ovklearn.exceptions import NumericsError
from ovklearn.experiments import ExperimentConfig, KernelSpec, run_experiment
from ovklearn.kernels import NonSeparablePoly, SeparableGaussian, operator_norm_bound
from ovklearn.losses import EpsilonInsensitive, SquaredLoss
from ovklearn.monorma import MONORMA, delta_update
from ovklearn.onorma import ONORMA, TruncationSchedule


def report(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def mse(preds, ys) -> float:
    errs = preds - ys
    return float(np.mean(np.einsum("ij,ij->i", errs, errs)))


def draw_kernel(rng, family, dim=None):
    if dim is None:
        dim = int(rng.integers(1, 5))
    if family == "gaussian":
        return SeparableGaussian(mu=float(10.0 ** rng.uniform(-1, 1)), dim=dim)
    return NonSeparablePoly(mu=float(rng.uniform()), dim=dim)


def test_criterion_01_kernel_axioms(capsys):
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_sym = 0.0
    worst_form = math.inf
    for family in ("gaussian", "poly"):
        for _ in range(1000):
            kernel = draw_kernel(rng, family)
            p = int(rng.integers(1, 6))
            x, xp = rng.normal(size=(2, p))
            gap = float(np.abs(kernel(x, xp) - kernel(xp, x).T).max())
            worst_sym = max(worst_sym, gap)
        for _ in range(1000):
            kernel = draw_kernel(rng, family)
            p = int(rng.integers(1, 6))
            n = int(rng.integers(1, 9))
            xs = rng.normal(size=(n, p))
            c = rng.normal(size=n * kernel.dim)
            form = float(c @ (block_gram(kernel, xs) @ c))
            worst_form = min(worst_form, form)
    elapsed = time.perf_counter() - start
    ok = worst_sym <= 1e-12 and worst_form >= -1e-9 and elapsed < 10.0
    report(
        capsys,
        "1",
        ok,
        f"worst symmetry gap {worst_sym:.1e}, most negative form "
        f"{worst_form:.1e}, {elapsed:.1f}s",
    )
    assert worst_sym <= 1e-12
    assert worst_form >= -1e-9
    assert elapsed < 10.0


def test_criterion_02_gradient_finite_differences(capsys):
    rng = np.random.default_rng(202)
    h = 1e-6
    worst = 0.0
    for loss in (SquaredLoss(), EpsilonInsensitive(0.3)):
        checked = 0
        while checked < 100:
            d = int(rng.integers(1, 5))
            z = rng.normal(size=d)
            y = rng.normal(size=d)
            gap = float(np.linalg.norm(z - y))
            # stay away from the kink and the origin of the residual
            if gap < 0.05:
                continue
            if isinstance(loss, EpsilonInsensitive) and abs(gap - loss.epsilon) < 0.05:
                continue
            grad = loss.gradient(z, y)
            numeric = np.empty(d)
            for i in range(d):
                e = np.zeros(d)
                e[i] = h
                numeric[i] = (loss.value(z + e, y) - loss.value(z - e, y)) / (2 * h)
            rel = float(
                np.linalg.norm(grad - numeric) / max(1.0, np.linalg.norm(numeric))
            )
            worst = max(worst, rel)
            checked += 1
    ok = worst <= 1e-4
    report(capsys, "2", ok, f"100 points per loss, worst relative error {worst:.1e}")
    assert worst <= 1e-4


def test_criterion_03_per_step_norm_bounds(capsys):
    rng = np.random.default_rng(303)
    worst_ratio = 0.0
    worst_margin = -math.inf
    for branch in ("least_squares", "sigma_admissible"):
        for _ in range(20):
            d = int(rng.integers(2, 5))
            kernel = SeparableGaussian(mu=float(10.0 ** rng.uniform(-0.5, 0.5)), dim=d)
            xs = rng.uniform(size=(60, 3))
            ys = rng.normal(size=(60, d))
            kappa_sq = operator_norm_bound(kernel, xs)
            kappa = math.sqrt(kappa_sq)
            if branch == "least_squares":
                lam = 2.0 * kappa_sq * float(rng.uniform(1.05, 2.0))
                loss = SquaredLoss()
                c_y = float(np.linalg.norm(ys, axis=1).max())
                consts = dict(c_y=c_y)
                norm_cap = c_y / kappa
            else:
                lam = float(rng.uniform(0.5, 2.0))
                loss = EpsilonInsensitive(0.2)
                consts = dict(c_lip=loss.lipschitz)
                norm_cap = loss.lipschitz * kappa / lam
            eta0 = float(rng.uniform(0.1, 0.95)) / lam
            bound = compute_constants(
                kappa, eta0=eta0, lam=lam, branch=branch, **consts
            )
            model = ONORMA(kernel, loss=loss, lam=lam, eta0=eta0)
            log = []
            for x, y in zip(xs, ys):
                log.append(model.step(x, y))
                margin = math.sqrt(model.norm_sq) - norm_cap
                worst_margin = max(worst_margin, margin)
            worst_ratio = max(worst_ratio, float(coefficient_bound_ratios(log, bound).max()))
    ok = worst_ratio <= 1.0 + 1e-12 and worst_margin <= 1e-6
    report(
        capsys,
        "3",
        ok,
        f"40 runs; worst coefficient ratio {worst_ratio:.12f}, "
        f"worst norm-cap excess {worst_margin:.1e}",
    )
    assert worst_ratio <= 1.0 + 1e-12
    assert worst_margin <= 1e-6


def test_criterion_04_cumulative_bound(capsys):
    start = time.perf_counter()
    ds = gen_synthetic(SynthSpec(200, 4, seed=42))
    kernel = SeparableGaussian(mu=1.0, dim=4)
    lam, eta0 = 3.0, 0.3
    hyp = check_hypotheses(kernel, ds.xs, ds.ys, lam, SquaredLoss())
    assert hyp.passes
    reference = batch_fit(kernel, ds.xs, ds.ys, lam)
    batch_risk = regularized_risk(reference, ds.xs, ds.ys)
    slacks = {}
    for truncated in (False, True):
        consts = compute_constants(
            math.sqrt(hyp.kappa_sq),
            c_y=hyp.c_y,
            eta0=eta0,
            lam=lam,
            branch="least_squares",
            truncated=truncated,
        )
        schedule = TruncationSchedule(t0=100, epsilon=0.25) if truncated else None
        model = ONORMA(kernel, lam=lam, eta0=eta0, truncation=schedule)
        log = model.fit(ds.xs, ds.ys)
        if truncated:
            assert model.support_size <= schedule.window(200) < 200
        verdict = check_cumulative_bound(log, batch_risk, consts, 200)
        slacks[truncated] = verdict.slack
    elapsed = time.perf_counter() - start
    ok = min(slacks.values()) >= -1e-9 and elapsed < 60.0
    report(
        capsys,
        "4",
        ok,
        f"m=200 slack {slacks[False]:.3f} plain, {slacks[True]:.3f} truncated, "
        f"{elapsed:.1f}s",
    )
    assert slacks[False] >= -1e-9
    assert slacks[True] >= -1e-9
    assert elapsed < 60.0


def test_criterion_05_per_kernel_norm_oracle(capsys):
    rng = np.random.default_rng(505)
    worst_rel = 0.0
    runs = [
        ([SeparableGaussian(mu=1.0, dim=2), NonSeparablePoly(mu=0.3, dim=2)], None),
        (
            [
                SeparableGaussian(mu=0.5, dim=5),
                SeparableGaussian(mu=4.0, dim=5),
                NonSeparablePoly(mu=0.7, dim=5),
            ],
            None,
        ),
        (
            [
                SeparableGaussian(mu=1.0, dim=3),
                SeparableGaussian(mu=2.0, dim=3),
                NonSeparablePoly(mu=0.5, dim=3),
                NonSeparablePoly(mu=0.9, dim=3),
            ],
            TruncationSchedule(t0=20, epsilon=0.25),
        ),
    ]
    for kernels, schedule in runs:
        d = kernels[0].dim
        model = MONORMA(kernels, lam=0.3, eta0=0.5, r=2.0, truncation=schedule)
        xs = rng.uniform(size=(50, 4))
        ys = 0.5 * rng.normal(size=(50, d))
        for step, (x, y) in enumerate(zip(xs, ys), start=1):
            model.step(x, y)
            if step % 10 != 0:
                continue
            support = model._state.support
            coeffs = model._state.coeffs
            for j, kernel in enumerate(kernels):
                direct = gram_norm_sq(kernel, support, coeffs)
                rel = abs(model.gamma[j] - direct) / max(abs(direct), 1e-12)
                worst_rel = max(worst_rel, rel)
    ok = worst_rel <= 1e-8
    report(capsys, "5", ok, f"tracked vs block-Gram norms, worst relative gap {worst_rel:.1e}")
    assert worst_rel <= 1e-8


def test_criterion_06_simplex_invariant(capsys):
    hand_a = delta_update(np.array([0.5, 0.5]), np.array([4.0, 1.0]), 1.0)
    gap_a = float(np.abs(hand_a - [2.0 / 3.0, 1.0 / 3.0]).max())
    hand_b = delta_update(np.full(2, 2.0**-0.5), np.array([3.0, 3.0]), 2.0)
    gap_b = float(np.abs(hand_b - 2.0**-0.5).max())

    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 6))
        r = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
        delta = rng.uniform(0.1, 1.0, size=m)
        delta /= float(np.sum(delta**r)) ** (1.0 / r)
        gamma = rng.uniform(size=m)
        gamma[rng.uniform(size=m) < 0.2] = 0.0
        new = delta_update(delta, gamma, r)
        worst = max(worst, abs(float(np.sum(new**r)) - 1.0))

    kernels = [SeparableGaussian(mu=v, dim=2) for v in (0.5, 1.0, 3.0)]
    model = MONORMA(kernels, lam=0.3, eta0=0.5, r=1.5)
    xs = rng.uniform(size=(80, 3))
    ys = 0.5 * rng.normal(size=(80, 2))
    for x, y in zip(xs, ys):
        model.step(x, y)
        worst = max(worst, abs(float(np.sum(model.delta**1.5)) - 1.0))

    ok = worst <= 1e-10 and max(gap_a, gap_b) <= 1e-12
    report(
        capsys,
        "6",
        ok,
        f"hand examples off by {max(gap_a, gap_b):.1e}, worst simplex gap {worst:.1e}",
    )
    assert gap_a <= 1e-12 and gap_b <= 1e-12
    assert worst <= 1e-10


def test_criterion_07_single_kernel_reduction(capsys):
    rng = np.random.default_rng(707)
    single = ONORMA(SeparableGaussian(mu=1.5, dim=3), lam=0.2, eta0=0.5)
    multi = MONORMA([SeparableGaussian(mu=1.5, dim=3)], lam=0.2, eta0=0.5, r=2.0)
    worst = 0.0
    for _ in range(500):
        x = rng.uniform(size=4)
        y = 0.5 * rng.normal(size=3)
        r1 = single.step(x, y)
        r2 = multi.step(x, y)
        worst = max(worst, float(np.abs(r1.prediction - r2.prediction).max()))
    ok = worst <= 1e-12
    report(capsys, "7", ok, f"500 steps, worst prediction gap {worst:.1e}")
    assert worst <= 1e-12


def test_criterion_08_lazy_scaling_equivalence(capsys):
    rng = np.random.default_rng(808)
    kernel = SeparableGaussian(mu=2.0, dim=2)
    model = ONORMA(kernel, lam=0.9, eta0=0.9)
    naive = NaiveOnlineLearner(kernel, lam=0.9, eta0=0.9)
    worst = 0.0
    folds = 0
    prev_scale = model._state.scale
    for _ in range(500):
        x = rng.uniform(size=3)
        y = 0.5 * rng.normal(size=2)
        res = model.step(x, y)
        pred_naive = naive.step(x, y)
        scale_ref = max(1.0, float(np.abs(pred_naive).max()))
        worst = max(worst, float(np.abs(res.prediction - pred_naive).max()) / scale_ref)
        if model._state.scale > prev_scale:
            folds += 1
        prev_scale = model._state.scale
    ok = worst <= 1e-10 and folds >= 1
    report(
        capsys,
        "8",
        ok,
        f"500 steps, {folds} renormalizations, worst prediction gap {worst:.1e}",
    )
    assert folds >= 1
    assert worst <= 1e-10


def test_criterion_09_batch_solver(capsys):
    rng = np.random.default_rng(909)
    worst_residual = 0.0
    worst_closed = 0.0
    worst_norm_excess = -math.inf
    for _ in range(10):
        t = int(rng.integers(5, 61))
        d = int(rng.integers(1, 5))
        kernel = draw_kernel(rng, str(rng.choice(["gaussian", "poly"])), dim=d)
        lam = float(10.0 ** rng.uniform(-2, 0.5))
        xs = rng.uniform(size=(t, 3))
        ys = rng.normal(size=(t, d))
        model = batch_fit(kernel, xs, ys, lam)
        a = model.coeffs.ravel()
        yvec = ys.ravel()
        lhs = block_gram(kernel, xs) @ a + lam * t * a
        worst_residual = max(
            worst_residual,
            float(np.linalg.norm(lhs - yvec) / np.linalg.norm(yvec)),
        )
        c_y = float(np.linalg.norm(ys, axis=1).max())
        worst_norm_excess = max(
            worst_norm_excess, math.sqrt(model.norm_sq) - 2.0 * c_y / lam
        )
    identity = SeparableGaussian(mu=5.0, dim=2, structure=np.eye(2))
    for lam in (0.1, 1.0, 7.0):
        x = rng.uniform(size=(1, 3))
        y = rng.normal(size=(1, 2))
        model = batch_fit(identity, x, y, lam)
        worst_closed = max(
            worst_closed, float(np.abs(model.coeffs[0] - y[0] / (1.0 + lam)).max())
        )
    ok = worst_residual <= 1e-8 and worst_closed <= 1e-12 and worst_norm_excess <= 1e-9
    report(
        capsys,
        "9",
        ok,
        f"worst residual {worst_residual:.1e}, closed-form gap {worst_closed:.1e}, "
        f"norm-cap excess {worst_norm_excess:.1e}",
    )
    assert worst_residual <= 1e-8
    assert worst_closed <= 1e-12
    assert worst_norm_excess <= 1e-9


def test_criterion_10_benchmark_reproduction(capsys):
    start = time.perf_counter()
    # 10a-10c run at the convergent eta0; the literal one is checked for
    # divergence (see the module docstring)
    lam, eta0, literal_eta0 = 0.01, 0.02, 1.0
    n_seeds = 20
    oracle_seeds = 3
    a_hits = 0
    b_hits = 0
    c_hits = 0
    ratios = []
    literal_ratios = []
    literal_steps = []
    convergent_steps = []
    online_times = []
    batch_times = []
    worst_oracle = 0.0
    oracle_steps = 0
    oracle_peak = 0.0

    def run_online(model, train, test):
        """One pass over train: (running MSEs, train seconds, held-out MSE)."""
        cums = []
        sq_sum = 0.0
        with np.errstate(all="ignore"):
            tick = time.perf_counter()
            try:
                for i, (x, y) in enumerate(zip(train.xs, train.ys), start=1):
                    err = model.step(x, y).prediction - y
                    sq_sum += float(err @ err)
                    cums.append(sq_sum / i)
            except NumericsError:
                return cums, math.inf, math.inf
            seconds = time.perf_counter() - tick
            return cums, seconds, mse(model.predict(test.xs), test.ys)

    for seed in range(n_seeds):
        ds = gen_synthetic(SynthSpec(500, 4, seed))
        train, test, _ = split_and_normalize(ds, 0.5, seed)
        kernel = NonSeparablePoly(mu=0.2, dim=4)
        first_norm = kernel.diag_operator_norm(train.xs[0])
        literal_steps.append(literal_eta0 * first_norm)
        convergent_steps.append(eta0 * first_norm)

        cums, seconds, online_test = run_online(
            ONORMA(kernel, lam=lam, eta0=eta0), train, test
        )
        if math.isfinite(seconds):
            online_times.append(seconds)

        tick = time.perf_counter()
        reference = batch_fit(kernel, train.xs, train.ys, lam)
        batch_times.append(time.perf_counter() - tick)
        batch_test = mse(reference.predict(test.xs), test.ys)
        mean_pred = np.broadcast_to(train.ys.mean(axis=0), test.ys.shape)
        mean_test = mse(mean_pred, test.ys)

        pair = [NonSeparablePoly(mu=1.0, dim=4), NonSeparablePoly(mu=0.0, dim=4)]
        _, _, multi_test = run_online(MONORMA(pair, lam=lam, eta0=eta0, r=2.0), train, test)

        literal = ONORMA(kernel, lam=lam, eta0=literal_eta0)
        _, _, literal_test = run_online(literal, train, test)
        literal_ratios.append(literal_test / batch_test)

        # "cumulative MSE decreases": the running MSE ends below its value
        # at the end of the first tenth of the stream
        cut = len(train) // 10
        if len(cums) == len(train) and cums[-1] < cums[cut - 1]:
            a_hits += 1
        # the batch minimiser is the accuracy target, and a converged
        # online run beats predicting the training-target mean
        if batch_test <= online_test < mean_test:
            b_hits += 1
        ratios.append(online_test / batch_test)
        if multi_test <= online_test * 1.1:
            c_hits += 1

        if seed < oracle_seeds:
            # the literal divergence belongs to the update rule: a naive
            # reimplementation without lazy scaling tracks it step for step
            model = ONORMA(kernel, lam=lam, eta0=literal_eta0)
            naive = NaiveOnlineLearner(kernel, lam=lam, eta0=literal_eta0)
            with np.errstate(all="ignore"):
                for x, y in zip(train.xs, train.ys):
                    try:
                        pred = model.step(x, y).prediction
                        pred_naive = naive.step(x, y)
                    except NumericsError:  # raised on a non-finite gradient
                        break
                    if not (np.all(np.isfinite(pred)) and np.all(np.isfinite(pred_naive))):
                        break
                    scale_ref = max(1.0, float(np.abs(pred_naive).max()))
                    gap = float(np.abs(pred - pred_naive).max()) / scale_ref
                    worst_oracle = max(worst_oracle, gap)
                    oracle_peak = max(oracle_peak, scale_ref)
                    oracle_steps += 1

    median_ratio = float(np.median(ratios))
    literal_median = float(np.median(literal_ratios))
    online_med = float(np.median(online_times))
    batch_med = float(np.median(batch_times))
    a_ok = a_hits >= 18
    b_ok = b_hits >= 18
    c_ok = c_hits >= 15
    d_ok = online_med < batch_med
    step_ok = min(literal_steps) > 2.0 and max(convergent_steps) <= 2.0
    oracle_ok = worst_oracle <= 1e-9 and oracle_steps > 0
    elapsed = time.perf_counter() - start

    report(
        capsys,
        "10a",
        a_ok,
        f"eta0={eta0:g}: running MSE at the last step below its value at step "
        f"{cut} in {a_hits}/20 seeds, need 18",
    )
    report(
        capsys,
        "10b",
        b_ok,
        f"batch <= online < mean-predictor test MSE in {b_hits}/20 seeds, need 18; "
        f"median online/batch ratio {median_ratio:.3g}",
    )
    report(capsys, "10c", c_ok, f"multi-kernel within 10% of single in {c_hits}/20 seeds, need 15")
    report(
        capsys,
        "10d",
        d_ok,
        f"median online train {online_med * 1000:.1f}ms vs batch fit {batch_med * 1000:.1f}ms",
    )
    report(
        capsys,
        "10 literal step",
        step_ok,
        f"first effective step {min(literal_steps):.1f}-{max(literal_steps):.1f} at "
        f"eta0={literal_eta0:g}, need > 2 on every seed; at most "
        f"{max(convergent_steps):.2f} at eta0={eta0:g}, need <= 2",
    )
    with capsys.disabled():
        print(
            f"\ncriterion 10 literal run: median online/batch test MSE ratio "
            f"{literal_median:.2e} at eta0={literal_eta0:g} (reported, not asserted)"
        )
    report(
        capsys,
        "10 literal oracle",
        oracle_ok,
        f"ONORMA vs naive learner over {oracle_steps} steps on seeds "
        f"0-{oracle_seeds - 1}, worst relative gap {worst_oracle:.1e} (need <= 1e-9), "
        f"predictions up to {oracle_peak:.1e}",
    )
    assert elapsed < 300.0
    failing = [
        name
        for name, ok in (
            ("10a", a_ok),
            ("10b", b_ok),
            ("10c", c_ok),
            ("10d", d_ok),
            ("literal step", step_ok),
            ("literal oracle", oracle_ok),
        )
        if not ok
    ]
    assert not failing, (
        f"benchmark sub-criteria failed: {', '.join(failing)}. 10a-10c check "
        f"convergence at eta0={eta0:g}; 'literal step' checks that eta0="
        f"{literal_eta0:g} puts the first effective step above the squared-loss "
        f"threshold of 2 (if it no longer does, rerun 10a-10c at the literal "
        f"eta0); 'literal oracle' checks that the literal divergence matches a "
        f"naive reimplementation of the update rule"
    )


def test_criterion_11_step_cost_scaling(capsys):
    ds = gen_synthetic(SynthSpec(2000, 4, seed=0))
    kernel = SeparableGaussian(mu=1.0, dim=4)

    # the two learners take turns on each example, so a change in host
    # speed during the run hits both timings alike
    models = [
        ONORMA(kernel, lam=0.1, eta0=0.5, truncation=schedule)
        for schedule in (None, TruncationSchedule(t0=100, epsilon=0.25))
    ]
    times = np.empty((2, len(ds)))
    for i, (x, y) in enumerate(zip(ds.xs, ds.ys)):
        for k, model in enumerate(models):
            tick = time.perf_counter_ns()
            model.step(x, y)
            times[k, i] = time.perf_counter_ns() - tick
    plain, truncated = times / 1000.0

    centers, medians = [], []
    for lo in range(100, 2000, 100):
        centers.append(lo + 50)
        medians.append(np.median(plain[lo : lo + 100]))
    slope = float(np.polyfit(np.log(centers), np.log(medians), 1)[0])

    trunc_early = float(np.median(truncated[500:1000]))
    trunc_late = float(np.median(truncated[1500:2000]))
    plain_late = float(np.median(plain[1500:2000]))
    plateau = trunc_late <= 2.5 * trunc_early and trunc_late < plain_late

    ok = slope <= 1.2 and plateau
    report(
        capsys,
        "11",
        ok,
        f"log-log step-time slope {slope:.2f} (limit 1.2); truncated late/early "
        f"{trunc_late / trunc_early:.2f}x, late truncated {trunc_late:.0f}us vs "
        f"plain {plain_late:.0f}us",
    )
    assert slope <= 1.2
    assert trunc_late <= 2.5 * trunc_early
    assert trunc_late < plain_late


def test_criterion_11b_truncated_monorma_plateau(capsys):
    ds = gen_synthetic(SynthSpec(2000, 4, seed=0))
    schedule = TruncationSchedule(t0=100, epsilon=0.25)

    # interleaved as in criterion 11; the reference is truncated ONORMA,
    # whose late step is a fixed cost over a few hundred kept terms
    models = [
        ONORMA(SeparableGaussian(mu=1.0, dim=4), lam=0.1, eta0=0.5, truncation=schedule),
        MONORMA(
            [SeparableGaussian(mu=1.0, dim=4), SeparableGaussian(mu=2.0, dim=4)],
            lam=0.1,
            eta0=0.5,
            truncation=schedule,
        ),
    ]
    times = np.empty((2, len(ds)))
    for i, (x, y) in enumerate(zip(ds.xs, ds.ys)):
        for k, model in enumerate(models):
            tick = time.perf_counter_ns()
            model.step(x, y)
            times[k, i] = time.perf_counter_ns() - tick
    single, multi = times / 1000.0

    multi_early = float(np.median(multi[500:1000]))
    multi_late = float(np.median(multi[1500:2000]))
    single_late = float(np.median(single[1500:2000]))
    ok = multi_late <= 2.5 * multi_early and multi_late <= 4.0 * single_late
    report(
        capsys,
        "11b",
        ok,
        f"truncated 2-kernel MONORMA late/early {multi_late / multi_early:.2f}x "
        f"(limit 2.5), late {multi_late:.0f}us vs truncated ONORMA "
        f"{single_late:.0f}us = {multi_late / single_late:.2f}x (limit 4)",
    )
    assert multi_late <= 2.5 * multi_early
    assert multi_late <= 4.0 * single_late


def test_criterion_11c_untruncated_poly_step_stays_flat(capsys):
    ds = gen_synthetic(SynthSpec(2000, 4, seed=0))
    kernel = NonSeparablePoly(mu=0.2, dim=4)

    # interleaved as in criterion 11.  The untruncated step reads the feature
    # sums kept with its folded terms, so its cost should not grow with the
    # support (250-500 terms early, 1500-2000 late).  The truncated twin keeps
    # 213-242 terms over those steps (epsilon near 0), so whatever its cost
    # does there is the host's drift, which the reading divides out
    models = [
        ONORMA(kernel, lam=0.01, eta0=0.02, truncation=schedule)
        for schedule in (None, TruncationSchedule(t0=200, epsilon=1e-9))
    ]
    times = np.empty((2, len(ds)))
    for i, (x, y) in enumerate(zip(ds.xs, ds.ys)):
        for k, model in enumerate(models):
            tick = time.perf_counter_ns()
            model.step(x, y)
            times[k, i] = time.perf_counter_ns() - tick
    plain, twin = times / 1000.0

    plain_growth, twin_growth = (
        float(np.median(steps[1500:2000]) / np.median(steps[250:500])) for steps in (plain, twin)
    )
    # at landing this read 0.99-1.01 on a 2-core VM, where a step that sweeps
    # every stored term read 1.23-1.36; the limit leaves 0.14 of margin above
    # the landing reading
    growth = plain_growth / twin_growth
    ok = growth <= 1.15
    report(
        capsys,
        "11c",
        ok,
        f"untruncated poly step late/early {growth:.2f}x of its twin's (limit 1.15): "
        f"{plain_growth:.2f}x from s=250-500 to s=1500-{models[0].support_size}, "
        f"twin {twin_growth:.2f}x at s={models[1].support_size}",
    )
    assert growth <= 1.15


def test_criterion_12_metrics_determinism(capsys, tmp_path):
    base = ExperimentConfig(
        algorithm="monorma",
        kernels=(KernelSpec("gaussian", 1.0), KernelSpec("gaussian", 2.0)),
        lam=0.1,
        eta0=0.5,
        n_instances=300,
        n_outputs=2,
        seed=5,
    )
    paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
    for path in paths:
        run_experiment(dataclasses.replace(base, metrics=str(path)))
    rows = [
        [line.split(",") for line in path.read_text().splitlines()] for path in paths
    ]
    mismatches = 0
    assert len(rows[0]) == len(rows[1]) == 151
    for ra, rb in zip(*rows):
        del ra[4], rb[4]  # the wall-clock column may differ
        if ra != rb:
            mismatches += 1
    ok = mismatches == 0
    report(
        capsys,
        "12",
        ok,
        f"two identical runs, {mismatches} differing rows outside the timing column",
    )
    assert mismatches == 0
