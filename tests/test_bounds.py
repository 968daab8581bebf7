import numpy as np
import pytest

from ovklearn.batch import fit as batch_fit
from ovklearn.batch import regularized_risk
from ovklearn.bounds import (
    KAPPA_NOTE,
    check_cumulative_bound,
    check_hypotheses,
    coefficient_bound_ratios,
    compute_constants,
    key_value_text,
)
from ovklearn.exceptions import HypothesisViolation
from ovklearn.kernels import NonSeparablePoly, SeparableGaussian, operator_norm_bound
from ovklearn.losses import EpsilonInsensitive, SquaredLoss
from ovklearn.onorma import ONORMA, StepResult, TruncationSchedule


def test_constants_hand_example_least_squares():
    c = compute_constants(1.0, c_y=1.0, eta0=0.1, lam=5.0, branch="least_squares")
    assert c.u == 1.0  # max(1/1, 2/5)
    assert abs(c.alpha - 30.0) <= 1e-12  # 2*5*1*(2*0.5 + 1/0.5)
    assert abs(c.beta - 5.0) <= 1e-12  # 1/(2*0.1)
    assert c.branch == "least_squares"
    assert not c.truncated


def test_constants_hand_example_sigma_admissible():
    c = compute_constants(1.0, c_lip=1.0, eta0=0.1, lam=2.0, branch="sigma_admissible")
    assert c.u == 0.5  # C * kappa / lambda
    assert abs(c.alpha - 5.4) <= 1e-12  # 2*2*0.25*(2*0.2 + 1/0.2)
    assert abs(c.beta - 1.25) <= 1e-12  # 0.25/(2*0.1)


def test_truncated_alpha_exceeds_plain_by_known_amount():
    plain = compute_constants(1.0, c_y=1.0, eta0=0.1, lam=5.0, branch="least_squares")
    trunc = compute_constants(
        1.0, c_y=1.0, eta0=0.1, lam=5.0, branch="least_squares", truncated=True
    )
    assert trunc.alpha > plain.alpha
    # the factor moves from 2*eta*lambda to 10*eta*lambda
    expected_gap = 2.0 * 5.0 * plain.u**2 * 8.0 * 0.5
    assert abs((trunc.alpha - plain.alpha) - expected_gap) <= 1e-12
    assert trunc.beta == plain.beta


def test_compute_constants_violations():
    with pytest.raises(HypothesisViolation, match="kappa"):
        compute_constants(0.0, c_y=1.0, eta0=0.1, lam=5.0, branch="least_squares")
    with pytest.raises(HypothesisViolation, match="eta"):
        compute_constants(1.0, c_y=1.0, eta0=0.5, lam=5.0, branch="least_squares")
    with pytest.raises(HypothesisViolation, match="lambda > 2 kappa"):
        compute_constants(2.0, c_y=1.0, eta0=0.01, lam=5.0, branch="least_squares")
    with pytest.raises(ValueError):
        compute_constants(1.0, c_y=1.0, eta0=0.1, lam=5.0, branch="bogus")
    with pytest.raises(ValueError):
        compute_constants(1.0, eta0=0.1, lam=5.0, branch="least_squares")
    with pytest.raises(ValueError):
        compute_constants(1.0, eta0=0.1, lam=5.0, branch="sigma_admissible")


def test_coefficient_limit_per_branch():
    ls = compute_constants(1.0, c_y=2.0, eta0=0.4, lam=2.3, branch="least_squares")
    assert abs(ls.coefficient_limit(4) - 2.0 * 0.2 * 2.0) <= 1e-15
    sa = compute_constants(1.0, c_lip=3.0, eta0=0.4, lam=2.0, branch="sigma_admissible")
    assert abs(sa.coefficient_limit(4) - 0.2 * 3.0) <= 1e-15


def test_check_hypotheses_small_lambda_fails():
    kernel = SeparableGaussian(mu=1.0, dim=2)  # kappa^2 = 1.1
    xs = np.random.default_rng(71).uniform(size=(20, 3))
    ys = np.random.default_rng(72).normal(size=(20, 2))
    hyp = check_hypotheses(kernel, xs, ys, lam=0.01, loss=SquaredLoss())
    assert hyp.branch == "least_squares"
    assert not hyp.passes
    assert hyp.lambda_margin is not None and hyp.lambda_margin < 0
    assert abs(hyp.kappa_sq - 1.1) <= 1e-12


def test_check_hypotheses_margin_just_above_threshold():
    kernel = SeparableGaussian(mu=1.0, dim=2)
    xs = np.random.default_rng(73).uniform(size=(10, 3))
    ys = np.random.default_rng(74).normal(size=(10, 2))
    lam = 2.0 * 1.1 + 0.1
    hyp = check_hypotheses(kernel, xs, ys, lam=lam, loss=SquaredLoss())
    assert hyp.passes
    assert abs(hyp.lambda_margin - 0.1) <= 1e-12


def test_check_hypotheses_unit_ball_targets():
    kernel = SeparableGaussian(mu=1.0, dim=2)
    xs = np.random.default_rng(75).uniform(size=(5, 3))
    ys = np.random.default_rng(76).normal(size=(5, 2))
    ys = ys / np.linalg.norm(ys, axis=1, keepdims=True)  # every norm exactly-ish 1
    hyp = check_hypotheses(kernel, xs, ys, lam=3.0, loss=SquaredLoss())
    assert abs(hyp.c_y - 1.0) <= 1e-12


def test_check_hypotheses_epsilon_loss():
    kernel = SeparableGaussian(mu=1.0, dim=2)
    xs = np.random.default_rng(77).uniform(size=(10, 3))
    ys = np.random.default_rng(78).normal(size=(10, 2))
    hyp = check_hypotheses(kernel, xs, ys, lam=0.01, loss=EpsilonInsensitive(0.1))
    assert hyp.branch == "sigma_admissible"
    assert hyp.sigma_admissible
    assert hyp.c_lip == 1.0
    assert hyp.lambda_margin is None
    assert hyp.passes  # only needs kappa^2 > 0
    degenerate = check_hypotheses(
        NonSeparablePoly(mu=0.5, dim=2),
        np.zeros((3, 2)),
        ys[:3],
        lam=0.01,
        loss=EpsilonInsensitive(0.1),
    )
    assert degenerate.kappa_sq == 0.0
    assert not degenerate.passes


def test_check_hypotheses_rejects_unknown_loss():
    kernel = SeparableGaussian(mu=1.0, dim=2)
    with pytest.raises(ValueError):
        check_hypotheses(kernel, np.ones((2, 2)), np.ones((2, 2)), 1.0, loss=object())
    with pytest.raises(ValueError):
        check_hypotheses(kernel, np.empty((0, 2)), np.empty((0, 2)), 1.0, SquaredLoss())


def fake_log(risks):
    return [StepResult(np.zeros(1), 0.0, r, 0.0) for r in risks]


def test_check_cumulative_bound_report():
    consts = compute_constants(1.0, c_y=1.0, eta0=0.1, lam=5.0, branch="least_squares")
    log = fake_log([1.0, 2.0, 3.0, 4.0])
    report = check_cumulative_bound(log, 0.5, consts, 4)
    assert report.lhs == 2.5
    assert abs(report.rhs - (0.5 + 30.0 / 2.0 + 5.0 / 4.0)) <= 1e-12
    assert abs(report.slack - (report.rhs - report.lhs)) <= 1e-15
    assert report.holds
    # rhs is linear in the batch risk, so slack falls as batch risk falls
    lower = check_cumulative_bound(log, 0.1, consts, 4)
    assert lower.rhs < report.rhs


def test_check_cumulative_bound_holds_tolerance():
    consts = compute_constants(1.0, c_y=1.0, eta0=0.1, lam=5.0, branch="least_squares")
    log = fake_log([consts.alpha + consts.beta + 1e-10])  # slack -1e-10 at m=1
    assert check_cumulative_bound(log, 0.0, consts, 1).holds
    worse = fake_log([consts.alpha + consts.beta + 1e-7])
    assert not check_cumulative_bound(worse, 0.0, consts, 1).holds


def test_check_cumulative_bound_m_validation():
    consts = compute_constants(1.0, c_y=1.0, eta0=0.1, lam=5.0, branch="least_squares")
    with pytest.raises(ValueError):
        check_cumulative_bound(fake_log([1.0]), 0.0, consts, 2)
    with pytest.raises(ValueError):
        check_cumulative_bound([], 0.0, consts, 0)


def stable_run(seed, m=100, truncated=False):
    rng = np.random.default_rng(seed)
    kernel = SeparableGaussian(mu=1.0, dim=2, structure=0.5 * np.eye(2))  # kappa^2 = 0.5
    xs = rng.uniform(size=(m, 3))
    ys = rng.normal(size=(m, 2))
    ys /= np.maximum(np.linalg.norm(ys, axis=1, keepdims=True), 1.0)
    lam, eta0 = 1.5, 0.5
    schedule = TruncationSchedule(t0=30, epsilon=0.25) if truncated else None
    model = ONORMA(kernel, lam=lam, eta0=eta0, truncation=schedule)
    log = model.fit(xs, ys)
    kappa = np.sqrt(operator_norm_bound(kernel, xs))
    c_y = float(np.max(np.linalg.norm(ys, axis=1)))
    consts = compute_constants(
        kappa, c_y=c_y, eta0=eta0, lam=lam, branch="least_squares", truncated=truncated
    )
    batch = batch_fit(kernel, xs, ys, lam)
    report = check_cumulative_bound(log, regularized_risk(batch, xs, ys), consts, m)
    return log, consts, report


def test_cumulative_bound_on_stable_runs():
    for seed in (80, 81, 82):
        _, _, report = stable_run(seed)
        assert report.slack >= -1e-9
        assert report.holds


def test_cumulative_bound_with_truncation():
    for seed in (83, 84):
        _, _, report = stable_run(seed, truncated=True)
        assert report.slack >= -1e-9


def test_coefficient_bound_ratios_within_limit():
    log, consts, _ = stable_run(85)
    ratios = coefficient_bound_ratios(log, consts)
    assert len(ratios) == len(log)
    assert np.all(ratios <= 1.0 + 1e-12)


def test_reports_flag_empirical_kappa():
    _, consts, report = stable_run(86)
    assert KAPPA_NOTE in report.to_text()
    assert "holds = true" in report.to_text()
    assert "branch = least_squares" in consts.to_text()
    hyp = check_hypotheses(
        SeparableGaussian(mu=1.0, dim=2),
        np.ones((2, 3)),
        np.ones((2, 2)),
        3.0,
        SquaredLoss(),
    )
    assert KAPPA_NOTE in hyp.to_text()
    assert "hypotheses_pass = true" in hyp.to_text()


def test_key_value_text_formats():
    text = key_value_text(
        {"a": True, "b": False, "c": 0.1, "d": np.float64(2.0), "e": None, "f": 3, "g": "x"}
    )
    assert text == "a = true\nb = false\nc = 0.1\nd = 2.0\ne = None\nf = 3\ng = x"
