"""Constants and empirical checks for the cumulative-error guarantees.

Two branches give a bound of the form

    mean instantaneous regularised risk
        <= batch regularised risk + alpha / sqrt(m) + beta / m

over an m-step online run with learning rate ``eta0 / sqrt(t)``:

* ``sigma_admissible`` -- the loss is convex and C-Lipschitz in the
  prediction; the hypothesis stays inside ``U = C * kappa / lambda``.
* ``least_squares`` -- squared loss with targets bounded by C_y and
  ``lambda > 2 kappa^2``; then ``U = max(C_y / kappa, 2 C_y / lambda)``.

Here ``kappa^2`` bounds ``||K(x, x)||_op``; this module takes its largest
value over the training inputs, which is the sup itself for a Gaussian
kernel (``||J||`` at every x) and a lower bound of the sup for a poly
kernel, as every report notes (:data:`KAPPA_NOTE`).  With truncation active the sqrt(m) constant
uses the factor 10 * eta * lambda instead of 2 * eta * lambda.

alpha = 2 * lambda * U^2 * (2 eta lambda + 1 / (eta lambda))   (plain)
alpha = 2 * lambda * U^2 * (10 eta lambda + 1 / (eta lambda))  (truncated)
beta  = U^2 / (2 eta)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, HypothesisViolation, check_int, check_positive, check_real
from .kernels import operator_norm_bound
from .losses import EpsilonInsensitive, SquaredLoss

__all__ = [
    "BoundConstants",
    "BoundReport",
    "HypothesisReport",
    "compute_constants",
    "check_cumulative_bound",
    "check_hypotheses",
    "coefficient_bound_ratios",
    "key_value_text",
]

# what the reported kappa is, by kernel family
KAPPA_NOTE = {
    "gaussian": "exact: ||K(x, x)||_op = ||J|| at every x",
    "poly": "empirical max over the dataset; a lower bound of the true sup",
}


def key_value_text(values: dict) -> str:
    """``key = value`` lines in config syntax, without a final newline.

    Bools are lower-case and floats their ``repr``, which round-trips and
    is identical across runs; anything else, ``None`` included, is ``str``.
    """
    lines = []
    for key, value in values.items():
        if isinstance(value, bool):
            value = str(value).lower()
        elif isinstance(value, float):
            value = repr(float(value))
        lines.append(f"{key} = {value}")
    return "\n".join(lines)


@dataclass(frozen=True)
class BoundConstants:
    """Everything needed to evaluate the guarantee's right-hand side."""

    kappa: float
    c_y: float | None
    c_lip: float | None
    u: float
    alpha: float
    beta: float
    eta0: float
    lam: float
    branch: str
    truncated: bool
    kappa_note: str

    def coefficient_limit(self, t: int) -> float:
        """Per-step bound on the norm of the newly added coefficient."""
        eta_t = self.eta0 / math.sqrt(t)
        if self.branch == "least_squares":
            return 2.0 * eta_t * self.c_y
        return eta_t * self.c_lip

    def to_text(self) -> str:
        return key_value_text(
            {
                "branch": self.branch,
                "truncated": self.truncated,
                "kappa": self.kappa,
                "c_y": self.c_y,
                "c_lip": self.c_lip,
                "u": self.u,
                "alpha": self.alpha,
                "beta": self.beta,
                "eta0": self.eta0,
                "lambda": self.lam,
            }
        )


def compute_constants(
    kappa: float,
    *,
    c_y: float | None = None,
    c_lip: float | None = None,
    eta0: float,
    lam: float,
    branch: str,
    truncated: bool = False,
    kappa_note: str = KAPPA_NOTE["poly"],
) -> BoundConstants:
    """Derive U, alpha, beta for the chosen branch.

    ``kappa_note`` says what kappa is, for the reports; the default makes
    no claim beyond an empirical lower bound.

    Raises :class:`HypothesisViolation` naming the failing inequality if
    the branch prerequisites do not hold, and ConfigError for any other bad argument.
    """
    if branch not in ("least_squares", "sigma_admissible"):
        raise ConfigError(f"unknown branch {branch!r}")
    kappa = check_real("kappa", kappa)
    eta0, lam = check_positive("eta0", eta0), check_positive("lambda", lam)
    if kappa <= 0:
        raise HypothesisViolation(f"kappa > 0 fails: kappa = {kappa}")
    if not eta0 * lam < 1:
        raise HypothesisViolation(
            f"eta * lambda < 1 fails: {eta0} * {lam} = {eta0 * lam}"
        )
    if branch == "least_squares":
        c_y = check_real("least_squares branch's c_y", c_y)
        if not lam > 2.0 * kappa * kappa:
            raise HypothesisViolation(
                f"lambda > 2 kappa^2 fails: {lam} <= {2.0 * kappa * kappa}"
            )
        u = max(c_y / kappa, 2.0 * c_y / lam)
    else:
        c_lip = check_real("sigma_admissible branch's c_lip", c_lip)
        u = c_lip * kappa / lam
    eta_lam = eta0 * lam
    factor = 10.0 if truncated else 2.0
    alpha = 2.0 * lam * u * u * (factor * eta_lam + 1.0 / eta_lam)
    beta = u * u / (2.0 * eta0)
    return BoundConstants(
        kappa=kappa,
        c_y=c_y,
        c_lip=c_lip,
        u=u,
        alpha=alpha,
        beta=beta,
        eta0=eta0,
        lam=lam,
        branch=branch,
        truncated=truncated,
        kappa_note=kappa_note,
    )


@dataclass(frozen=True)
class BoundReport:
    """Empirical evaluation of the cumulative-risk inequality."""

    m: int
    lhs: float
    batch_risk: float
    rhs: float
    slack: float
    constants: BoundConstants

    @property
    def holds(self) -> bool:
        # bool() so numpy-float slack cannot leak a np.bool_ to callers
        return bool(self.slack >= -1e-9)

    def to_text(self) -> str:
        own = {
            "m": self.m,
            "lhs_mean_inst_risk": self.lhs,
            "batch_risk": self.batch_risk,
            "rhs": self.rhs,
            "slack": self.slack,
            "holds": self.holds,
        }
        note = key_value_text({"kappa_note": self.constants.kappa_note})
        return "\n".join([key_value_text(own), self.constants.to_text(), note])


def check_cumulative_bound(run_log, batch_risk: float, consts: BoundConstants, m: int) -> BoundReport:
    """Compare an online run against the guarantee's right-hand side.

    ``run_log`` holds one StepResult per example, whose
    ``instantaneous_risk`` fields were recorded at the pre-update
    hypothesis; ``batch_risk`` is the regularised risk of the batch
    minimiser on the same m examples with the same kernel and lambda.
    """
    batch_risk = check_real("batch risk", batch_risk)
    m = check_int("m", m, 1)
    if m != len(run_log):
        raise ConfigError(f"m = {m} but run log has {len(run_log)} steps")
    lhs = float(np.mean([r.instantaneous_risk for r in run_log]))
    rhs = batch_risk + consts.alpha / math.sqrt(m) + consts.beta / m
    return BoundReport(
        m=m, lhs=lhs, batch_risk=batch_risk, rhs=rhs, slack=rhs - lhs, constants=consts
    )


@dataclass(frozen=True)
class HypothesisReport:
    """Pass/fail diagnostics for the guarantee prerequisites."""

    kappa_sq: float
    kappa_note: str
    c_y: float
    branch: str
    loss_name: str
    sigma_admissible: bool
    c_lip: float | None
    lambda_margin: float | None
    passes: bool

    def to_text(self) -> str:
        return key_value_text(
            {
                "kappa_sq": self.kappa_sq,
                "kappa_note": self.kappa_note,
                "c_y": self.c_y,
                "branch": self.branch,
                "loss": self.loss_name,
                "sigma_admissible": self.sigma_admissible,
                "c_lip": self.c_lip,
                "lambda_margin": self.lambda_margin,
                "hypotheses_pass": self.passes,
            }
        )


def check_hypotheses(kernel, xs, ys, lam: float, loss) -> HypothesisReport:
    """Estimate kappa^2 and C_y and test the branch prerequisites.

    Squared loss routes through the bounded-target branch (it has no
    global Lipschitz constant), which additionally requires
    ``lambda > 2 kappa^2``; the margin of that inequality is reported
    either way.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) == 0:
        raise ConfigError("check_hypotheses needs a non-empty dataset")
    lam = check_positive("lambda", lam)
    kappa_sq = operator_norm_bound(kernel, xs)
    c_y = float(np.max(np.linalg.norm(ys, axis=1))) if len(ys) else 0.0

    if isinstance(loss, EpsilonInsensitive):
        branch, margin, passes = "sigma_admissible", None, kappa_sq > 0
    elif isinstance(loss, SquaredLoss):
        branch, margin = "least_squares", lam - 2.0 * kappa_sq
        passes = margin > 0 and kappa_sq > 0
    else:
        raise ConfigError(f"unrecognised loss {loss!r}")
    return HypothesisReport(
        kappa_sq=kappa_sq,
        kappa_note=KAPPA_NOTE[kernel.family],
        c_y=c_y,
        branch=branch,
        loss_name=loss.name(),
        sigma_admissible=branch == "sigma_admissible",
        c_lip=loss.lipschitz,
        lambda_margin=margin,
        passes=passes,
    )


def coefficient_bound_ratios(run_log, consts: BoundConstants) -> np.ndarray:
    """Per-step ratio of the new coefficient's norm to its guaranteed limit.

    Values <= 1 mean the per-step bound held; position i is step i + 1.
    """
    return np.array(
        [r.new_coeff_norm / consts.coefficient_limit(i + 1) for i, r in enumerate(run_log)]
    )
