"""Constants and empirical checks for the cumulative-error guarantees.

Two branches give a bound of the form

    mean instantaneous regularised risk
        <= batch regularised risk + alpha / sqrt(m) + beta / m

over an m-step online run with learning rate ``eta0 / sqrt(t)``:

* ``sigma_admissible`` -- the loss is convex and C-Lipschitz in the
  prediction; the hypothesis stays inside ``U = C * kappa / lambda``.
* ``least_squares`` -- squared loss with targets bounded by C_y and
  ``lambda > 2 kappa^2``; then ``U = max(C_y / kappa, 2 C_y / lambda)``.

Here ``kappa^2`` bounds ``||K(x, x)||_op``; this module estimates it
empirically over the training inputs (a lower bound of the true sup,
flagged in every report).  With truncation active the sqrt(m) constant
uses the factor 10 * eta * lambda instead of 2 * eta * lambda.

alpha = 2 * lambda * U^2 * (2 eta lambda + 1 / (eta lambda))   (plain)
alpha = 2 * lambda * U^2 * (10 eta lambda + 1 / (eta lambda))  (truncated)
beta  = U^2 / (2 eta)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import HypothesisViolation
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

KAPPA_NOTE = "empirical max over the dataset; a lower bound of the true sup"


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
) -> BoundConstants:
    """Derive U, alpha, beta for the chosen branch.

    Raises :class:`HypothesisViolation` naming the failing inequality if
    the branch prerequisites do not hold.
    """
    if branch not in ("least_squares", "sigma_admissible"):
        raise ValueError(f"unknown branch {branch!r}")
    if kappa <= 0:
        raise HypothesisViolation(f"kappa > 0 fails: kappa = {kappa}")
    if not eta0 * lam < 1:
        raise HypothesisViolation(
            f"eta * lambda < 1 fails: {eta0} * {lam} = {eta0 * lam}"
        )
    if branch == "least_squares":
        if c_y is None:
            raise ValueError("least_squares branch needs c_y")
        if not lam > 2.0 * kappa * kappa:
            raise HypothesisViolation(
                f"lambda > 2 kappa^2 fails: {lam} <= {2.0 * kappa * kappa}"
            )
        u = max(c_y / kappa, 2.0 * c_y / lam)
    else:
        if c_lip is None:
            raise ValueError("sigma_admissible branch needs c_lip")
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
        note = key_value_text({"kappa_note": KAPPA_NOTE})
        return "\n".join([key_value_text(own), self.constants.to_text(), note])


def check_cumulative_bound(run_log, batch_risk: float, consts: BoundConstants, m: int) -> BoundReport:
    """Compare an online run against the guarantee's right-hand side.

    ``run_log`` holds one StepResult per example, whose
    ``instantaneous_risk`` fields were recorded at the pre-update
    hypothesis; ``batch_risk`` is the regularised risk of the batch
    minimiser on the same m examples with the same kernel and lambda.
    """
    if m != len(run_log):
        raise ValueError(f"m = {m} but run log has {len(run_log)} steps")
    if m < 1:
        raise ValueError("need at least one step")
    lhs = float(np.mean([r.instantaneous_risk for r in run_log]))
    rhs = batch_risk + consts.alpha / math.sqrt(m) + consts.beta / m
    return BoundReport(
        m=m, lhs=lhs, batch_risk=batch_risk, rhs=rhs, slack=rhs - lhs, constants=consts
    )


@dataclass(frozen=True)
class HypothesisReport:
    """Pass/fail diagnostics for the guarantee prerequisites."""

    kappa_sq: float
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
                "kappa_note": KAPPA_NOTE,
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
        raise ValueError("check_hypotheses needs a non-empty dataset")
    kappa_sq = operator_norm_bound(kernel, xs)
    c_y = float(np.max(np.linalg.norm(ys, axis=1))) if len(ys) else 0.0

    if isinstance(loss, EpsilonInsensitive):
        branch, margin, passes = "sigma_admissible", None, kappa_sq > 0
    elif isinstance(loss, SquaredLoss):
        branch, margin = "least_squares", lam - 2.0 * kappa_sq
        passes = margin > 0 and kappa_sq > 0
    else:
        raise ValueError(f"unrecognised loss {loss!r}")
    return HypothesisReport(
        kappa_sq=kappa_sq,
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
