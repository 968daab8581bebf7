#!/usr/bin/env python3
"""Verifying the cumulative-error guarantee on a concrete run.

The online learner carries a proven bound: the mean instantaneous
regularized risk over m steps stays within alpha/sqrt(m) + beta/m of
the batch minimiser's regularized risk, provided the prerequisites
hold (squared loss needs lambda > 2 kappa^2; every step size must
satisfy eta * lambda < 1).  This script walks the full pipeline:
diagnose the prerequisites, derive the constants, run learner and
batch reference, and compare both sides of the inequality.
"""

import math

import numpy as np

from ovklearn.batch import fit as batch_fit
from ovklearn.batch import regularized_risk
from ovklearn.bounds import (
    check_cumulative_bound,
    check_hypotheses,
    coefficient_bound_ratios,
    compute_constants,
)
from ovklearn.data import SynthSpec, gen_synthetic
from ovklearn.kernels import SeparableGaussian
from ovklearn.losses import SquaredLoss
from ovklearn.onorma import ONORMA


def main():
    dataset = gen_synthetic(SynthSpec(300, 4, seed=7))
    kernel = SeparableGaussian(mu=1.0, dim=4)
    lam, eta0 = 3.0, 0.3

    print("step 1: prerequisites")
    hyp = check_hypotheses(kernel, dataset.xs, dataset.ys, lam, SquaredLoss())
    print(hyp.to_text())
    if not hyp.passes:
        print("\nprerequisites fail; nothing to verify")
        return

    print("\nstep 2: constants for the right-hand side")
    consts = compute_constants(
        math.sqrt(hyp.kappa_sq),
        c_y=hyp.c_y,
        eta0=eta0,
        lam=lam,
        branch="least_squares",
        kappa_note=hyp.kappa_note,
    )
    print(consts.to_text())

    print("\nstep 3: one online pass plus the batch reference")
    model = ONORMA(kernel, lam=lam, eta0=eta0)
    log = model.fit(dataset.xs, dataset.ys)
    reference = batch_fit(kernel, dataset.xs, dataset.ys, lam)
    batch_risk = regularized_risk(reference, dataset.xs, dataset.ys)

    print("\nstep 4: the inequality itself")
    verdict = check_cumulative_bound(log, batch_risk, consts, len(dataset))
    print(verdict.to_text())

    ratios = coefficient_bound_ratios(log, consts)
    print(f"\nper-step coefficient norms also stay within their cap: "
          f"max ratio {float(ratios.max()):.6f} (<= 1 required)")
    print(f"hypothesis norm {math.sqrt(model.norm_sq):.4f} vs "
          f"cap C_y/kappa = {hyp.c_y / math.sqrt(hyp.kappa_sq):.4f}")
    margin = (verdict.rhs - verdict.lhs) / verdict.rhs
    print(f"\nbound {'holds' if verdict.holds else 'violated'}; "
          f"the run uses {100 * (1 - margin):.1f}% of the allowance")


if __name__ == "__main__":
    main()
