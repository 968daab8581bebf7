#!/usr/bin/env python3
"""Online learner versus the batch ridge solve, head to head.

For growing stream lengths, fits the batch regularized-least-squares
model and runs the online learner over the same examples, then compares
held-out MSE and wall time.  The kernel is a separable Gaussian, so the
batch fit solves d = 4 independent t x t systems in the structure matrix's
eigenbasis rather than one dense td x td system ((td)^3 / 3 flops).  The
default structure matrix has two distinct eigenvalues, so the four systems
share two Cholesky factors (2 t^3 / 3 flops).  The online pass trades a little accuracy for a much flatter
cost curve: the solve is cubic in the number of examples, one online sweep
is quadratic.
"""

import time

import numpy as np

from ovklearn.batch import fit as batch_fit
from ovklearn.data import SynthSpec, gen_synthetic, split_and_normalize
from ovklearn.kernels import SeparableGaussian
from ovklearn.onorma import ONORMA


def held_out_mse(predict, test):
    errs = predict(test.xs) - test.ys
    return float(np.mean(np.einsum("ij,ij->i", errs, errs)))


def main():
    kernel = SeparableGaussian(mu=1.0, dim=4)
    lam = 0.1
    print(f"{'n train':>8} {'batch MSE':>10} {'batch s':>8} "
          f"{'online MSE':>11} {'online s':>9}")
    for n in (100, 200, 400, 800):
        dataset = gen_synthetic(SynthSpec(2 * n, 4, seed=1))
        train, test, _ = split_and_normalize(dataset, 0.5, seed=1)

        tick = time.perf_counter()
        reference = batch_fit(kernel, train.xs, train.ys, lam)
        batch_s = time.perf_counter() - tick
        batch_mse = held_out_mse(reference.predict, test)

        model = ONORMA(kernel, lam=lam, eta0=0.5)
        tick = time.perf_counter()
        model.fit(train.xs, train.ys)
        online_s = time.perf_counter() - tick
        online_mse = held_out_mse(model.predict, test)

        print(f"{n:>8} {batch_mse:>10.4f} {batch_s:>8.3f} "
              f"{online_mse:>11.4f} {online_s:>9.3f}")

    print("\nthe batch minimiser is the accuracy target; the online model")
    print("approaches it in one pass without ever forming the Gram matrix")


if __name__ == "__main__":
    main()
