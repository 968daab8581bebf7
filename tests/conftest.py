"""Shared test oracles.

Everything here is deliberately naive: explicit Python loops, per-step
coefficient multiplies, full Gram recomputation.  The oracles must stay
independent of the optimised code paths they are used to cross-check, so
they only call each kernel's ``__call__`` and the loss objects.
"""

import numpy as np

from ovklearn.losses import SquaredLoss


def block_gram(kernel, xs):
    """Block Gram matrix assembled one d x d block at a time."""
    t = len(xs)
    d = kernel.dim
    g = np.zeros((t * d, t * d))
    for i in range(t):
        for j in range(t):
            g[i * d : (i + 1) * d, j * d : (j + 1) * d] = kernel(xs[i], xs[j])
    return g


def naive_expansion(kernel, support, coeffs, x):
    """``sum_i K(x_i, x) c_i`` at one point, one d x d kernel matrix at a time."""
    out = np.zeros(kernel.dim)
    for xi, ci in zip(support, coeffs):
        out = out + kernel(xi, x) @ ci
    return out


def gram_norm_sq(kernel, support, coeffs):
    """Squared expansion norm via the reproducing property, term by term."""
    total = 0.0
    for i in range(len(support)):
        for j in range(len(support)):
            total += float(coeffs[i] @ (kernel(support[i], support[j]) @ coeffs[j]))
    return total


def power_iteration_norm(mat, max_iters=2_000_000, seed=0):
    """Spectral norm of a symmetric matrix by plain power iteration.

    Iterates until the norm estimate stops moving; near-degenerate
    spectra converge slowly in the eigenvector but the estimate itself
    is then already pinched between the two leading eigenvalues.
    """
    mat = np.asarray(mat, dtype=float)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=mat.shape[0])
    v /= np.linalg.norm(v)
    previous = -1.0
    for _ in range(max_iters):
        w = mat @ v
        n = float(np.linalg.norm(w))
        if n == 0.0:
            return 0.0
        if abs(n - previous) <= 1e-15 * max(1.0, n):
            return n
        previous = n
        v = w / n
    return previous


class NaiveOnlineLearner:
    """Single-kernel online learner without lazy scaling.

    Every step multiplies all stored coefficients by the decay factor
    explicitly, and every prediction re-sums the expansion term by term.
    """

    def __init__(self, kernel, loss=None, lam=0.01, eta0=1.0, truncation=None):
        self.kernel = kernel
        self.loss = loss if loss is not None else SquaredLoss()
        self.lam = lam
        self.eta0 = eta0
        self.truncation = truncation
        self.t = 0
        self.terms = []  # [time, x, coeff], coeffs mutated in place

    def predict(self, x):
        out = np.zeros(self.kernel.dim)
        for _, xi, ai in self.terms:
            out = out + self.kernel(xi, x) @ ai
        return out

    def step(self, x, y):
        self.t += 1
        eta = self.eta0 / np.sqrt(self.t)
        decay = 1.0 - eta * self.lam
        pred = self.predict(x)
        alpha = -eta * self.loss.gradient(pred, y)
        for term in self.terms:
            term[2] = decay * term[2]
        if np.linalg.norm(alpha) > 0.0:
            self.terms.append([self.t, np.array(x, dtype=float), alpha])
        if self.truncation is not None:
            cutoff = self.t - self.truncation.window(self.t)
            self.terms = [term for term in self.terms if term[0] > cutoff]
        return pred

    def norm_sq(self):
        xs = [term[1] for term in self.terms]
        cs = [term[2] for term in self.terms]
        return gram_norm_sq(self.kernel, xs, cs)


class NaiveMultiKernelLearner:
    """Multi-kernel learner with per-step full-Gram norm recomputation.

    Shares one coefficient sequence across kernels, multiplies it out
    explicitly each step, recomputes every ||g_j||^2 from scratch, and
    applies the closed-form weight update written out longhand.  With a
    truncation schedule, terms older than its window are filtered out.
    """

    def __init__(self, kernels, loss=None, lam=0.01, eta0=1.0, r=2.0, truncation=None):
        self.kernels = list(kernels)
        self.m = len(self.kernels)
        self.loss = loss if loss is not None else SquaredLoss()
        self.lam = lam
        self.eta0 = eta0
        self.r = r
        self.truncation = truncation
        self.t = 0
        self.terms = []  # [x, coeff, time], coeffs mutated in place
        self.delta = np.full(self.m, self.m ** (-1.0 / r))
        self.gamma = np.zeros(self.m)

    def g_eval(self, j, x):
        out = np.zeros(self.kernels[j].dim)
        for xi, ai, *_ in self.terms:
            out = out + self.kernels[j](xi, x) @ ai
        return out

    def predict(self, x):
        out = np.zeros(self.kernels[0].dim)
        for j in range(self.m):
            out = out + self.delta[j] * self.g_eval(j, x)
        return out

    def step(self, x, y):
        self.t += 1
        eta = self.eta0 / np.sqrt(self.t)
        decay = 1.0 - eta * self.lam
        pred = self.predict(x)
        alpha = -eta * self.loss.gradient(pred, y)
        for term in self.terms:
            term[1] = decay * term[1]
        if np.linalg.norm(alpha) > 0.0:
            self.terms.append([np.array(x, dtype=float), alpha, self.t])
        if self.truncation is not None:
            cutoff = self.t - self.truncation.window(self.t)
            self.terms = [term for term in self.terms if term[2] > cutoff]
        xs = [term[0] for term in self.terms]
        cs = [term[1] for term in self.terms]
        self.gamma = np.array([gram_norm_sq(k, xs, cs) for k in self.kernels])
        terms = self.delta**2 * self.gamma
        if np.any(terms > 1e-300):
            num = terms ** (1.0 / (self.r + 1.0))
            den = np.sum(terms ** (self.r / (self.r + 1.0))) ** (1.0 / self.r)
            self.delta = num / den
        return pred
