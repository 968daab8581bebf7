"""Shared test oracles and bit references.

The oracles are deliberately naive: explicit Python loops, per-step
coefficient multiplies, full Gram recomputation.  They must stay
independent of the optimised code paths they are used to cross-check, so
they only call each kernel's ``__call__`` and the loss objects.

The bit references are the one-kernel point forms of the step, written
out with the operations a kernel bank must reproduce bit for bit: a bank
shares work between its kernels, never the floats of any one of them.
"""

from fractions import Fraction

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


def squared_distances(support, x):
    """The Gaussian family row ``||x_i - x||^2`` of one point."""
    diffs = support - x
    return np.einsum("ij,ij->i", diffs, diffs)


def exact_sq_distances(support, x):
    """Every ``||x_i - x||^2`` in exact rational arithmetic, as Fractions."""
    x = [Fraction(v) for v in np.asarray(x, dtype=float).tolist()]
    return [
        sum((Fraction(a) - b) ** 2 for a, b in zip(row, x))
        for row in np.asarray(support, dtype=float).tolist()
    ]


# unit roundoff of float64
UNIT_ROUNDOFF = 2.0**-53


def exact_expansion(kernel, support, coeffs, queries):
    """Every ``sum_i K(x_i, q) c_i`` of a poly kernel in exact rational arithmetic.

    Works in Fractions from the float support, coefficients, queries and
    ``mu``, with ``1 - mu`` exact too.  Returns one list of d Fractions per
    row of the (n, p) ``queries``.
    """
    assert kernel.family == "poly", "the poly kernel is a polynomial in its inputs"
    mu = Fraction(kernel.mu)
    rows = [[Fraction(v) for v in row] for row in np.asarray(support, dtype=float).tolist()]
    terms = [[Fraction(v) for v in row] for row in np.asarray(coeffs, dtype=float).tolist()]
    out = []
    for q in np.asarray(queries, dtype=float).tolist():
        q = [Fraction(v) for v in q]
        g = [Fraction(0)] * kernel.dim
        for x, c in zip(rows, terms):
            dot = sum(a * b for a, b in zip(x, q))
            coupled, square = mu * dot * sum(c), (1 - mu) * dot * dot
            g = [gk + coupled + square * ck for gk, ck in zip(g, c)]
        out.append(g)
    return out


def absolute_expansion(kernel, support, coeffs, queries):
    """The (n, d) sums of the absolute terms of :func:`exact_expansion`, in floats.

    Entry (r, k) is ``sum_i mu t_i sum_l |c_il| + (1 - mu) t_i^2 |c_ik|``
    with ``t_i = sum_a |x_ia q_ra|``: the sum of the absolute values of the
    products ``x_ia q_a (c_il or x_ib q_b c_ik)`` that every evaluation of
    the expansion adds up, in whatever order.
    """
    t = np.abs(np.asarray(queries, dtype=float)) @ np.abs(np.asarray(support, dtype=float)).T
    c = np.abs(np.asarray(coeffs, dtype=float))
    return kernel.mu * (t @ c.sum(axis=1))[:, None] + (1.0 - kernel.mu) * ((t * t) @ c)


def centred_distance_bound(norms, uu, p):
    """Largest error allowed a distance of the centred point sweep, per term.

    ``k u (n_i + ||u||^2)`` with u the unit roundoff and k = 5p + 16.  The
    sweep's own error is at most (3p + 8) u (n_i + ||u||^2) to first
    order: the rounded centred values give 4 u (n_i + ||u||^2), the norms
    p u n_i and p u ||u||^2, and the product's p + 2 terms, whose absolute
    sum is at most 2 (n_i + ||u||^2), 2 (p + 2) u (n_i + ||u||^2).  The
    naive row ``squared_distances`` errs by at most 2 (p + 3) u times the
    same sum, so the one bound serves against it and against the exact
    distances alike, with room for second-order terms.
    """
    return (5 * p + 16) * UNIT_ROUNDOFF * (np.asarray(norms) + uu)


def gaussian_scalars(row, mu):
    """``exp(row / -mu)``: a Gaussian's weights from its family row."""
    return np.exp(np.divide(row, -mu))


def gaussian_expansion(w, coeffs, structure):
    """``J (w C)``: a Gaussian's expansion at one point from its weights."""
    return structure @ (w @ coeffs)


def gaussian_quad(structure, a):
    """``<J a, a>``, which is ``<K(x, x) a, a>`` for a Gaussian at every x."""
    return float(a @ (structure @ a))


def gaussian_cross(w, coeffs, structure, a):
    """``w * (C J a)``: every ``<K(x_i, x) a, c_i>`` of a Gaussian."""
    return w * (coeffs @ (structure @ a))


def poly_sums(p, coeffs):
    """``(sum_i p_i S_i, sum_i p_i^2 c_i)`` from ``p_i = <x_i, x>``: a poly bank's sweep of its terms."""
    return float((p @ coeffs).sum()), (p * p) @ coeffs


def poly_expansion(linear, quadratic, mu):
    """A poly kernel's expansion at one point from its bank's two sums."""
    return (1.0 - mu) * quadratic + mu * linear


def poly_cross(p, coeffs, sums, mu, a):
    """Every ``<K(x_i, x) a, c_i>`` of a poly kernel, from ``p_i = <x_i, x>``."""
    return mu * float(a.sum()) * (p * sums) + (1.0 - mu) * ((p * p) * (coeffs @ a))


def poly_quad(x, mu, a):
    """``<K(x, x) a, a>`` of a poly kernel."""
    dot, total = float(x @ x), float(a.sum())
    return mu * dot * total * total + (1.0 - mu) * dot * dot * float(a @ a)


def poly_drop_share(support, coeffs, mu):
    """``2 <g(x_0), c_0> - <K(x_0, x_0) c_0, c_0>``: what dropping the first term takes from ``||g||^2``."""
    x, c = support[0], coeffs[0]
    crosses = poly_cross(support @ x, coeffs, coeffs.sum(axis=1), mu, c)
    return 2.0 * float(crosses.sum()) - poly_quad(x, mu, c)


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
