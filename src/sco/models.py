"""Benchmark objectives and synthetic data generators.

Four problem families: sparse linear regression / compressive sensing,
sparse logistic regression, L0 trend filtering (sparse increments of a
piecewise-constant signal), and Ising edge selection via the negative
log-pseudo-likelihood.

Generators are pure functions of their :class:`ModelSpec`, seed included:
the same spec always yields the same dataset.  Each objective is built on
the autodiff tape and exposes a ``restricted`` hook so active-set refits
run on the column submatrix rather than the full design.  Only the full
oracle runs the construction probe: restricted oracles are built once per
refit from these fixed programs, where a probe would only cost one more
tape evaluation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autodiff import ObjectiveOracle, build_objective, cumsum, dot, log1pexp, sqnorm, vsum
from .problem import ScoProblem

__all__ = [
    "KINDS",
    "ModelSpec",
    "Dataset",
    "generate",
    "gen_linear",
    "gen_logistic",
    "gen_trend",
    "gen_ising",
    "objective",
    "objective_linear",
    "objective_logistic",
    "objective_trend",
    "objective_ising",
    "build_problem",
    "ising_spin_count",
    "ising_edge_count",
    "load_csv",
]

KINDS = ("linear", "logistic", "trend", "ising")


def ising_edge_count(q):
    return q * (q - 1) // 2


def ising_spin_count(p):
    """Spin count q with q(q-1)/2 == p; rejects non-triangular p."""
    q = int(round((1.0 + np.sqrt(1.0 + 8.0 * p)) / 2.0))
    if ising_edge_count(q) != p:
        raise ValueError(f"p={p} is not q(q-1)/2 for any integer q")
    return q


@dataclass(frozen=True)
class ModelSpec:
    """What to generate.

    ``signal`` is kind-dependent: the signal-to-noise ratio
    var(X theta*) / var(noise) for linear (may be ``inf`` for noiseless
    data), and the coefficient scale otherwise (nonzero magnitudes are
    drawn from scale * U[1, 2]; trend jumps therefore have magnitude at
    least ``signal``).
    """

    kind: str
    n: int
    p: int
    s_true: int
    signal: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.n < 1 or self.p < 1 or self.s_true < 1:
            raise ValueError("n, p and s_true must be positive")
        if self.s_true > self.p:
            raise ValueError("s_true cannot exceed p")
        if not self.signal > 0.0:
            raise ValueError("signal must be positive")
        if self.kind == "trend" and self.p != self.n:
            raise ValueError("trend filtering requires p == n (one increment per sample)")
        if self.kind == "ising":
            ising_spin_count(self.p)  # validates triangularity


@dataclass(frozen=True, eq=False)
class Dataset:
    """Generated instance: design/observations plus the planted truth."""

    spec: ModelSpec
    X: Optional[np.ndarray]  # n x p design, n x q spins for ising, None for trend
    y: Optional[np.ndarray]  # responses; the observed series for trend; None for ising
    theta_true: np.ndarray
    support_true: np.ndarray

    @property
    def kind(self):
        return self.spec.kind

    @property
    def n(self):
        return self.spec.n

    @property
    def p(self):
        return self.spec.p

    def subset(self, rows):
        """Same dataset restricted to the given sample rows (for CV folds)."""
        rows = np.asarray(rows, dtype=int)
        spec = ModelSpec(self.spec.kind, len(rows), self.spec.p, self.spec.s_true,
                         self.spec.signal, self.spec.seed)
        if self.kind == "trend":
            # trend rows are ordered in time; a subset is only meaningful
            # for contiguous windows, which is the caller's responsibility
            return Dataset(spec, None, self.y[rows], self.theta_true, self.support_true)
        X = self.X[rows]
        y = None if self.y is None else self.y[rows]
        return Dataset(spec, X, y, self.theta_true, self.support_true)

    def to_csv(self, path):
        """Column-ordered CSV: x0..x{p-1} then y (columns present per kind).

        linear/logistic write x columns and y; trend writes only y (the
        observed series); ising writes the spin columns x0..x{q-1}.
        """
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            if self.kind == "trend":
                writer.writerow(["y"])
                for v in self.y:
                    writer.writerow([repr(float(v))])
            elif self.kind == "ising":
                q = self.X.shape[1]
                writer.writerow([f"x{j}" for j in range(q)])
                for row in self.X:
                    writer.writerow([repr(float(v)) for v in row])
            else:
                pcols = self.X.shape[1]
                writer.writerow([f"x{j}" for j in range(pcols)] + ["y"])
                for row, v in zip(self.X, self.y):
                    writer.writerow([repr(float(u)) for u in row] + [repr(float(v))])


def load_csv(path):
    """Read a dataset CSV back as (X, y); either may be None."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    data = np.asarray(rows, dtype=float)
    has_y = header[-1] == "y"
    ncols = len(header)
    X = None
    y = None
    if has_y:
        y = data[:, -1]
        if ncols > 1:
            X = data[:, :-1]
    else:
        X = data
    return X, y


def _draw_support(rng, p, s):
    return np.sort(rng.choice(p, size=s, replace=False))


def _draw_values(rng, s, scale=1.0):
    signs = rng.integers(0, 2, size=s) * 2 - 1
    return signs * rng.uniform(1.0, 2.0, size=s) * scale


def gen_linear(spec):
    """Gaussian design, coefficients +-U[1,2], noise scaled to the SNR.

    SNR is var(X theta*) / var(noise); ``signal=inf`` gives y = X theta*
    exactly.
    """
    rng = np.random.default_rng(spec.seed)
    X = rng.standard_normal((spec.n, spec.p))
    support = _draw_support(rng, spec.p, spec.s_true)
    theta = np.zeros(spec.p)
    theta[support] = _draw_values(rng, spec.s_true)
    mean = X @ theta
    if np.isinf(spec.signal):
        y = mean
    else:
        sigma = np.sqrt(np.var(mean) / spec.signal)
        y = mean + sigma * rng.standard_normal(spec.n)
    return Dataset(spec, X, y, theta, support)


def gen_logistic(spec):
    """Gaussian design; y ~ Bernoulli(sigmoid(x' theta*)) in {0, 1}."""
    rng = np.random.default_rng(spec.seed)
    X = rng.standard_normal((spec.n, spec.p))
    support = _draw_support(rng, spec.p, spec.s_true)
    theta = np.zeros(spec.p)
    theta[support] = _draw_values(rng, spec.s_true, spec.signal)
    z = X @ theta
    prob = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
    y = (rng.uniform(size=spec.n) < prob).astype(float)
    return Dataset(spec, X, y, theta, support)


def _spaced_positions(rng, n, s, gap):
    # rejection-sample jump positions in 1..n-1 at least `gap` apart
    candidates = np.arange(1, n)
    for _ in range(1000):
        pos = np.sort(rng.choice(candidates, size=s, replace=False))
        if s == 1 or np.min(np.diff(pos)) >= gap:
            return pos
    raise ValueError(f"cannot place {s} jumps with separation {gap} in a series of length {n}")


def gen_trend(spec):
    """Random walk with standard-normal increments plus planted level
    shifts: s_true jumps of magnitude signal * U[1,2] at positions >= 1
    kept at least n // (4 s_true) apart so neighbouring jumps stay
    identifiable.  The parameters are the increments of the series; the
    true support marks the jump positions."""
    rng = np.random.default_rng(spec.seed)
    walk = np.cumsum(rng.standard_normal(spec.n))
    gap = max(2, spec.n // (4 * spec.s_true))
    support = _spaced_positions(rng, spec.n, spec.s_true, gap)
    theta = np.zeros(spec.n)
    theta[support] = _draw_values(rng, spec.s_true, spec.signal)
    data = walk + np.cumsum(theta)
    return Dataset(spec, None, data, theta, support)


def _gibbs_sample(J, n, sweeps, rng):
    # n parallel chains from random spins; one recorded state per chain
    q = J.shape[0]
    z = rng.integers(0, 2, size=(n, q)) * 2.0 - 1.0
    for _ in range(sweeps):
        for a in range(q):
            field = z @ J[:, a]
            prob = 1.0 / (1.0 + np.exp(-2.0 * field))
            z[:, a] = np.where(rng.uniform(size=n) < prob, 1.0, -1.0)
    return z


def gen_ising(spec):
    """Sparse symmetric couplings on q spins (p = q(q-1)/2 upper-triangle
    edge weights, magnitudes signal * U[1,2]); spins sampled by seeded
    Gibbs sampling with 200 burn-in sweeps over n parallel chains."""
    rng = np.random.default_rng(spec.seed)
    q = ising_spin_count(spec.p)
    support = _draw_support(rng, spec.p, spec.s_true)
    theta = np.zeros(spec.p)
    theta[support] = _draw_values(rng, spec.s_true, spec.signal)
    rows, cols = np.triu_indices(q, k=1)
    J = np.zeros((q, q))
    J[rows, cols] = theta
    J += J.T
    Z = _gibbs_sample(J, spec.n, 200, rng)
    return Dataset(spec, Z, None, theta, support)


def generate(spec):
    """Dispatch to the generator for spec.kind."""
    return {
        "linear": gen_linear,
        "logistic": gen_logistic,
        "trend": gen_trend,
        "ising": gen_ising,
    }[spec.kind](spec)


# -- objectives --------------------------------------------------------------


def objective_linear(dataset):
    """f(theta) = 0.5 ||y - X theta||^2 (RSS scale)."""
    X, y = dataset.X, dataset.y

    def make(Xm, restrict):
        def program(theta):
            return 0.5 * sqnorm(y - Xm @ theta)

        return build_objective(program, Xm.shape[1], scale="rss", restrict=restrict,
                               probe=restrict is not None)

    return make(X, lambda coords: make(X[:, coords], None))


def objective_logistic(dataset):
    """Bernoulli negative log-likelihood sum_i log1pexp(x_i' theta) - y_i x_i' theta."""
    X, y = dataset.X, dataset.y

    def make(Xm, restrict):
        def program(theta):
            t = Xm @ theta
            return vsum(log1pexp(t)) - dot(y, t)

        return build_objective(program, Xm.shape[1], scale="nll", restrict=restrict,
                               probe=restrict is not None)

    return make(X, lambda coords: make(X[:, coords], None))


def objective_trend(dataset):
    """f(theta) = 0.5 ||data - cumsum(theta)||^2 over the increments."""
    data = dataset.y
    n = dataset.n

    def program(theta):
        return 0.5 * sqnorm(data - cumsum(theta))

    def restrict(coords):
        # cumulative indicator columns: entry (t, j) = 1 iff coords[j] <= t
        C = (np.arange(n)[:, None] >= coords[None, :]).astype(float)

        def sub(theta):
            return 0.5 * sqnorm(data - C @ theta)

        return build_objective(sub, len(coords), scale="rss", probe=False)

    return build_objective(program, n, scale="rss", restrict=restrict)


def objective_ising(dataset):
    """Negative log-pseudo-likelihood of the edge weights.

    For each sample i and spin a the conditional term is
    -log sigmoid(2 z_ia sum_{b != a} theta_ab z_ib); at theta = 0 the
    objective equals n q log 2.
    """
    Z = dataset.X
    n, q = Z.shape
    p = dataset.p
    rows, cols = np.triu_indices(q, k=1)
    edge_of = np.zeros((q, q), dtype=int)
    edge_of[rows, cols] = np.arange(p)
    edge_of[cols, rows] = np.arange(p)
    # stacked per-spin design: block a maps theta to the field at spin a
    C = np.zeros((n * q, p))
    for a in range(q):
        for b in range(q):
            if b != a:
                C[a * n:(a + 1) * n, edge_of[a, b]] = Z[:, b]
    zfac = np.concatenate([Z[:, a] for a in range(q)])

    def make(Cm, restrict):
        def program(theta):
            return vsum(log1pexp((-2.0 * zfac) * (Cm @ theta)))

        return build_objective(program, Cm.shape[1], scale="nll", restrict=restrict,
                               probe=restrict is not None)

    return make(C, lambda coords: make(C[:, coords], None))


def objective(dataset):
    """Oracle for a dataset's kind."""
    return {
        "linear": objective_linear,
        "logistic": objective_logistic,
        "trend": objective_trend,
        "ising": objective_ising,
    }[dataset.kind](dataset)


def build_problem(dataset, s=None, groups=None, preselect=None):
    """ScoProblem over a dataset; s defaults to the planted sparsity."""
    s = dataset.spec.s_true if s is None else int(s)
    return ScoProblem(p=dataset.p, s=s, oracle=objective(dataset),
                      groups=groups, preselect=preselect, n=dataset.n)
