"""Benchmark objectives and synthetic data generators.

Four problem families: sparse linear regression / compressive sensing,
sparse logistic regression, L0 trend filtering (sparse increments of a
piecewise-constant signal), and Ising edge selection via the negative
log-pseudo-likelihood.

Generators are pure functions of their :class:`ModelSpec`, seed included:
the same spec always yields the same dataset.  Each objective is a program
on the autodiff tape, so active-set refits run on the column submatrix
(derived by :func:`build_objective`; for Ising, on the touched spins
through its own ``restrict`` hook) rather than the full design.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autodiff import (_integer_indices, _require_integer, build_objective, dot, log1pexp, sqnorm,
                       vsum)
from .problem import ScoProblem

__all__ = [
    "KINDS",
    "ModelSpec",
    "Dataset",
    "generate",
    "gen_linear",
    "gen_logistic",
    "gen_trend",
    "trend_design",
    "gen_ising",
    "objective",
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
        for name in ("n", "p", "s_true"):
            _require_integer(getattr(self, name), name)
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
    """Generated instance: design/observations plus the planted truth.

    ``X`` is the n x p design; for trend it is the n x n cumulative-indicator
    design (entry (t, j) is 1 iff j <= t), so the series is X @ increments;
    for ising it holds the n x q spins.  ``n`` is read from the rows of X,
    so a row subset keeps the spec of the full dataset.
    """

    spec: ModelSpec
    X: np.ndarray
    y: Optional[np.ndarray]  # responses; the observed series for trend; None for ising
    theta_true: np.ndarray
    support_true: np.ndarray

    @property
    def kind(self):
        return self.spec.kind

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def p(self):
        return self.spec.p

    def subset(self, rows):
        """Same dataset restricted to the given sample rows (for CV folds);
        ``rows`` is a 1-D integer array of rows in 0..n-1, and a boolean
        mask, a fraction, a 2-D array or a negative row raises ValueError."""
        rows = _integer_indices(rows, "rows", self.n)
        y = None if self.y is None else self.y[rows]
        return Dataset(self.spec, self.X[rows], y, self.theta_true, self.support_true)

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


def trend_design(n):
    """n x n cumulative-indicator design: (trend_design(n) @ d)[t] = d[0] + ... + d[t]."""
    return np.tril(np.ones((n, n)))


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
    return Dataset(spec, trend_design(spec.n), data, theta, support)


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


def _ising_objective(Z):
    """coords -> negative log-pseudo-likelihood program over those edges
    (None means all q(q-1)/2), computed from the field F = Z @ J.

    J is the symmetric coupling matrix gathered from theta.  Only the spins
    T touched by the edges enter: the program is
    vsum(log1pexp(W * (Z[:, T] @ J_TT))) with W = -2 Z[:, T], plus
    n (q - |T|) log 2 for the untouched spins, whose field is zero.  A
    restricted call therefore costs O(n |T|^2) with |T| <= 2 k, whatever q.
    """
    n, q = Z.shape
    rows, cols = np.triu_indices(q, k=1)

    def program_for(coords):
        coords = np.arange(len(rows)) if coords is None else coords
        a, b = rows[coords], cols[coords]
        spins = np.unique(np.concatenate((a, b)))
        a, b = np.searchsorted(spins, a), np.searchsorted(spins, b)
        m = len(spins)
        slot = np.zeros((m, m), dtype=int)  # J_TT[u, v] = theta[slot[u, v]] * mask[u, v]
        slot[a, b] = slot[b, a] = np.arange(len(coords))
        mask = np.zeros((m, m))
        mask[a, b] = mask[b, a] = 1.0
        ZT = Z[:, spins]
        W = -2.0 * ZT
        untouched = n * (q - m) * np.log(2.0)
        return lambda theta: vsum(log1pexp(W * (ZT @ (theta[slot] * mask)))) + untouched

    return program_for


def objective(dataset):
    """Oracle of a dataset's kind.

    linear and trend: 0.5 ||y - X theta||^2 (RSS scale), X being the
    cumulative-indicator design for trend.  logistic: the Bernoulli
    negative log-likelihood sum_i log1pexp(x_i' theta) - y_i x_i' theta.
    These are plain programs of X @ theta, whose derived restriction uses
    the columns ``X[:, coords]``.  ising: the negative log-pseudo-likelihood
    from the field F = Z @ J, where Z is the n x q spin matrix and J the
    symmetric coupling matrix holding the edge weights theta (zero
    diagonal): sum over samples i and spins a of
    log1pexp(-2 z_ia F_ia) = -log sigmoid(2 z_ia sum_{b != a} J_ab z_ib);
    at theta = 0 it equals n q log 2.  Its own restrict hook keeps only the
    spins the chosen edges touch.
    """
    X, y = dataset.X, dataset.y
    if dataset.kind == "ising":
        program_for = _ising_objective(X)

        def restrict(coords):
            return build_objective(program_for(coords), len(coords), scale="nll", probe=False)

        return build_objective(program_for(None), dataset.p, scale="nll", restrict=restrict)
    if dataset.kind == "logistic":
        def nll(theta):
            t = X @ theta
            return vsum(log1pexp(t)) - dot(y, t)

        return build_objective(nll, dataset.p, scale="nll")
    return build_objective(lambda theta: 0.5 * sqnorm(y - X @ theta), dataset.p, scale="rss")


def build_problem(dataset, s=None, groups=None, preselect=None):
    """ScoProblem over a dataset; s defaults to the planted sparsity."""
    s = dataset.spec.s_true if s is None else s
    return ScoProblem(p=dataset.p, s=s, oracle=objective(dataset),
                      groups=groups, preselect=preselect, n=dataset.n)
