"""Sparsity-level selection over a candidate grid.

Solves a warm-started path of problems with increasing budgets and picks
the level that minimizes an information criterion or the K-fold
cross-validated holdout loss.  Ties always resolve to the smaller budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .autodiff import _require_integer
from .problem import SolverConfig
from .solvers import solve

__all__ = [
    "Criterion",
    "AIC",
    "BIC",
    "GIC",
    "SIC",
    "PathResult",
    "PathAborted",
    "solve_path",
    "information_criterion",
    "select_by_ic",
    "cross_validate",
]


@dataclass(frozen=True)
class Criterion:
    """An information criterion: aic, bic, gic or sic (K-fold CV is
    :func:`cross_validate`)."""

    kind: str

    def __post_init__(self):
        if self.kind not in ("aic", "bic", "gic", "sic"):
            raise ValueError(f"unknown criterion {self.kind!r}")


AIC = Criterion("aic")
BIC = Criterion("bic")
GIC = Criterion("gic")
SIC = Criterion("sic")


@dataclass
class PathResult:
    """Per-budget solutions and scores plus the selected budget.

    ``chosen_s`` minimizes ``scores`` exactly; equal scores pick the
    smaller budget.  ``scores`` covers the whole grid; ``solutions`` does
    too for :func:`select_by_ic`, and ends at ``chosen_s`` for
    :func:`cross_validate`, whose full-data path stops there.
    """

    grid: tuple
    solutions: list
    scores: list
    chosen_s: int
    chosen: object


class PathAborted(RuntimeError):
    """A solve along the path failed; ``solutions`` holds the partial results."""

    def __init__(self, message, solutions):
        super().__init__(message)
        self.solutions = solutions


def _validate_grid(grid, n_units):
    grid = [int(_require_integer(s, "grid values")) for s in grid]
    if not grid:
        raise ValueError("empty sparsity grid")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("sparsity grid must be strictly increasing")
    if grid[0] < 1 or grid[-1] > n_units:
        raise ValueError(f"grid values must lie in 1..{n_units}")
    return grid


def solve_path(problem, grid, kind, config=None):
    """Solve the problem at every budget in the grid, smallest first.

    Each solve is warm-started from the previous solution (the first one
    uses ``config.warm_start`` as given).  A failing solve aborts the path
    with :class:`PathAborted` carrying the partial results.
    """
    cfg = config if config is not None else SolverConfig()
    grid = _validate_grid(grid, problem.view.n_units)
    solutions = []
    warm = cfg.warm_start
    for s in grid:
        prob_s = replace(problem, s=s)
        cfg_s = replace(cfg, warm_start=warm)
        try:
            sol = solve(kind, prob_s, cfg_s)
        except Exception as e:
            raise PathAborted(f"path aborted at s={s}: {e}", solutions) from e
        solutions.append(sol)
        warm = sol.params
    return solutions


def information_criterion(criterion, objective_value, s, n, p, objective_scale="nll"):
    """Penalized fit score; lower is better.

    aic = 2 f + 2 s
    bic = 2 f + s log n
    gic = 2 f + s log p log log n
    sic = n log(2 f / n) + 2 s log p log log n   (RSS-tagged objectives only)

    ``objective_value`` is the solver's final objective, read on the
    negative-log-likelihood scale for aic/bic/gic; sic requires the
    half-sum-of-squares scale (``objective_scale == "rss"``).  The sic
    penalty carries a factor 2: without it the threshold sits below the
    expected best spurious improvement at moderate n (the largest of ~p
    squared noise correlations concentrates near 2 log p, while
    log p log log n passes that level only for n beyond e^(e^2)), which
    makes the criterion over-select at benchmark sizes.  ``s``, ``n`` and
    ``p`` must be integers; a fractional count raises ValueError.
    """
    if isinstance(criterion, Criterion):
        kind = criterion.kind
    else:
        kind = str(criterion)
    f = float(objective_value)
    s = int(_require_integer(s, "s"))
    n = int(_require_integer(n, "n"))
    p = int(_require_integer(p, "p"))
    if n < 2:
        raise ValueError("information criteria need n >= 2")
    if p < 1:
        raise ValueError("p must be positive")
    if kind == "aic":
        return 2.0 * f + 2.0 * s
    if kind == "bic":
        return 2.0 * f + s * math.log(n)
    if kind in ("gic", "sic"):
        if n <= math.e:
            raise ValueError("log(log n) undefined for n <= e")
        penalty = s * math.log(p) * math.log(math.log(n))
        if kind == "gic":
            return 2.0 * f + penalty
        if objective_scale != "rss":
            raise ValueError("sic applies only to half-sum-of-squares (rss-tagged) objectives")
        if not f > 0.0:
            raise ValueError("sic undefined at zero residual")
        return n * math.log(2.0 * f / n) + 2.0 * penalty
    raise ValueError(f"criterion {kind!r} has no closed-form score")


def select_by_ic(problem, grid, kind, config=None, criterion=BIC):
    """Pick the budget minimizing an information criterion along a warm path."""
    if problem.n is None:
        raise ValueError("information criteria need the problem sample size n")
    grid = _validate_grid(grid, problem.view.n_units)
    solutions = solve_path(problem, grid, kind, config)
    scale = problem.oracle.scale
    scores = [
        information_criterion(criterion, sol.objective, s, problem.n, problem.p, scale)
        for s, sol in zip(grid, solutions)
    ]
    best = int(np.argmin(scores))  # first minimum: ties go to the smaller s
    return PathResult(tuple(grid), solutions, scores, grid[best], solutions[best])


def _fold_indices(n_rows, k, seed):
    rng = np.random.default_rng(0 if seed is None else seed)
    perm = rng.permutation(n_rows)
    return [np.sort(perm[j::k]) for j in range(k)]


def cross_validate(problem_factory, dataset, k, grid, kind, config=None):
    """K-fold selection of the budget.

    ``problem_factory`` maps a dataset (or any row-subsettable data
    object) to a ScoProblem over the same parameter space.  Rows are
    shuffled once with ``config.seed`` and dealt round-robin into K folds;
    for every budget the score is the mean over folds of the holdout
    objective at the parameters fitted on the complement.  The chosen
    solution is re-fitted on the full data along a warm path that stops
    at the chosen budget, so the result's ``solutions`` end there.
    """
    cfg = config if config is not None else SolverConfig()
    if _require_integer(k, "k") < 2:
        raise ValueError("cross-validation needs at least 2 folds")
    n_rows = dataset.n
    if n_rows < k:
        raise ValueError("fewer rows than folds would leave a fold empty")
    full_problem = problem_factory(dataset)
    grid = _validate_grid(grid, full_problem.view.n_units)
    folds = _fold_indices(n_rows, k, cfg.seed)
    losses = np.zeros((len(grid), k))
    all_rows = np.arange(n_rows)
    for j, holdout in enumerate(folds):
        if len(holdout) == 0:
            raise ValueError(f"fold {j} is empty")
        train = np.setdiff1d(all_rows, holdout)
        train_problem = problem_factory(dataset.subset(train))
        holdout_oracle = problem_factory(dataset.subset(holdout)).oracle
        path = solve_path(train_problem, grid, kind, cfg)
        for i, sol in enumerate(path):
            losses[i, j] = holdout_oracle.value(sol.params)
    scores = losses.mean(axis=1)
    best = int(np.argmin(scores))
    full_path = solve_path(full_problem, grid[:best + 1], kind, cfg)
    return PathResult(tuple(grid), full_path, [float(v) for v in scores],
                      grid[best], full_path[best])
