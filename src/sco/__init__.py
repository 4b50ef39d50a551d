"""Sparsity-constrained optimization toolkit.

Solve argmin f(theta) subject to at most s nonzero parameter units, for
any objective written against the bundled reverse-mode autodiff operation
set.  Eight iterative solvers share one problem/oracle contract; the
sparsity level can be chosen by information criteria or cross-validation;
a benchmark harness reproduces the support-recovery experiments.
"""

from .autodiff import (
    EvaluationError,
    ObjectiveOracle,
    ProgramError,
    Tape,
    Var,
    build_objective,
    cumsum,
    dot,
    exp,
    fd_gradient,
    log,
    log1pexp,
    logistic,
    norm,
    sqnorm,
    sqrt,
    vsum,
)
from .problem import (
    GroupView,
    RestrictedResult,
    ScoProblem,
    ScoSolution,
    SolverConfig,
    hard_threshold,
    project_feasible,
    restricted_minimize,
    validate_solution,
)
from .selection import (
    AIC,
    BIC,
    GIC,
    SIC,
    Criterion,
    PathAborted,
    PathResult,
    cross_validate,
    information_criterion,
    select_by_ic,
    solve_path,
)
from .solvers import SolverKind, TraceEntry, solve
from . import bench, models

__version__ = "0.1.0"

__all__ = [
    "EvaluationError", "ObjectiveOracle", "ProgramError", "Tape", "Var",
    "build_objective", "fd_gradient",
    "exp", "log", "sqrt", "logistic", "log1pexp", "dot", "sqnorm", "norm",
    "vsum", "cumsum",
    "GroupView", "RestrictedResult", "ScoProblem", "ScoSolution", "SolverConfig",
    "hard_threshold", "project_feasible", "restricted_minimize", "validate_solution",
    "SolverKind", "TraceEntry", "solve",
    "Criterion", "AIC", "BIC", "GIC", "SIC",
    "PathResult", "PathAborted", "solve_path", "information_criterion",
    "select_by_ic", "cross_validate",
    "bench", "models",
]
