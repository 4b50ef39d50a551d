"""The benchmark's workloads: which datasets a seed makes, and which jobs
run on each dataset.

A job is one call a user would make: one ``solve``, one ``select_by_ic``
path or one ``cross_validate`` run.  A workload's job list runs on every
dataset of a run.  ``run_job`` makes that call through
``call(name, fn, args, kind=None)``, which is a plain call when untraced
and a span when traced.
"""

from __future__ import annotations

from dataclasses import dataclass

from sco import models, selection, solvers
from sco.problem import SolverConfig

SOLVE = "solvers.solve"
SELECT_BY_IC = "selection.select_by_ic"
CROSS_VALIDATE = "selection.cross_validate"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    n: int
    p: int
    s_true: int
    signal: float
    jobs: tuple  # (how, solver) with how in {"solve", "ic", "cv"}
    dataset_seconds: float  # rough untraced cost of one dataset, generation included, 2-core Xeon
    grid: tuple = ()  # sparsity grid of "ic" and "cv" jobs
    folds: int = 0  # folds of "cv" jobs
    reference: str = "tape"  # the reference block (reference.py) that scales its times

    def dataset_count(self, seconds):
        """Datasets a run of about ``seconds`` measures; fixed by ``seconds`` alone."""
        return max(3, round(seconds / self.dataset_seconds))

    def specs(self, seed, count):
        """Dataset specs of a run; the same seed and count give the same specs."""
        return [models.ModelSpec(self.kind, self.n, self.p, self.s_true, self.signal,
                                 seed % 2**31 * 10_000 + i)
                for i in range(count)]


WORKLOADS = {w.name: w for w in (
    # the paper's a2 experiment: time in full-p oracle calls, few small refits
    Workload("recovery-linear", "linear", 500, 1000, 10, 5.0,
             tuple(("solve", k) for k in ("omp", "iht", "htp", "grasp", "pdas", "scope")),
             dataset_seconds=0.17),
    # the only selection workload: warm GIC paths, and CV that rebuilds fold problems
    Workload("path-logistic", "logistic", 300, 40, 3, 0.5,
             (("ic", "scope"), ("ic", "omp"), ("cv", "scope")),
             dataset_seconds=0.36, grid=tuple(range(1, 6)), folds=2),
    # exact greedy: each round refits every inactive unit, so time is in tiny refits
    Workload("greedy-linear", "linear", 100, 60, 4, 5.0,
             (("solve", "forward"), ("solve", "foba")), dataset_seconds=0.55),
    # the stacked (n*q) x p pseudo-likelihood design: set-up, memory, column slices;
    # weak couplings keep refits off the precision floor, so per-dataset cost is steady;
    # its time is spent in numpy, which the dense reference block tracks
    Workload("ising-edges", "ising", 500, 190, 8, 0.3,
             tuple(("solve", k) for k in ("scope", "omp", "grasp")), dataset_seconds=0.28,
             reference="dense"),
)}


def run_job(workload, job, dataset, problem, factory, call):
    """Run one job; returns (solution, the budget the solution was solved at)."""
    how, kind = job
    if how == "solve":
        return call(SOLVE, solvers.solve, (kind, problem), kind=kind), problem.s
    config = SolverConfig(seed=dataset.spec.seed)
    if how == "ic":
        result = call(SELECT_BY_IC, selection.select_by_ic,
                      (problem, workload.grid, kind, config, selection.GIC))
    else:
        result = call(CROSS_VALIDATE, selection.cross_validate,
                      (factory, dataset, workload.folds, workload.grid, kind, config))
    return result.chosen, result.chosen_s
