"""Eight iterative solvers for the sparsity-constrained problem.

========  ==========================================================
forward   exact greedy forward selection (try every inactive unit)
omp       orthogonal matching pursuit: gradient screening + refit
iht       iterative hard thresholding: backtracked projected gradient
htp       hard-thresholding pursuit: projected gradient + full refit
grasp     gradient support pursuit: 2s-screen, refit, prune, debias
pdas      active-set swaps scored by coefficients vs scaled gradients
foba      forward steps with adaptive backward deletions
scope     splicing: swap low-sacrifice actives for high-sacrifice
          inactives whenever that lowers the objective
========  ==========================================================

All routines are pure functions of (problem, config): a shared immutable
problem can be solved concurrently.  Every solver ends with a restricted
refit of its final support and returns the best refit iterate it visited,
so the reported objective is always attained by the reported parameters.

Points known to be sparse are evaluated on their support through the
oracle's ``restricted`` hook (the full oracle when there is none):
line-search trials of iht and htp, and refit iterates, whose objective the
refit already holds.  Only start points, warm starts and the returned
parameters are evaluated at full dimension.
"""

from __future__ import annotations

import enum
import time
from collections import namedtuple

import numpy as np

from .problem import (
    ScoProblem,
    ScoSolution,
    SolverConfig,
    hard_threshold,
    project_feasible,
    restricted_minimize,
    top_units,
)

__all__ = ["SolverKind", "TraceEntry", "solve", "solve_forward", "solve_omp",
           "solve_iht", "solve_htp", "solve_grasp", "solve_pdas", "solve_foba",
           "solve_scope"]


class SolverKind(str, enum.Enum):
    FORWARD = "forward"
    OMP = "omp"
    IHT = "iht"
    HTP = "htp"
    GRASP = "grasp"
    PDAS = "pdas"
    FOBA = "foba"
    SCOPE = "scope"


TraceEntry = namedtuple("TraceEntry", ["iteration", "objective", "support_change"])

_EMPTY = np.asarray([], dtype=int)


def _mask_to(problem, x, units):
    """Copy of x zeroed outside the given units plus preselection."""
    keep = np.union1d(problem.view.coords_of(units), problem.preselect)
    out = np.zeros(problem.p)
    out[keep] = np.asarray(x, dtype=float)[keep]
    return out


def _refit(problem, units, init, config):
    coords = problem.view.coords_of(np.asarray(units, dtype=int))
    return restricted_minimize(problem, coords, init, config)


class _Run:
    """Per-solve bookkeeping: wall clock, iteration trace, best refit seen."""

    def __init__(self, problem):
        self.problem = problem
        self.t0 = time.perf_counter()
        self.trace = []
        self.best = None  # (objective, params, units)
        self.prev_units = None

    def full_value(self, x):
        return self.problem.oracle.value(x)

    def offer(self, f, x, units):
        if self.best is None or f < self.best[0]:
            self.best = (f, x, np.asarray(units, dtype=int))
        return f

    def note(self, iteration, f, units):
        prev = self.prev_units if self.prev_units is not None else _EMPTY
        change = len(np.setxor1d(units, prev))
        self.trace.append(TraceEntry(iteration, f, change))
        self.prev_units = np.asarray(units, dtype=int)

    def accept(self, iteration, res, units):
        """Offer and trace a refit result at the objective it computed."""
        f = self.offer(res.objective, res.params, units)
        self.note(iteration, f, units)
        return f

    def solution(self, iterations, converged):
        _, x, units = self.best
        params = np.array(x, dtype=float)
        return ScoSolution(
            params=params,
            support=self.problem.view.coords_of(units),
            objective=self.full_value(params),
            iterations=iterations,
            converged=converged,
            runtime=time.perf_counter() - self.t0,
            trace=self.trace,
        )


def _start_point(problem, config):
    if config.warm_start is not None:
        w = np.asarray(config.warm_start, dtype=float)
        if w.shape != (problem.p,):
            raise ValueError("warm_start has the wrong shape")
        return w
    return np.zeros(problem.p)


def _offer_warm(run, problem, config):
    # a warm start is itself a feasible candidate: never return worse
    if config.warm_start is None:
        return
    w = project_feasible(np.asarray(config.warm_start, dtype=float), problem)
    run.offer(run.full_value(w), w, problem.view.units_with_support(w))


def _initial_units(problem, config):
    """Size-s starting active set.

    Warm starts contribute their nonzero units (largest norms first); any
    remaining slots are filled by the units with the largest gradient
    norms at the warm point.  Without a warm start this reduces to the
    top-s gradient units at the preselection-only minimizer.
    """
    view, s = problem.view, problem.s
    w = config.warm_start
    if w is not None:
        norms = view.unit_norms(w)
        nz = np.flatnonzero(norms > 0.0)
        if len(nz) >= s:
            return top_units(norms, s)
        x0 = _mask_to(problem, np.asarray(w, dtype=float), nz)
        g = problem.oracle.gradient(x0)
        gn = view.unit_norms(g)
        gn[nz] = -np.inf
        extra = top_units(gn, s - len(nz))
        return np.sort(np.concatenate([nz, extra]))
    base = restricted_minimize(problem, _EMPTY, None, config)
    g = problem.oracle.gradient(base.params)
    return top_units(view.unit_norms(g), s)


def _greedy_add(problem, theta, active_mask, config):
    """Exact forward step: refit every inactive unit, keep the best one."""
    best_f = np.inf
    best_u = -1
    best_res = None
    current = np.flatnonzero(active_mask)
    for u in np.flatnonzero(~active_mask):
        cand = np.sort(np.append(current, u))
        init = _mask_to(problem, theta, cand)
        res = _refit(problem, cand, init, config)
        if res.objective < best_f:
            best_f, best_u, best_res = res.objective, int(u), res
    return best_u, best_res


def solve_forward(problem, config=None):
    """Exact greedy forward selection: s rounds, each adding the inactive
    unit whose refit lowers the objective the most."""
    cfg = config if config is not None else SolverConfig()
    run = _Run(problem)
    _offer_warm(run, problem, cfg)
    theta = _start_point(problem, cfg)
    base = restricted_minimize(problem, _EMPTY, _mask_to(problem, theta, _EMPTY), cfg)
    theta = base.params
    active = np.zeros(problem.view.n_units, dtype=bool)
    rounds = min(problem.s, cfg.max_iter)
    for r in range(1, rounds + 1):
        u, res = _greedy_add(problem, theta, active, cfg)
        active[u] = True
        theta = res.params
        run.accept(r, res, np.flatnonzero(active))
    return run.solution(iterations=rounds, converged=rounds == problem.s)


def solve_omp(problem, config=None):
    """Orthogonal matching pursuit: add the inactive unit with the largest
    gradient norm, then re-minimize over the enlarged support."""
    cfg = config if config is not None else SolverConfig()
    run = _Run(problem)
    _offer_warm(run, problem, cfg)
    theta = _start_point(problem, cfg)
    active = np.zeros(problem.view.n_units, dtype=bool)
    rounds = min(problem.s, cfg.max_iter)
    for r in range(1, rounds + 1):
        g = problem.oracle.gradient(theta)
        scores = problem.view.unit_norms(g)
        scores[active] = -np.inf
        u = int(np.argmax(scores))
        active[u] = True
        units = np.flatnonzero(active)
        res = _refit(problem, units, _mask_to(problem, theta, units), cfg)
        theta = res.params
        run.accept(r, res, units)
    return run.solution(iterations=rounds, converged=rounds == problem.s)


def _backtrack_threshold(problem, theta, f, g, cfg):
    """Backtracked projected gradient step shared by iht and htp.

    Halves the step until the hard-thresholded point satisfies an Armijo
    decrease measured by the gradient restricted to the new support, or
    gives up after 50 halvings.  Each trial is evaluated on its support.
    """
    eta = cfg.step_size if cfg.step_size is not None else 1.0
    view, oracle = problem.view, problem.oracle
    for _ in range(51):
        trial = theta - eta * g
        units = hard_threshold(trial, problem.s, view)
        keep = np.union1d(view.coords_of(units), problem.preselect)
        point = np.zeros(problem.p)
        point[keep] = trial[keep]
        sub = oracle.restricted(keep)
        f_trial = sub.value(trial[keep]) if sub is not None else oracle.value(point)
        g_restricted = g[keep]
        if f_trial <= f - 1e-4 * eta * float(g_restricted @ g_restricted):
            return eta, units, point, f_trial
        eta *= 0.5
    return None


def solve_iht(problem, config=None):
    """Iterative hard thresholding: project the backtracked gradient step
    onto the budget; stop once the objective improvement falls below tol."""
    cfg = config if config is not None else SolverConfig()
    run = _Run(problem)
    theta = _start_point(problem, cfg)
    if cfg.warm_start is not None:
        theta = project_feasible(theta, problem)
    f = run.full_value(theta)
    units = problem.view.units_with_support(theta)
    if cfg.warm_start is not None:
        run.offer(f, theta, units)
    converged = False
    it = 0
    while it < cfg.max_iter:
        it += 1
        g = problem.oracle.gradient(theta)
        step = _backtrack_threshold(problem, theta, f, g, cfg)
        if step is None:
            break  # line search exhausted; keep the best iterate
        _, units_new, theta_new, f_new = step
        run.note(it, f_new, units_new)
        gap = abs(f - f_new)
        theta, f, units = theta_new, f_new, units_new
        if gap <= cfg.tol:
            converged = True
            break
    run.offer(f, theta, units)
    res = _refit(problem, units, theta, cfg)
    run.offer(res.objective, res.params, units)
    return run.solution(iterations=it, converged=converged)


def solve_htp(problem, config=None):
    """Hard-thresholding pursuit: support from the backtracked projected
    gradient step, parameters from a full refit; stops when the support
    stabilizes (revisiting an older support counts as a failed cycle)."""
    cfg = config if config is not None else SolverConfig()
    run = _Run(problem)
    theta = _start_point(problem, cfg)
    if cfg.warm_start is not None:
        theta = project_feasible(theta, problem)
    f = run.full_value(theta)
    units = problem.view.units_with_support(theta)
    if cfg.warm_start is not None:
        run.offer(f, theta, units)
    visited = {units.tobytes()}
    converged = False
    it = 0
    while it < cfg.max_iter:
        it += 1
        g = problem.oracle.gradient(theta)
        step = _backtrack_threshold(problem, theta, f, g, cfg)
        if step is None:
            break
        _, units_new, point, _ = step
        if np.array_equal(units_new, units):
            converged = True
            break
        key = units_new.tobytes()
        if key in visited:
            break  # support cycle: stop without claiming convergence
        visited.add(key)
        res = _refit(problem, units_new, point, cfg)
        theta = res.params
        f = run.accept(it, res, units_new)
        units = units_new
    if run.best is None:  # never left the start: report its refit
        res = _refit(problem, units, theta, cfg)
        run.offer(res.objective, res.params, units)
    return run.solution(iterations=it, converged=converged)


def solve_grasp(problem, config=None):
    """Gradient support pursuit: merge the top-2s gradient units with the
    current support, refit, prune back to s units, then debias."""
    cfg = config if config is not None else SolverConfig()
    run = _Run(problem)
    view = problem.view
    theta = _start_point(problem, cfg)
    if cfg.warm_start is not None:
        theta = project_feasible(theta, problem)
        run.offer(run.full_value(theta), theta, view.units_with_support(theta))
    units = view.units_with_support(theta)
    converged = False
    it = 0
    while it < cfg.max_iter:
        it += 1
        g = problem.oracle.gradient(theta)
        wide = top_units(view.unit_norms(g), min(2 * problem.s, view.n_units))
        merged = np.union1d(wide, units)
        res_merged = _refit(problem, merged, _mask_to(problem, theta, merged), cfg)
        units_new = hard_threshold(res_merged.params, problem.s, view)
        res = _refit(problem, units_new, _mask_to(problem, res_merged.params, units_new), cfg)
        theta = res.params
        run.accept(it, res, units_new)
        if np.array_equal(units_new, units):
            converged = True
            break
        units = units_new
    return run.solution(iterations=it, converged=converged)


def solve_pdas(problem, config=None):
    """Active-set fixed point: refit the active set, then rescore every
    unit (actives by coefficient norm, inactives by the last accepted
    line-search step times their gradient norm) and keep the top s."""
    cfg = config if config is not None else SolverConfig()
    run = _Run(problem)
    _offer_warm(run, problem, cfg)
    view = problem.view
    units = _initial_units(problem, cfg)
    theta = _mask_to(problem, _start_point(problem, cfg), units)
    visited = {units.tobytes()}
    eta = 1.0
    converged = False
    it = 0
    while it < cfg.max_iter:
        it += 1
        res = _refit(problem, units, _mask_to(problem, theta, units), cfg)
        theta = res.params
        if res.last_step is not None:
            eta = res.last_step
        run.accept(it, res, units)
        g = problem.oracle.gradient(theta)
        active = np.zeros(view.n_units, dtype=bool)
        active[units] = True
        scores = np.where(active, view.unit_norms(theta), eta * view.unit_norms(g))
        units_new = top_units(scores, problem.s)
        if np.array_equal(units_new, units):
            converged = True
            break
        key = units_new.tobytes()
        if key in visited:
            break  # revisited an earlier active set: cycle, stop
        visited.add(key)
        units = units_new
    return run.solution(iterations=it, converged=converged)


def solve_foba(problem, config=None):
    """Forward-backward greedy: exact forward steps recording their gain,
    then backward deletions accepted while the objective increase stays
    below ``foba_backward_ratio`` times the last forward gain.  The trace
    records one entry per forward round, net of its backward deletions."""
    cfg = config if config is not None else SolverConfig()
    run = _Run(problem)
    _offer_warm(run, problem, cfg)
    theta = _start_point(problem, cfg)
    base = restricted_minimize(problem, _EMPTY, _mask_to(problem, theta, _EMPTY), cfg)
    theta = base.params
    f_cur = run.offer(base.objective, theta, _EMPTY)
    active = np.zeros(problem.view.n_units, dtype=bool)
    delta_last = None
    rounds = 0
    while int(active.sum()) < problem.s and rounds < cfg.max_iter:
        rounds += 1
        u, res = _greedy_add(problem, theta, active, cfg)
        active[u] = True
        theta = res.params
        f_new = run.offer(res.objective, theta, np.flatnonzero(active))
        delta_last = f_cur - f_new
        f_cur = f_new
        # backward sweep: drop the cheapest active unit while cheap enough
        while active.any():
            units = np.flatnonzero(active)
            best_inc, best_u, best_res = np.inf, -1, None
            for v in units:
                reduced = units[units != v]
                res_v = _refit(problem, reduced, _mask_to(problem, theta, reduced), cfg)
                if res_v.objective - f_cur < best_inc:
                    best_inc = res_v.objective - f_cur
                    best_u, best_res = int(v), res_v
            if best_inc > cfg.foba_backward_ratio * delta_last:
                break
            active[best_u] = False
            theta = best_res.params
            f_cur = run.offer(best_res.objective, theta, np.flatnonzero(active))
        run.note(rounds, f_cur, np.flatnonzero(active))
    done = int(active.sum()) == problem.s or not (~active).any()
    return run.solution(iterations=rounds, converged=done)


def solve_scope(problem, config=None):
    """Splicing: starting from a size-s active set, repeatedly swap the k
    lowest-sacrifice active units (squared coefficient norm) for the k
    highest-sacrifice inactive units (squared gradient norm), k counting
    down from s, accepting the first swap that beats the current objective
    by more than tol; stop when no swap size helps."""
    cfg = config if config is not None else SolverConfig()
    run = _Run(problem)
    _offer_warm(run, problem, cfg)
    view = problem.view
    units = _initial_units(problem, cfg)
    init = _mask_to(problem, _start_point(problem, cfg), units)
    res = _refit(problem, units, init, cfg)
    theta = res.params
    f_cur = run.accept(0, res, units)
    converged = False
    it = 0
    while it < cfg.max_iter:
        it += 1
        g = problem.oracle.gradient(theta)
        coef_sac = np.square(view.unit_norms(theta))
        grad_sac = np.square(view.unit_norms(g))
        inactive = np.setdiff1d(np.arange(view.n_units), units, assume_unique=False)
        drop_order = units[np.argsort(coef_sac[units], kind="stable")]
        add_order = inactive[np.argsort(-grad_sac[inactive], kind="stable")]
        k_max = min(problem.s, len(inactive))
        improved = False
        for k in range(k_max, 0, -1):
            cand = np.sort(np.concatenate([np.setdiff1d(units, drop_order[:k]), add_order[:k]]))
            res = _refit(problem, cand, _mask_to(problem, theta, cand), cfg)
            if res.objective < f_cur - cfg.tol:
                units = cand
                theta = res.params
                f_cur = run.accept(it, res, units)
                improved = True
                break
        if not improved:
            converged = True
            break
    return run.solution(iterations=it, converged=converged)


_REGISTRY = {
    SolverKind.FORWARD: solve_forward,
    SolverKind.OMP: solve_omp,
    SolverKind.IHT: solve_iht,
    SolverKind.HTP: solve_htp,
    SolverKind.GRASP: solve_grasp,
    SolverKind.PDAS: solve_pdas,
    SolverKind.FOBA: solve_foba,
    SolverKind.SCOPE: solve_scope,
}


def solve(kind, problem, config=None):
    """Run one solver on one problem.

    Parameters
    ----------
    kind : SolverKind or str
        One of forward, omp, iht, htp, grasp, pdas, foba, scope.
    problem : ScoProblem
    config : SolverConfig, optional

    Returns
    -------
    ScoSolution
        Parameters are exactly zero off the selected units plus
        preselection; at most s units are selected; the stored objective
        equals a fresh oracle evaluation of the parameters.
    """
    routine = _REGISTRY[SolverKind(kind)]
    if not isinstance(problem, ScoProblem):
        raise TypeError("problem must be a ScoProblem")
    return routine(problem, config)
