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

:func:`solve` is the one entry point.  It owns what the solvers share:
the default config, the warm start, the clock, the trace, the restricted
refits and the returned :class:`~sco.problem.ScoSolution`.  Each solver
is a private rule that reads and updates one ``_Run`` and returns its
iteration count and convergence flag.

A solve is a pure function of (kind, problem, config): a shared immutable
problem can be solved concurrently.  Every solver ends with a restricted
refit of its final support and returns the best refit iterate it visited,
so the reported objective is always attained by the reported parameters.

Every round of forward and foba refits each change of one active set
(each inactive unit added, or each active unit dropped), and all those
refits start from one Hessian of the active set, taken once per round
(see ``_best_refit``).

Points known to be sparse are evaluated on their support through the
oracle's ``restricted`` oracles: line-search trials of iht and htp, and
refit iterates, whose objective the refit already holds.  Only start
points, warm starts and the returned parameters are evaluated at full
dimension.
"""

from __future__ import annotations

import enum
import time
from collections import namedtuple

import numpy as np

from .autodiff import EvaluationError, _vector
from .problem import (
    _ARMIJO,
    _MAX_BACKTRACKS,
    ScoProblem,
    ScoSolution,
    SolverConfig,
    _start_hessian,
    hard_threshold,
    project_feasible,
    restricted_minimize,
    top_units,
)

__all__ = ["SolverKind", "TraceEntry", "solve"]


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
_FOBA_BACKWARD_RATIO = 0.5  # share of the last forward gain a deletion may cost


class _Run:
    """One solve: its problem and config, the start point, the wall clock,
    the iteration trace, the best candidate and the unit sets seen.

    ``start`` is the warm start as given (zero without one).  With a warm
    start, ``warm`` holds its projection onto the budget as
    ``(objective, params, units)``, which is offered as the first
    candidate; otherwise ``warm`` is None.
    """

    def __init__(self, problem, cfg):
        self.problem = problem
        self.cfg = cfg
        self.t0 = time.perf_counter()
        self.trace = []
        self.best = None  # (objective, params, units)
        self.prev_units = None
        self.seen = set()
        self.warm = None
        if cfg.warm_start is None:
            self.start = np.zeros(problem.p)
            return
        self.start = _vector(cfg.warm_start, problem.p, "warm_start")
        w = project_feasible(self.start, problem)
        self.warm = (problem.oracle.value(w), w, problem.view.units_with_support(w))
        self.offer(*self.warm)

    def refit(self, units, x, hessian=None):
        """Restricted refit over the units plus preselection, from x masked there."""
        init, keep = self.problem.mask(x, units)
        return restricted_minimize(self.problem, keep, init, self.cfg, hessian)

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

    def revisits(self, units):
        """Record a unit set; True when it was recorded before."""
        key = np.asarray(units, dtype=int).tobytes()
        if key in self.seen:
            return True
        self.seen.add(key)
        return False

    def solution(self, iterations, converged):
        _, x, units = self.best
        params = np.array(x, dtype=float)
        return ScoSolution(
            params=params,
            support=self.problem.view.coords_of(units),
            objective=self.problem.oracle.value(params),
            iterations=iterations,
            converged=converged,
            runtime=time.perf_counter() - self.t0,
            trace=self.trace,
        )


def _initial_units(run):
    """Size-s starting active set.

    Warm starts contribute their nonzero units (largest norms first); any
    remaining slots are filled by the units with the largest gradient
    norms at the warm point.  Without a warm start this reduces to the
    top-s gradient units at the preselection-only minimizer.
    """
    problem = run.problem
    view, s = problem.view, problem.s
    if run.warm is not None:
        norms = view.unit_norms(run.start)
        nz = np.flatnonzero(norms > 0.0)
        if len(nz) >= s:
            return top_units(norms, s)
        g = problem.oracle.gradient(problem.mask(run.start, nz)[0])
        gn = view.unit_norms(g)
        gn[nz] = -np.inf
        extra = top_units(gn, s - len(nz))
        return np.sort(np.concatenate([nz, extra]))
    base = run.refit(_EMPTY, run.start)
    g = problem.oracle.gradient(base.params)
    return top_units(view.unit_norms(g), s)


def _best_refit(run, theta, base, changes):
    """Refit each ``(unit, units)`` change of the unit set ``base`` from
    theta; the unit and refit of the first lowest objective.

    Every refit starts from one Hessian: H over the coordinates P of
    ``base`` plus preselection, taken once at theta by |P| forward
    differences of the restricted gradient, as a :class:`StartHessian`
    (see ``restricted_minimize``'s ``hessian``).  A refit that adds a
    unit differences only that unit's columns and borders H^-1 by them;
    one that drops a unit starts from the inverse of H's block over what
    is left, with no difference calls.  Each is still a full refit under
    the same stop rule, so the choice is the one plain refits make, and
    the chosen change is refit once more without H: the round returns
    the plain refit, bit for bit.  With |P| of ``_NEWTON_MAX_DIM`` or
    more, or no Cholesky factor of H, the refits run without it.
    """
    start = _start_hessian(run.problem, base, theta)
    best_u, best_units, best_res = -1, None, None
    for u, units in changes:
        res = run.refit(units, theta, start)
        if best_res is None or res.objective < best_res.objective:
            best_u, best_units, best_res = int(u), units, res
    if start is not None:
        best_res = run.refit(best_units, theta)
    return best_u, best_res


def _greedy_add(run, theta, active_mask):
    """Exact forward step: refit every inactive unit, keep the best one."""
    current = np.flatnonzero(active_mask)
    return _best_refit(run, theta, current, ((u, np.sort(np.append(current, u)))
                                             for u in np.flatnonzero(~active_mask)))


def _forward(run):
    """Exact greedy forward selection: s rounds, each adding the inactive
    unit whose refit lowers the objective the most."""
    problem = run.problem
    theta = run.refit(_EMPTY, run.start).params
    active = np.zeros(problem.view.n_units, dtype=bool)
    rounds = min(problem.s, run.cfg.max_iter)
    for r in range(1, rounds + 1):
        u, res = _greedy_add(run, theta, active)
        active[u] = True
        theta = res.params
        run.accept(r, res, np.flatnonzero(active))
    return rounds, rounds == problem.s


def _omp(run):
    """Orthogonal matching pursuit: add the inactive unit with the largest
    gradient norm, then re-minimize over the enlarged support."""
    problem = run.problem
    theta = run.start
    active = np.zeros(problem.view.n_units, dtype=bool)
    rounds = min(problem.s, run.cfg.max_iter)
    for r in range(1, rounds + 1):
        g = problem.oracle.gradient(theta)
        scores = problem.view.unit_norms(g)
        scores[active] = -np.inf
        u = int(np.argmax(scores))
        active[u] = True
        units = np.flatnonzero(active)
        res = run.refit(units, theta)
        theta = res.params
        run.accept(r, res, units)
    return rounds, rounds == problem.s


def _backtrack_threshold(problem, theta, f, g):
    """Backtracked projected gradient step shared by iht and htp.

    Halves the step, from 1.0, until the hard-thresholded point satisfies
    an Armijo decrease measured by the gradient restricted to the new
    support, or gives up after ``_MAX_BACKTRACKS`` halvings.  Each trial is
    evaluated on its support; consecutive trials on the same support share
    one restricted oracle.  A trial whose evaluation raises
    :class:`~sco.autodiff.EvaluationError` counts as rejected.
    """
    eta = 1.0
    keep_prev = None
    for _ in range(_MAX_BACKTRACKS + 1):
        trial = theta - eta * g
        units = hard_threshold(trial, problem.s, problem.view)
        point, keep = problem.mask(trial, units)
        if not np.array_equal(keep, keep_prev):
            keep_prev, sub = keep, problem.oracle.restricted(keep)
        try:
            f_trial = sub.value(point[keep])
        except EvaluationError:
            f_trial = np.inf
        g_restricted = g[keep]
        if f_trial <= f - _ARMIJO * eta * float(g_restricted @ g_restricted):
            return units, point, f_trial
        eta *= 0.5
    return None


def _iht(run):
    """Iterative hard thresholding: project the backtracked gradient step
    onto the budget; stop once the objective improvement falls below tol."""
    problem = run.problem
    f, theta, units = run.warm or (problem.oracle.value(run.start), run.start, _EMPTY)
    converged = False
    it = 0
    while it < run.cfg.max_iter:
        it += 1
        g = problem.oracle.gradient(theta)
        step = _backtrack_threshold(problem, theta, f, g)
        if step is None:
            break  # line search exhausted; keep the best iterate
        units_new, theta_new, f_new = step
        run.note(it, f_new, units_new)
        gap = abs(f - f_new)
        theta, f, units = theta_new, f_new, units_new
        if gap <= run.cfg.tol:
            converged = True
            break
    run.offer(f, theta, units)
    res = run.refit(units, theta)
    run.offer(res.objective, res.params, units)
    return it, converged


def _htp(run):
    """Hard-thresholding pursuit: support from the backtracked projected
    gradient step, parameters from a full refit; stops when the support
    stabilizes (revisiting an older support counts as a failed cycle)."""
    problem = run.problem
    f, theta, units = run.warm or (problem.oracle.value(run.start), run.start, _EMPTY)
    run.revisits(units)
    converged = False
    it = 0
    while it < run.cfg.max_iter:
        it += 1
        g = problem.oracle.gradient(theta)
        step = _backtrack_threshold(problem, theta, f, g)
        if step is None:
            break
        units_new, point, _ = step
        if run.revisits(units_new):  # unchanged, or a cycle back to an older set
            converged = np.array_equal(units_new, units)
            break
        res = run.refit(units_new, point)
        theta = res.params
        f = run.accept(it, res, units_new)
        units = units_new
    if run.best is None:  # never left the start: report its refit
        res = run.refit(units, theta)
        run.offer(res.objective, res.params, units)
    return it, converged


def _grasp(run):
    """Gradient support pursuit: merge the top-2s gradient units with the
    current support, refit, prune back to s units, then debias; stops when
    the support stabilizes (an older support coming back is a cycle)."""
    problem = run.problem
    view = problem.view
    _, theta, units = run.warm or (None, run.start, _EMPTY)
    run.revisits(units)
    converged = False
    it = 0
    while it < run.cfg.max_iter:
        it += 1
        g = problem.oracle.gradient(theta)
        wide = top_units(view.unit_norms(g), min(2 * problem.s, view.n_units))
        merged = np.union1d(wide, units)
        res_merged = run.refit(merged, theta)
        units_new = hard_threshold(res_merged.params, problem.s, view)
        res = run.refit(units_new, res_merged.params)
        theta = res.params
        run.accept(it, res, units_new)
        if run.revisits(units_new):  # unchanged, or a cycle back to an older set
            converged = np.array_equal(units_new, units)
            break
        units = units_new
    return it, converged


def _pdas(run):
    """Active-set fixed point: refit the active set, then rescore every
    unit (actives by coefficient norm, inactives by the last accepted
    line-search step times their gradient norm) and keep the top s."""
    problem = run.problem
    view = problem.view
    units = _initial_units(run)
    theta = run.start
    run.revisits(units)
    eta = 1.0
    converged = False
    it = 0
    while it < run.cfg.max_iter:
        it += 1
        res = run.refit(units, theta)
        theta = res.params
        if res.last_step is not None:
            eta = res.last_step
        run.accept(it, res, units)
        g = problem.oracle.gradient(theta)
        active = np.zeros(view.n_units, dtype=bool)
        active[units] = True
        scores = np.where(active, view.unit_norms(theta), eta * view.unit_norms(g))
        units_new = top_units(scores, problem.s)
        if run.revisits(units_new):  # unchanged, or a cycle back to an older set
            converged = np.array_equal(units_new, units)
            break
        units = units_new
    return it, converged


def _foba(run):
    """Forward-backward greedy: exact forward steps recording their gain,
    then backward deletions accepted while the objective increase stays
    below half the last forward gain.  The trace records one entry per
    forward round, net of its backward deletions.  A round that ends on
    the active set of an earlier round (or on the empty start) is a
    cycle: foba stops without claiming convergence."""
    problem = run.problem
    base = run.refit(_EMPTY, run.start)
    theta = base.params
    f_cur = run.offer(base.objective, theta, _EMPTY)
    active = np.zeros(problem.view.n_units, dtype=bool)
    run.revisits(_EMPTY)
    delta_last = None
    rounds = 0
    while int(active.sum()) < problem.s and rounds < run.cfg.max_iter:
        rounds += 1
        u, res = _greedy_add(run, theta, active)
        active[u] = True
        theta = res.params
        f_new = run.offer(res.objective, theta, np.flatnonzero(active))
        delta_last = f_cur - f_new
        f_cur = f_new
        # backward sweep: drop the cheapest active unit while cheap enough
        while active.any():
            units = np.flatnonzero(active)
            best_u, best_res = _best_refit(run, theta, units,
                                           ((v, units[units != v]) for v in units))
            if best_res.objective - f_cur > _FOBA_BACKWARD_RATIO * delta_last:
                break
            active[best_u] = False
            theta = best_res.params
            f_cur = run.offer(best_res.objective, theta, np.flatnonzero(active))
        units = np.flatnonzero(active)
        run.note(rounds, f_cur, units)
        if run.revisits(units):
            return rounds, False
    return rounds, int(active.sum()) == problem.s or not (~active).any()


def _scope(run):
    """Splicing: starting from a size-s active set, repeatedly swap the k
    lowest-sacrifice active units (squared coefficient norm) for the k
    highest-sacrifice inactive units (squared gradient norm), k counting
    down from s, accepting the first swap that beats the current objective
    by more than tol; stop when no swap size helps."""
    problem = run.problem
    view = problem.view
    units = _initial_units(run)
    res = run.refit(units, run.start)
    theta = res.params
    f_cur = run.accept(0, res, units)
    converged = False
    it = 0
    while it < run.cfg.max_iter:
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
            res = run.refit(cand, theta)
            if res.objective < f_cur - run.cfg.tol:
                units = cand
                theta = res.params
                f_cur = run.accept(it, res, units)
                improved = True
                break
        if not improved:
            converged = True
            break
    return it, converged


_REGISTRY = {
    SolverKind.FORWARD: _forward,
    SolverKind.OMP: _omp,
    SolverKind.IHT: _iht,
    SolverKind.HTP: _htp,
    SolverKind.GRASP: _grasp,
    SolverKind.PDAS: _pdas,
    SolverKind.FOBA: _foba,
    SolverKind.SCOPE: _scope,
}


def solve(kind, problem, config=None):
    """Run one solver on one problem.

    Parameters
    ----------
    kind : SolverKind or str
        One of forward, omp, iht, htp, grasp, pdas, foba, scope.
    problem : ScoProblem
    config : SolverConfig, optional
        ``warm_start``, when given, must have shape ``(p,)``.  Its
        projection onto the budget (the top-s units plus preselection) is
        the first candidate solution, so a warm-started solve never
        returns a higher objective than that projection.  It also seeds
        the solver: iht, htp and grasp start from the projection; omp
        takes its first gradient at the warm start itself; forward and
        foba start their empty-support refit from its preselected
        coordinates; pdas and scope take its nonzero units (filled up by
        gradient norms) as their first active set.

    Returns
    -------
    ScoSolution
        Parameters are exactly zero off the selected units plus
        preselection; at most s units are selected; the stored objective
        equals a fresh oracle evaluation of the parameters; ``runtime``
        is the solve's wall time.
    """
    rule = _REGISTRY[SolverKind(kind)]
    if not isinstance(problem, ScoProblem):
        raise TypeError("problem must be a ScoProblem")
    run = _Run(problem, config if config is not None else SolverConfig())
    iterations, converged = rule(run)
    return run.solution(iterations, converged)
