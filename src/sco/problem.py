"""Problem and solution types plus the active-set building blocks every
solver shares: selectable-unit bookkeeping (groups, preselected
coordinates), hard thresholding onto the sparsity budget, and a
minimizer over a fixed support: limited-memory quasi-Newton steps, and
Newton steps with a Hessian from gradient differences once the first
step shows the restricted objective quadratic (least squares, trend
filtering), or from the first step on when the caller supplies a nearby
support's Hessian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .autodiff import (EvaluationError, ObjectiveOracle, _integer_indices, _require_integer,
                       _vector)

__all__ = [
    "SolverConfig",
    "GroupView",
    "ScoProblem",
    "ScoSolution",
    "RestrictedResult",
    "StartHessian",
    "hard_threshold",
    "top_units",
    "project_feasible",
    "restricted_minimize",
    "validate_solution",
]


@dataclass(frozen=True)
class SolverConfig:
    """Shared solver knobs.

    ``max_iter`` and ``tol`` bound and stop a solver's outer loop;
    ``inner_max_iter`` and ``inner_tol`` do the same for each restricted
    refit (see :func:`restricted_minimize`).  ``warm_start``, a length-p
    vector, is a first candidate solution and seeds the solver's start
    point or active set (see :func:`sco.solvers.solve`).  ``seed``
    shuffles the folds of :func:`sco.selection.cross_validate`.
    """

    max_iter: int = 100
    tol: float = 1e-8
    inner_max_iter: int = 100
    inner_tol: float = 1e-8
    seed: Optional[int] = None
    warm_start: Optional[np.ndarray] = None

    def __post_init__(self):
        _require_integer(self.max_iter, "max_iter")
        _require_integer(self.inner_max_iter, "inner_max_iter")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.inner_max_iter < 1:
            raise ValueError("inner_max_iter must be at least 1")
        if not self.tol > 0.0 or not self.inner_tol > 0.0:
            raise ValueError("tolerances must be positive")


class GroupView:
    """Selectable units of a problem.

    A unit is a group of coordinates (or a single coordinate when the
    problem is ungrouped); units partition {0..p-1} minus the preselected
    coordinates, numbered in order of group id, and the sparsity budget
    counts units.  The view owns every rule on its inputs, and anything
    else raises ValueError: ``p`` is an integer, at least 1; ``preselect``
    (coordinates) and ``groups`` (one id per coordinate) are 1-D integer
    arrays with entries in 0..p-1; the group ids are 0..G-1, each one
    present; each group is wholly preselected or wholly selectable; and at
    least one selectable unit remains.  The view keeps ``preselect``,
    sorted and unique, and ``groups`` (None when ungrouped).
    """

    def __init__(self, p, groups=None, preselect=None):
        self.p = int(_require_integer(p, "p"))
        if self.p < 1:
            raise ValueError("dimension p must be at least 1")
        pre = _integer_indices([] if preselect is None else preselect, "preselect indices", self.p)
        selectable = np.ones(self.p, dtype=bool)
        selectable[pre] = False
        self._sel = np.flatnonzero(selectable)
        if not len(self._sel):
            raise ValueError("preselect must leave at least one selectable unit")
        self.preselect = np.flatnonzero(~selectable)
        self.unit_of = unit_of = np.full(self.p, -1, dtype=int)
        self.singleton = groups is None
        if self.singleton:
            self.n_units = len(self._sel)
            unit_of[self._sel] = np.arange(self.n_units)
        else:
            groups = _integer_indices(groups, "group ids", self.p)
            if len(groups) != self.p:
                raise ValueError("groups must assign one id per coordinate")
            size = np.bincount(groups)
            if not size.all():
                raise ValueError("group ids must be 0..G-1 with every id present")
            held = np.bincount(groups[self.preselect], minlength=len(size))  # preselected per group
            mixed = np.flatnonzero((held > 0) & (held < size))
            if len(mixed):
                raise ValueError(f"group {mixed[0]} mixes preselected and selectable coordinates")
            free = held == 0
            self._gsel = (np.cumsum(free) - 1)[groups[self._sel]]
            unit_of[self._sel] = self._gsel
            self.n_units = int(np.count_nonzero(free))
            # each unit's coordinates, ascending, at _coords[_start[u]:_start[u + 1]]
            self._coords = self._sel[np.argsort(self._gsel, kind="stable")]
            self._start = np.concatenate([[0], np.cumsum(size[free])])
        self.groups = groups

    def unit_norms(self, v):
        """Euclidean norm of ``v``, a length-p vector, restricted to each
        unit's coordinates."""
        v = _vector(v, self.p, "v")
        if self.singleton:
            return np.abs(v[self._sel])
        sq = np.bincount(self._gsel, weights=np.square(v[self._sel]), minlength=self.n_units)
        return np.sqrt(sq)

    def coords_of(self, units):
        """Sorted coordinate indices covered by the given units."""
        units = np.asarray(units, dtype=int)
        if self.singleton:
            return np.sort(self._sel[units])
        if len(units) == 0:
            return np.asarray([], dtype=int)
        start = self._start
        return np.sort(np.concatenate([self._coords[start[u]:start[u + 1]] for u in units]))

    def units_with_support(self, v):
        """Units whose sub-vector of ``v`` is not identically zero."""
        return np.flatnonzero(self.unit_norms(v) > 0.0)


def _with_preselect(coords, preselect):
    # the sorted union of coords and preselect; coords already strictly
    # increasing are returned as they are when there is nothing to add
    if not len(preselect) and (coords[1:] > coords[:-1]).all():
        return coords
    return np.union1d(coords, preselect).astype(int)


@dataclass(frozen=True, eq=False)
class ScoProblem:
    """One sparsity-constrained instance: minimize f over at most s units.

    ``preselect`` coordinates are always active and exempt from the
    budget; ``groups`` (array of group ids over all p coordinates) makes
    whole groups enter or leave the support atomically.  ``p``, ``groups``
    and ``preselect`` follow the rules of :class:`GroupView`; the problem
    keeps that view as ``view`` and reads the two arrays back from it.  The
    oracle's dimension must be p and ``s`` must lie in 1..``view.n_units``.
    ``n`` is the sample size, needed only by the information criteria.
    """

    p: int
    s: int
    oracle: ObjectiveOracle
    groups: Optional[np.ndarray] = None
    preselect: Optional[np.ndarray] = None
    n: Optional[int] = None
    view: GroupView = field(init=False, repr=False)

    def __post_init__(self):
        view = GroupView(self.p, self.groups, self.preselect)
        if self.oracle.dim != self.p:
            raise ValueError(f"oracle dimension {self.oracle.dim} != p {self.p}")
        object.__setattr__(self, "preselect", view.preselect)
        object.__setattr__(self, "groups", view.groups)
        if not 0 < _require_integer(self.s, "s") <= view.n_units:
            raise ValueError(f"sparsity budget s={self.s} must lie in 1..{view.n_units}")
        if self.n is not None and _require_integer(self.n, "n") < 1:
            raise ValueError("sample size n must be positive")
        object.__setattr__(self, "view", view)

    def mask(self, x, units):
        """Copy of x zeroed outside the given units plus preselection, and
        the coordinates it keeps."""
        keep = _with_preselect(self.view.coords_of(units), self.preselect)
        out = np.zeros(self.p)
        out[keep] = x[keep]
        return out, keep


@dataclass(eq=False)
class ScoSolution:
    """Solver output: parameters, selected support, and diagnostics.

    ``support`` holds the sorted coordinate indices of the selected units
    (preselected coordinates are not listed; they are always active).
    ``trace`` records (iteration, objective, support-change count) per
    outer iteration when the solver produced one.
    """

    params: np.ndarray
    support: np.ndarray
    objective: float
    iterations: int
    converged: bool
    runtime: float = 0.0
    trace: Optional[list] = None


@dataclass(frozen=True)
class RestrictedResult:
    """Outcome of a restricted minimization.

    ``objective`` is the value computed by the restricted oracle;
    ``last_step`` is the most recently accepted line-search step, None
    when no step was taken.  A Newton step is tried first at 1, so on a
    quadratic refit, and on a refit started from a :class:`StartHessian`
    that converges in its first step, it is usually 1.  The pdas solver
    reads it as its step size for scoring inactive units.  ``converged``
    is exactly ``grad_inf <= inner_tol``; ``reason`` says why the minimizer
    stopped: ``"converged"``, ``"floor"`` (f could no longer resolve a
    decrease), ``"max_iter"``, ``"line_search"`` (every trial of the last
    search left the objective's domain) or ``"no_descent"`` (the search
    direction's slope vanished at working precision).
    """

    params: np.ndarray
    objective: float
    grad_inf: float
    iterations: int
    converged: bool
    last_step: Optional[float]
    reason: str


class StartHessian:
    """The inverse of f's Hessian over a few coordinates, to start refits
    near them (``hessian`` of :func:`restricted_minimize`).

    ``coords`` holds strictly increasing coordinate indices and
    ``inverse`` the |coords| x |coords| inverse of f's Hessian over them,
    taken at or near the points the refits start from; its symmetric
    part is kept.  It is checked once, here, so that no refit has to:
    ValueError unless it is finite and has a Cholesky factor.  The exact
    greedy solvers take one per round by forward differences of the
    gradient (see :mod:`sco.solvers`).
    """

    __slots__ = ("coords", "inverse")

    def __init__(self, coords, inverse):
        coords = np.asarray(coords)
        if coords.ndim != 1 or (coords.size and coords.dtype.kind not in "iu"):
            raise ValueError("start Hessian coordinates must be a 1-D integer array")
        coords = coords.astype(int)
        if len(coords) and (coords[0] < 0 or not (coords[1:] > coords[:-1]).all()):
            raise ValueError("start Hessian coordinates must be non-negative and strictly "
                             "increasing")
        M = np.asarray(inverse, dtype=float)
        if M.shape != (len(coords), len(coords)):
            raise ValueError(f"start Hessian inverse has shape {M.shape}, expected "
                             f"{(len(coords), len(coords))}")
        M = 0.5 * (M + M.T)
        if len(coords) and _spd_inverse(M) is None:
            raise ValueError("start Hessian inverse must be finite and positive definite")
        self.coords = coords
        self.inverse = M


def top_units(scores, k):
    """Sorted indices of the k largest scores; ties resolved to the lower
    index, and NaN ranked below every number (the first k of a stable sort
    of -scores).  Selects by partition, in O(len(scores))."""
    scores = np.asarray(scores, dtype=float)
    n = len(scores)
    if not 0 <= _require_integer(k, "count") <= n:
        raise ValueError(f"count k={k} must lie in 0..{n}")
    if k == 0 or k == n:
        return np.arange(k)
    key = -scores
    kth = np.partition(key, k - 1)[k - 1]  # partition sorts NaN last
    if kth == kth:
        top = key <= kth
        if np.count_nonzero(top) == k:
            return top.nonzero()[0]
        top = key < kth
        tied = (key == kth).nonzero()[0]
    else:
        top = ~np.isnan(key)
        tied = (~top).nonzero()[0]
    top[tied[:k - np.count_nonzero(top)]] = True
    return top.nonzero()[0]


def hard_threshold(v, s, view):
    """Units with the s largest per-unit Euclidean norms of ``v``.

    Deterministic: ties break toward the lower unit index.  Returns sorted
    unit indices (equal to coordinate indices for ungrouped problems
    without preselection).
    """
    return top_units(view.unit_norms(v), s)


def project_feasible(v, problem):
    """Zero every coordinate of ``v``, a length-p vector, outside the top-s
    units plus preselection."""
    v = _vector(v, problem.p, "v")
    return problem.mask(v, hard_threshold(v, problem.s, problem.view))[0]


_DEFAULT_CONFIG = SolverConfig()


def _lbfgs_direction(g, S, Y, R, gamma):
    # two-loop recursion; gamma = s.y / y.y of the newest pair, R[i] = 1 / s.y
    if not S:
        return -g
    q = g.copy()
    m = len(S)
    alphas = [0.0] * m
    for i in range(m - 1, -1, -1):
        a = R[i] * float(S[i].dot(q))
        alphas[i] = a
        q -= a * Y[i]
    q *= gamma
    for i in range(m):
        b = R[i] * float(Y[i].dot(q))
        q += S[i] * (alphas[i] - b)
    return -q


_EPS = float(np.finfo(float).eps)
_MEMORY = 10  # secant pairs kept
_ARMIJO = 1e-4  # sufficient-decrease constant
_MAX_BACKTRACKS = 50
_NEWTON_MAX_DIM = 40  # largest restriction whose Hessian is taken by differences


def _is_quadratic(f, df, gs, sy):
    # a step s from f with slope g.s = gs, f changing by df and the gradient
    # by y: on a quadratic the trapezoid rule df = (g + g_new).s / 2 =
    # gs + sy / 2 is exact up to rounding.  The gap is measured against the
    # curvature term s.y, not against df: a nearly linear f (a logistic
    # loss far out) passes the rule too, with almost no curvature to take
    # by differences
    return abs(df - gs - 0.5 * sy) <= 1e-6 * abs(sy) + 8.0 * _EPS * max(1.0, abs(f))


def _spd_inverse(H):
    # H^-1 through its Cholesky factor L, as (L^-1)' L^-1; None when H is not
    # finite or has no factor.  A 1x1 H takes the same arithmetic in scalars
    if H.shape == (1, 1):
        a = float(H[0, 0])
        if not 0.0 < a < math.inf:
            return None
        r = 1.0 / math.sqrt(a)
        return np.array([[r * r]])
    if not np.isfinite(H).all():
        return None
    try:
        L_inv = np.linalg.inv(np.linalg.cholesky(H))
    except np.linalg.LinAlgError:
        return None
    return L_inv.T @ L_inv


def _difference_newton(value_and_grad, x, g, known=None):
    # the inverse of H, whose column i is the forward difference
    # (g(x + h_i e_i) - g) / h_i with h_i = 1e-4 (1 + |x_i|), symmetrized
    # (Nocedal & Wright, section 8.1); None when a difference leaves the
    # domain or H is not finite and positive definite.  With known = (E,
    # new), only the columns at the positions new are differenced: E holds
    # the inverse of H's block over the other positions and zeros in the
    # rows and columns new.  With D those columns, C their rows new and J
    # the columns of the identity at new, H is positive definite exactly
    # when the Schur complement S = C - D'ED is, and then
    # H^-1 = E + Z S^-1 Z' with Z = ED - J (block elimination)
    k = len(x)
    E, new = known if known is not None else (None, np.arange(k))
    D = np.empty((k, len(new)))
    for j, i in enumerate(new):
        xh = x.copy()
        xh[i] += 1e-4 * (1.0 + abs(x[i]))
        try:
            gh = value_and_grad(xh)[1]
        except EvaluationError:
            return None
        D[:, j] = (gh - g) / (xh[i] - x[i])  # the step as rounded
    C = D[new]
    C = 0.5 * (C + C.T)
    if E is None:
        return _spd_inverse(C)
    if not len(new):
        return E
    Z = E @ D
    S_inv = _spd_inverse(C - D.T @ Z)
    if S_inv is None:
        return None
    Z[new, np.arange(len(new))] -= 1.0
    return E + Z @ S_inv @ Z.T


def _downdate(M, keep):
    # the inverse of H's block over the positions keep, from M = H^-1:
    # M_KK - M_KD M_DD^-1 M_DK, with D the other positions; None when M_DD
    # has no Cholesky factor
    drop = ~keep
    M_K = M[keep]
    M_DD_inv = _spd_inverse(M[drop][:, drop])
    if M_DD_inv is None:
        return None
    M_KD = M_K[:, drop]
    return M_K[:, keep] - M_KD @ M_DD_inv @ M_KD.T


def _lbfgs(value_and_grad, x0, tol, max_iter, known=None):
    """Limited-memory secant updates with a backtracking Armijo line search,
    and Newton steps once the first step shows the objective quadratic.

    After the first accepted step s, if the support has at most
    ``_NEWTON_MAX_DIM`` coordinates and f_new - f = (g + g_new).s / 2
    holds to rounding (within 1e-6 |s.(g_new - g)| + 8 eps max(1, |f|)),
    as it does exactly on a quadratic, H is taken from k forward
    differences of the gradient at the new point and symmetrized; if its
    Cholesky factorization succeeds every later direction is -H^-1 g,
    first tried at step 1.  When the test fails, a difference raises
    :class:`EvaluationError` or H is not positive definite, the secant
    directions go on unchanged.

    ``known``, a pair ``(E, new)``, starts the search from a Hessian: E,
    k x k, holds the inverse of the Hessian's block over the positions of
    x0 not in ``new``, taken earlier and positive definite, and zeros in
    the rows and columns ``new``.  After the first call the columns
    ``new`` are taken by forward differences at x0 and E is bordered by
    them; if the whole H has a Cholesky factor (its Schur complement
    has one), the first direction is -H^-1 g, tried first at step 1.
    After that step H is kept for every later direction if the
    quadratic identity above holds for the step and H^-1 y matches s to
    1e-2 |s| (infinity norms).  Otherwise H is dropped and the search
    goes on as one without ``known`` goes on after its first step: a new
    H at the new point if the identity holds, secant directions if not.
    When H has no factor or a difference raises :class:`EvaluationError`,
    the search runs as without ``known``.

    Each trial costs one ``value_and_grad`` call, whose value and
    gradient both decide it.  A trial is accepted on Armijo sufficient
    decrease together with a strict decrease of f, or, within the
    precision floor (see :func:`restricted_minimize`), on a smaller
    gradient infinity norm.  After a rejected trial with a finite value
    the step shrinks to the minimizer of the quadratic through f, the
    slope g.d and the trial's value, kept within [0.1, 0.5] of the
    rejected step (safeguarded quadratic interpolation, Nocedal & Wright,
    *Numerical Optimization*, 2006, section 3.5).  A trial whose
    evaluation raises :class:`EvaluationError` (it left the objective's
    domain, or its gradient is undefined there) counts as rejected and
    halves the step; a search makes at most ``_MAX_BACKTRACKS``
    backtracks.  Floor steps may raise f by rounding noise, so a final
    value above the start's returns the start instead.  A secant pair's
    s.y and y.y are computed once, when the pair is stored.  Returns a
    :class:`RestrictedResult` over the coordinates of ``x0``.
    """
    x = x_start = np.array(x0, dtype=float)
    f, g = value_and_grad(x)
    f_start = f
    grad_inf = grad_start = float(abs(g).max()) if len(g) else 0.0
    S, Y, R = [], [], []  # secant pairs s, y and their 1 / s.y, oldest first
    gamma = None  # s.y / y.y of the newest pair
    converged = grad_inf <= tol
    # H^-1 from the start Hessian, or once the first step showed f quadratic
    newton = None if known is None or converged else _difference_newton(value_and_grad, x, g,
                                                                          known)
    started = newton is not None
    last_step = None
    reason = "max_iter"
    it = 0
    while not converged and it < max_iter:
        it += 1
        if newton is None:
            d = _lbfgs_direction(g, S, Y, R, gamma)
        else:
            d = -(newton @ g)
        gtd = float(g.dot(d))
        if gtd >= 0.0:  # curvature went bad; fall back to steepest descent
            d = -g
            gtd = -float(g.dot(g))
        if -gtd <= 1e-18 * (1.0 + abs(f)):
            reason = "no_descent"
            break
        if S or newton is not None:
            alpha = 1.0
        else:
            alpha = min(1.0, 1.0 / max(math.sqrt(-gtd), 1e-12))
        floor = 4.0 * _EPS * max(1.0, abs(f))
        step = None
        for _ in range(_MAX_BACKTRACKS + 1):
            x_new = x + alpha * d
            try:
                ft, gt = value_and_grad(x_new)
            except EvaluationError:
                ft = np.inf
            if ft < f and ft <= f + _ARMIJO * alpha * gtd:
                step = ft, gt
                break
            if abs(ft - f) <= floor:
                # f cannot resolve this step: keep it if the gradient shrank
                if float(abs(gt).max()) < grad_inf:
                    step = ft, gt
                break
            if not math.isfinite(ft):
                alpha *= 0.5  # no value to interpolate
            elif alpha * -gtd <= floor:
                break  # smaller steps promise decreases f cannot show
            else:
                # the quadratic's minimizer: a rejected trial lies above the
                # Armijo line, so the denominator is positive
                alpha *= min(max(-gtd * alpha / (2.0 * (ft - f - gtd * alpha)), 0.1), 0.5)
        else:
            reason = "line_search"
            break
        if step is None:
            reason = "floor"
            break
        f_new, g_new = step
        s = x_new - x
        y = g_new - g
        sy = float(s.dot(y))
        yy = float(y.dot(y))
        if sy > 1e-12 * (math.sqrt(float(s.dot(s))) * math.sqrt(yy) + 1e-300):
            S.append(s)
            Y.append(y)
            R.append(1.0 / sy)
            gamma = sy / yy
            if len(S) > _MEMORY:
                S.pop(0)
                Y.pop(0)
                R.pop(0)
        quadratic = (it == 1 and len(s) <= _NEWTON_MAX_DIM
                     and _is_quadratic(f, f_new - f, float(g.dot(s)), sy))
        x, f, g = x_new, f_new, g_new
        last_step = alpha
        grad_inf = float(abs(g).max())
        converged = grad_inf <= tol
        if started and it == 1 and not (quadratic
                                        and abs(newton @ y - s).max() <= 1e-2 * abs(s).max()):
            newton = None
            started = False
        if quadratic and not started and not converged and it < max_iter:
            newton = _difference_newton(value_and_grad, x, g)
    if f > f_start:  # gradient-judged steps wiggled f up at the floor
        if converged:
            reason = "floor"
        x, f, grad_inf = x_start, f_start, grad_start
        converged = grad_inf <= tol
    if converged:
        reason = "converged"
    return RestrictedResult(x, f, grad_inf, it, converged, last_step, reason)


def _start_hessian(problem, units, x):
    # the StartHessian for refits near the units: over their coordinates
    # plus preselection P, f's Hessian at x taken by |P| forward differences
    # of the restricted gradient; None when P has _NEWTON_MAX_DIM or more
    # coordinates, a difference leaves the domain or H has no Cholesky
    # factor
    coords = problem.mask(x, units)[1]
    if len(coords) >= _NEWTON_MAX_DIM:
        return None
    if not len(coords):
        return StartHessian(coords, np.empty((0, 0)))
    value_and_grad = problem.oracle.restricted(coords).value_and_grad
    try:
        g = value_and_grad(x[coords])[1]
    except EvaluationError:
        return None
    M = _difference_newton(value_and_grad, x[coords], g)
    return None if M is None else StartHessian(coords, M)


def _known_block(free, coords, M):
    # _lbfgs's known = (E, new) for the coordinates free, M being H^-1 over
    # coords: E holds the inverse of H's block over the coordinates free
    # shares with coords, new the positions of the others; None when that
    # block has no Cholesky factor
    at = np.minimum(np.searchsorted(free, coords), len(free) - 1)
    shared = free[at] == coords
    if not shared.all():
        M = _downdate(M, shared)
        if M is None:
            return None
        at = at[shared]
    E = np.zeros((len(free), len(free)))
    E[at[:, None], at] = M
    new = np.ones(len(free), dtype=bool)
    new[at] = False
    return E, new.nonzero()[0]


def restricted_minimize(problem, support, init=None, config=None, hessian=None):
    """Minimize f over ``support`` plus preselected coordinates.

    All other coordinates stay pinned at zero: f is the oracle's
    ``restricted`` oracle over the free coordinates.  Runs limited-memory
    quasi-Newton iterations (memory 10) with an Armijo backtracking line
    search (sufficient-decrease constant 1e-4, one ``value_and_grad``
    call per trial; each rejected trial shrinks the step to the
    minimizer of the quadratic interpolating f, its slope and the
    trial's value, kept within [0.1, 0.5] of the rejected step).  After
    the first accepted step s, a support of at most 40 coordinates whose
    step satisfies f_new - f = (g + g_new).s / 2 to rounding (within
    1e-6 |s.(g_new - g)| + 8 eps max(1, |f|)), as every quadratic does,
    takes its Hessian H from k more ``value_and_grad`` calls, forward
    differences of the gradient (step 1e-4 (1 + |x_i|)), symmetrized;
    if H has a Cholesky factor, every later direction is the Newton
    direction -H^-1 g, first tried at step 1, under the same line search
    and stopping rules.  Otherwise, or where a difference raises
    :class:`~sco.autodiff.EvaluationError`, the quasi-Newton iterations
    go on unchanged.  The iterations stop when the infinity norm of the
    gradient over the free coordinates drops to ``config.inner_tol`` or
    after ``config.inner_max_iter`` iterations.  It also stops at the
    precision floor ``4 eps max(1, |f|)``: a trial whose value lies
    within the floor of the current value is kept only if it lowers the
    gradient's infinity norm, and backtracking ends once the predicted
    decrease falls below the floor (trials whose evaluation raises
    :class:`~sco.autodiff.EvaluationError` halve the step; a search
    makes at most 50 backtracks).  The result's ``reason`` records which
    rule ended the search.

    ``support`` holds coordinate indices, a 1-D integer array in 0..p-1
    (see :class:`GroupView`).  ``init``, a length-p vector, must be zero
    off the free coordinates; the search never increases the objective relative to
    it.  Returns a :class:`RestrictedResult` whose ``params`` is the
    full-length vector.

    ``hessian``, an optional :class:`StartHessian` over coordinates P,
    starts the search from a Hessian taken at or near ``init`` (the
    exact greedy solvers take one per round; see :mod:`sco.solvers`).
    With at most 40 free coordinates, the refit takes the inverse of H's
    block over the free coordinates in P, with no oracle call (a Schur
    downdate when it drops some of P), differences the columns of its
    other free coordinates at ``init`` after the first call (the steps
    above), and borders the inverse by them through the Schur
    complement.  If that complement has a Cholesky factor, so has H,
    and the first direction is -H^-1 g, tried first at step 1.  After
    that step H is kept for every later direction if the step meets the
    quadratic identity above and H^-1 y matches the step s to 1e-2 |s|
    (infinity norms).  Otherwise H is dropped and the refit goes on as
    a refit without it goes on after its first step: a Hessian
    differenced at the new point if the step meets the identity,
    quasi-Newton directions if not.  Where the complement has no
    Cholesky factor or a difference raises
    :class:`~sco.autodiff.EvaluationError`, the refit runs as it does
    without the argument, after the difference calls it spent.  A refit
    without it makes exactly the calls described above.
    """
    cfg = config if config is not None else _DEFAULT_CONFIG
    support = _integer_indices(support, "support indices", problem.p)
    free = _with_preselect(support, problem.preselect)
    if init is not None:
        init = _vector(init, problem.p, "init")
        # NaN counts as nonzero and -0.0 as zero
        if np.count_nonzero(init) != np.count_nonzero(init[free]):
            raise ValueError("init must be zero off support and preselected coordinates")
    known = None
    if hessian is not None:
        if not isinstance(hessian, StartHessian):
            raise TypeError(f"hessian must be a StartHessian, got {type(hessian).__name__}")
        coords = hessian.coords
        if len(coords) and coords[-1] >= problem.p:
            raise ValueError(f"start Hessian coordinates out of range: each must lie in "
                             f"0..{problem.p - 1}")
        if 0 < len(free) <= _NEWTON_MAX_DIM:
            known = _known_block(free, coords, hessian.inverse)
    sub = problem.oracle.restricted(free)
    x0 = init[free] if init is not None else np.zeros(len(free))
    res = _lbfgs(sub.value_and_grad, x0, cfg.inner_tol, cfg.inner_max_iter, known)
    params = np.zeros(problem.p)
    params[free] = res.params
    return RestrictedResult(params, res.objective, res.grad_inf, res.iterations, res.converged,
                            res.last_step, res.reason)


def validate_solution(problem, solution, tol=1e-12):
    """Check a solution against the ScoSolution invariants; raises ValueError.

    Verifies that the support is a 1-D integer array of coordinates in
    0..p-1 (see :class:`GroupView`), sorted, a union of whole units and
    disjoint from the preselection, that at most s units are selected,
    that the parameters are a length-p vector vanishing off support plus
    preselection, and that the stored objective matches a fresh oracle
    evaluation.
    """
    sup = _integer_indices(solution.support, "support", problem.p)
    if len(sup):
        if np.any(np.diff(sup) <= 0):
            raise ValueError("support must be sorted and unique")
        units = np.unique(problem.view.unit_of[sup])
        if units.min() < 0:  # only preselected coordinates belong to no unit
            raise ValueError("support must not list preselected coordinates")
        if not np.array_equal(problem.view.coords_of(units), sup):
            raise ValueError("support must cover whole units")
        if len(units) > problem.s:
            raise ValueError(f"{len(units)} selected units exceed the budget s={problem.s}")
    params = _vector(solution.params, problem.p, "params")
    off = np.ones(problem.p, dtype=bool)
    off[sup] = False
    off[problem.preselect] = False
    if np.any(params[off] != 0.0):
        raise ValueError("params must be exactly zero off support and preselection")
    fresh = problem.oracle.value(params)
    if abs(fresh - solution.objective) > tol * (1.0 + abs(fresh)):
        raise ValueError(f"stored objective {solution.objective!r} != recomputed {fresh!r}")
