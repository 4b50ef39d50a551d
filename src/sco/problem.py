"""Problem and solution types plus the active-set building blocks every
solver shares: selectable-unit bookkeeping (groups, preselected
coordinates), hard thresholding onto the sparsity budget, and a
minimizer over a fixed support: limited-memory quasi-Newton steps, and
Newton steps with a Hessian from gradient differences once the first
step shows the restricted objective quadratic (least squares, trend
filtering).  One private engine runs every exact greedy round: each
change of the round's active set, a unit added or dropped, is refit by
the same minimizer from the round's one Hessian and, for additions, its
one full gradient, in blocks of fixed size.  A drop refits from the
inverse of the Hessian's block over what it keeps.  An add borders the
Hessian by its own columns, for a whole block in one stacked solve that
factors each Schur complement once, and is a refit from its bordered
H^-1 whose first direction is the stacked Newton step; a refit whose
first step converges ends after that one call.  One rule decides
whether a Hessian block is positive definite: it has a Cholesky factor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import partial
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
        self._sel.setflags(write=False)
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
            self._coords.setflags(write=False)
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

    def unit_coords(self, u):
        """Sorted coordinate indices of unit ``u``, a read-only view."""
        if self.singleton:
            return self._sel[u:u + 1]
        return self._coords[self._start[u]:self._start[u + 1]]

    def coords_of(self, units):
        """Sorted coordinate indices covered by the given units."""
        units = np.asarray(units, dtype=int)
        if self.singleton:
            return np.sort(self._sel[units])
        if len(units) == 0:
            return np.asarray([], dtype=int)
        return np.sort(np.concatenate([self.unit_coords(u) for u in units]))

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
    ``converged`` is exactly ``grad_inf <= inner_tol``; ``reason`` says
    why the minimizer stopped: ``"converged"``, ``"floor"`` (f could no
    longer resolve a decrease), ``"max_iter"``, ``"line_search"`` (every
    trial of the last search left the objective's domain) or
    ``"no_descent"`` (the search direction's slope vanished at working
    precision).
    """

    params: np.ndarray
    objective: float
    grad_inf: float
    iterations: int
    converged: bool
    reason: str


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
    # for a stack H of m x m matrices: which of them are finite with a
    # Cholesky factor L, and, in order, the inverses (L^-1)' L^-1 of those.
    # 1 x 1 matrices take the scalar arithmetic (1 / sqrt a)^2; a stack in
    # which some matrix has no factor is decided matrix by matrix
    if H.shape[1] == 1:
        ok = (H[:, 0, 0] > 0.0) & (H[:, 0, 0] < math.inf)
        r = 1.0 / np.sqrt(H[ok])
        return ok, r * r
    ok = np.isfinite(H).all(axis=(1, 2))
    try:
        L_inv = np.linalg.inv(np.linalg.cholesky(H[ok]))
    except np.linalg.LinAlgError:
        if len(H) == 1:
            return np.zeros(1, dtype=bool), H[:0]
        ok, inverses = zip(*(_spd_inverse(h[None]) for h in H))
        return np.concatenate(ok), np.concatenate(inverses)
    return ok, L_inv.transpose(0, 2, 1) @ L_inv


def _difference_columns(value_and_grad, x, g, cols):
    # the columns cols of H by forward differences (g(x + h_i e_i) - g) / h_i
    # with h_i = 1e-4 (1 + |x_i|) (Nocedal & Wright, section 8.1); None when
    # a difference leaves the domain
    D = np.empty((len(x), len(cols)))
    for j, i in enumerate(cols):
        xh = x.copy()
        xh[i] += 1e-4 * (1.0 + abs(x[i]))
        try:
            gh = value_and_grad(xh)[1]
        except EvaluationError:
            return None
        D[:, j] = (gh - g) / (xh[i] - x[i])  # the step as rounded
    return D


def _difference_newton(value_and_grad, x, g):
    # the inverse of H, every column differenced and H symmetrized; None
    # when a difference leaves the domain or H is not finite and positive
    # definite
    D = _difference_columns(value_and_grad, x, g, range(len(x)))
    if D is None:
        return None
    ok, inverse = _spd_inverse(0.5 * (D + D.T)[None])
    return inverse[0] if ok[0] else None


def _downdate(M, keep):
    # the inverse of H's block over the positions keep, from M = H^-1:
    # M_KK - M_KD M_DD^-1 M_DK, with D the other positions; None when M_DD
    # has no Cholesky factor
    drop = ~keep
    M_K = M[keep]
    ok, M_DD_inv = _spd_inverse(M[drop][:, drop][None])
    if not ok[0]:
        return None
    M_KD = M_K[:, drop]
    return M_K[:, keep] - M_KD @ M_DD_inv[0] @ M_KD.T


def _lbfgs(value_and_grad, x0, tol, max_iter, inverse=None, start=None, first=None):
    """The search of :func:`restricted_minimize` over the coordinates of
    ``x0``, ``value_and_grad`` being the restricted oracle's.

    ``x0`` is a float array the caller does not use again: the result may
    hold it as its params.  ``inverse``, the k x k inverse of a positive
    definite Hessian H taken at or near x0, starts the search: the first
    direction is -H^-1 g, tried first at step 1, and H is kept after that
    step if the step is quadratic and H^-1 (g_new - g) matches it to 1e-2
    (infinity norms); otherwise the search goes on as it does without
    ``inverse``.  ``first``, given with ``inverse``, is that first
    direction as the caller computed it; ``inverse`` may then be a
    function of no arguments that returns H^-1, called only for the test
    that keeps H, so a search whose first step converges or is not
    quadratic never forms it.  ``start``, the triple (f, g, |g|_inf) at
    x0, stands in for the search's first ``value_and_grad`` call.  Returns
    a :class:`RestrictedResult` over the coordinates of ``x0``.
    """
    x = x_start = x0
    if start is None:
        f, g = value_and_grad(x)
        grad_inf = float(abs(g).max()) if len(g) else 0.0
    else:
        f, g, grad_inf = start
    f_start, grad_start = f, grad_inf
    S, Y, R = [], [], []  # secant pairs s, y and their 1 / s.y, oldest first
    gamma = None  # s.y / y.y of the newest pair
    converged = grad_inf <= tol
    # H^-1 (or, until the keep test forms it, its function) from the
    # start, or once the first step showed f quadratic
    newton = None if converged else inverse
    reason = "max_iter"
    it = 0
    while not converged and it < max_iter:
        it += 1
        if newton is None:
            d = _lbfgs_direction(g, S, Y, R, gamma)
        elif first is not None:
            d, first = first, None
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
        floor = None  # 4 eps max(1, |f|), once a trial is rejected
        step = None
        for _ in range(_MAX_BACKTRACKS + 1):
            x_new = x + d if alpha == 1.0 else x + alpha * d
            try:
                ft, gt = value_and_grad(x_new)
            except EvaluationError:
                ft = np.inf
            if ft < f and ft <= f + _ARMIJO * alpha * gtd:
                step = ft, gt
                break
            if floor is None:
                floor = 4.0 * _EPS * max(1.0, abs(f))
            if abs(ft - f) <= floor and _ARMIJO * alpha * -gtd <= floor:
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
        grad_new = float(abs(g_new).max())
        if grad_new <= tol:  # nothing reads the step's secant pair or tests
            x, f, grad_inf, converged = x_new, f_new, grad_new, True
            break
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
        x, f, g, grad_inf = x_new, f_new, g_new, grad_new
        if it == 1 and newton is not None:
            if quadratic and callable(newton):
                newton = newton()
            if not (quadratic and abs(newton @ y - s).max() <= 1e-2 * abs(s).max()):
                newton = None
        if quadratic and newton is None and it < max_iter:
            newton = _difference_newton(value_and_grad, x, g)
    if f > f_start:  # gradient-judged steps wiggled f up at the floor
        if converged:
            reason = "floor"
        x, f, grad_inf = x_start, f_start, grad_start
        converged = grad_inf <= tol
    if converged:
        reason = "converged"
    return RestrictedResult(x, f, grad_inf, it, converged, reason)


def _start_hessian(problem, units, x):
    # an exact greedy round's start: the coordinates P of the units plus
    # preselection, and over them the symmetric part of H^-1, with H f's
    # Hessian at x taken by |P| forward differences of the restricted
    # gradient; the inverse is None when P has _NEWTON_MAX_DIM or more
    # coordinates, a difference leaves the domain or H has no Cholesky factor
    coords = _with_preselect(problem.view.coords_of(units), problem.preselect)
    if len(coords) >= _NEWTON_MAX_DIM:
        return coords, None
    if not len(coords):
        return coords, np.empty((0, 0))
    value_and_grad = problem.oracle.restricted(coords).value_and_grad
    try:
        g = value_and_grad(x[coords])[1]
    except EvaluationError:
        return coords, None
    M = _difference_newton(value_and_grad, x[coords], g)
    return coords, None if M is None else 0.5 * (M + M.T)


def _bordered_steps(M, cols, grads):
    # the bordered Newton steps of add candidates, in one stacked pass per
    # unit size.  A candidate adds m coordinates J to the k of P: its
    # columns D, (k + m) x m, are its differences over P + J, and grads its
    # gradient g there.  H borders M^-1 by D, and with W = M D_P (D_P the
    # rows P of D) it is positive definite exactly when the Schur
    # complement S = sym(D_J) - D_P' W has a Cholesky factor; then
    # -H^-1 g = (-M g_P - W v, v) with v = S^-1 (W' g_P - g_J) (block
    # elimination).  Returns per candidate the pair of that step and H^-1
    # as a function of no arguments (_bordered_inverse), or (None, None)
    # without a factor
    k = len(M)
    out = [(None, None)] * len(cols)
    sizes = [D.shape[1] for D in cols]
    for m in set(sizes):
        idx = [c for c, size in enumerate(sizes) if size == m]
        D = np.array([cols[c] for c in idx])
        G = np.array([grads[c] for c in idx])[:, :, None]
        D_P, D_J = D[:, :k], D[:, k:]
        W = M @ D_P
        ok, S_inv = _spd_inverse(0.5 * (D_J + D_J.transpose(0, 2, 1))
                                 - D_P.transpose(0, 2, 1) @ W)
        W, G = W[ok], G[ok]
        v = S_inv @ (W.transpose(0, 2, 1) @ G[:, :k] - G[:, k:])
        d = np.concatenate([-(M @ G[:, :k]) - W @ v, v], axis=1)[:, :, 0]
        for b, c in enumerate(np.flatnonzero(ok)):
            out[idx[c]] = d[b], partial(_bordered_inverse, M, W[b], S_inv[b])
    return out


def _bordered_inverse(M, W, S_inv):
    # H^-1 of _bordered_steps' H: E + Z S^-1 Z' with E holding M in the
    # block P and Z = (W, -I)
    k, m = W.shape
    Z = np.vstack([W, -np.eye(m)])
    inverse = Z @ S_inv @ Z.T
    inverse[:k, :k] += M
    return inverse


# the changes of a round differenced and solved together: at n=500 and
# |P| = 10 each one's restricted oracle holds about 50 KB, so a block stays
# under 1 MB
_BLOCK = 16


def _round(problem, start, x, cfg, changes):
    # an exact greedy round at x (zero off P), start being _start_hessian's
    # (P, M = H_PP^-1).  A change is a pair (keep, J): keep masks the
    # positions of P it keeps, and J holds the coordinates of the unit it
    # adds, empty for a drop (an add keeps all of P).  For each change, in
    # order, yields the coordinates P[keep] + J and the _lbfgs refit over
    # them from x, a RestrictedResult over those coordinates.  The changes
    # run in blocks of _BLOCK, so that the round never holds more than one
    # block of restricted oracles.
    #
    # A drop makes its own start call and refits from _downdate(M, keep),
    # the inverse of H's block over what it keeps, with no difference call.
    # An add starts from the round's one full-p call at x, which gives f and
    # every gradient, and, where its gradient is above inner_tol,
    # differences its |J| columns at x; one stacked pass per block borders
    # M by them, factoring each Schur complement once (_bordered_steps).
    # The add is a refit from its bordered H^-1, whose first direction is
    # the stacked Newton step: a refit whose first step converges ends
    # after that one call, and H^-1 is formed only for the test that keeps
    # H after a quadratic first step that does not converge.  Without M,
    # beyond _NEWTON_MAX_DIM coordinates, without a factor for the bordered
    # H or where a difference leaves the domain, a change is refit without
    # a Hessian
    P, M = start
    tol = cfg.inner_tol
    full = None
    changes = iter(changes)
    while block := list(itertools.islice(changes, _BLOCK)):
        refits, cols, grads = [], [], []
        for keep, J in block:
            free = np.concatenate([P[keep], J])
            x0 = x[free]
            value_and_grad = problem.oracle.restricted(free).value_and_grad
            begin = D = inverse = None
            if len(J):
                if full is None:
                    full = problem.oracle.value_and_grad(x)
                g0 = full[1][free]
                grad_inf = float(abs(g0).max())
                begin = full[0], g0, grad_inf
                if M is not None and len(free) <= _NEWTON_MAX_DIM and grad_inf > tol:
                    D = _difference_columns(value_and_grad, x0, g0, range(len(P), len(free)))
                if D is not None:
                    cols.append(D)
                    grads.append(g0)
            elif M is not None and len(free):
                inverse = _downdate(M, keep)
            refits.append((free, x0, value_and_grad, inverse, begin, D))
        steps = iter(_bordered_steps(M, cols, grads) if cols else ())
        for free, x0, value_and_grad, inverse, begin, D in refits:
            d = None
            if D is not None:
                d, inverse = next(steps)
            yield free, _lbfgs(value_and_grad, x0, tol, cfg.inner_max_iter, inverse, begin, d)


def restricted_minimize(problem, support, init=None, config=None):
    """Minimize f over ``support`` plus preselected coordinates.

    All other coordinates stay pinned at zero: f is the oracle's
    ``restricted`` oracle over the free coordinates.  Runs limited-memory
    quasi-Newton iterations (memory 10) with an Armijo backtracking line
    search (sufficient-decrease constant 1e-4, one ``value_and_grad``
    call per trial; each rejected trial shrinks the step to the
    minimizer of the quadratic interpolating f, its slope and the
    trial's value, kept within [0.1, 0.5] of the rejected step).  After
    the first accepted step s, on a support of at most 40 coordinates,
    the step is quadratic if it satisfies f_new - f = (g + g_new).s / 2
    to rounding (within 1e-6 |s.(g_new - g)| + 8 eps max(1, |f|)), as
    every quadratic does.  A quadratic s takes the Hessian H at the new
    point from k more ``value_and_grad`` calls, forward differences of
    the gradient (step 1e-4 (1 + |x_i|)), symmetrized.  If H has a
    Cholesky factor, every later direction is the Newton direction
    -H^-1 g, first tried at step 1, under the same line search and
    stopping rules.  Otherwise, or
    where a difference raises :class:`~sco.autodiff.EvaluationError`,
    the quasi-Newton iterations go on.  The iterations stop when the
    infinity norm of the gradient over the free coordinates drops to
    ``config.inner_tol`` or after ``config.inner_max_iter`` iterations.
    It also stops at the precision floor ``4 eps max(1, |f|)``: a trial
    whose value lies within the floor of the current value, where the
    Armijo decrease it must show lies within the floor too, is kept only
    if it lowers the gradient's infinity norm, and backtracking ends
    once the predicted decrease falls below the floor (trials whose
    evaluation raises :class:`~sco.autodiff.EvaluationError` halve the
    step; a search makes at most 50 backtracks).  The result's
    ``reason`` records which rule ended the search.

    ``support`` holds coordinate indices, a 1-D integer array in 0..p-1
    (see :class:`GroupView`).  ``init``, a length-p vector, must be zero
    off the free coordinates; the search never increases the objective relative to
    it.  Returns a :class:`RestrictedResult` whose ``params`` is the
    full-length vector.
    """
    cfg = config if config is not None else _DEFAULT_CONFIG
    support = _integer_indices(support, "support indices", problem.p)
    free = _with_preselect(support, problem.preselect)
    if init is not None:
        init = _vector(init, problem.p, "init")
        # NaN counts as nonzero and -0.0 as zero
        if np.count_nonzero(init) != np.count_nonzero(init[free]):
            raise ValueError("init must be zero off support and preselected coordinates")
    sub = problem.oracle.restricted(free)
    x0 = init[free] if init is not None else np.zeros(len(free))
    res = _lbfgs(sub.value_and_grad, x0, cfg.inner_tol, cfg.inner_max_iter)
    params = np.zeros(problem.p)
    params[free] = res.params
    return RestrictedResult(params, res.objective, res.grad_inf, res.iterations, res.converged,
                            res.reason)


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
