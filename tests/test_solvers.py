"""Shared solver contracts: orthonormal exactness, the planted
compressive-sensing instance, feasibility/monotonicity/termination
invariants, warm starts, and permutation equivariance."""

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sco
from sco import models, solvers
from sco import problem as problem_module
from sco.autodiff import ObjectiveOracle, build_objective
from sco.problem import (ScoProblem, SolverConfig, _bordered_inverse, _bordered_steps,
                         _difference_columns, _downdate, _lbfgs, _start_hessian,
                         restricted_minimize, validate_solution)
from sco.solvers import SolverKind, solve
from test_models import SMALL, USER_PROGRAMS, user_oracle

ALL_KINDS = list(SolverKind)
MONOTONE = [SolverKind.FORWARD, SolverKind.OMP, SolverKind.FOBA, SolverKind.SCOPE,
            SolverKind.IHT, SolverKind.HTP]


def _ols_problem(X, y, s, **kw):
    def make(Xm, restrict):
        def program(th):
            return 0.5 * sco.sqnorm(y - Xm @ th)

        return build_objective(program, Xm.shape[1], scale="rss", restrict=restrict)

    oracle = make(X, lambda cols: make(X[:, cols], None))
    return ScoProblem(p=X.shape[1], s=s, oracle=oracle, n=X.shape[0], **kw)


def _orthonormal_instance(seed):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((20, 10)))
    y = rng.standard_normal(20) * 3.0
    return Q, y


def test_registry_covers_every_kind():
    from sco.solvers import _REGISTRY

    assert set(_REGISTRY) == set(SolverKind)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_orthonormal_design_exact(kind):
    # coordinatewise-separable problem: the solution is the hard-thresholded
    # coefficient vector Q'y, support = its three largest magnitudes
    Q, y = _orthonormal_instance(123)
    coef = Q.T @ y
    expect = np.argsort(-np.abs(coef), kind="stable")[:3]
    prob = _ols_problem(Q, y, 3)
    sol = solve(kind, prob)
    validate_solution(prob, sol)
    assert np.array_equal(sol.support, np.sort(expect)), kind
    assert np.max(np.abs(sol.params[sol.support] - coef[sol.support])) <= 1e-8


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_planted_compressive_sensing(kind):
    # noiseless planted coefficients (9.71, 19.16, 13.53) at (3, 4, 7)
    rng = np.random.default_rng(42)
    X = rng.standard_normal((100, 10))
    coef = np.zeros(10)
    coef[[3, 4, 7]] = [9.71, 19.16, 13.53]
    y = X @ coef
    prob = _ols_problem(X, y, 3)
    sol = solve(kind, prob)
    assert np.array_equal(sol.support, [3, 4, 7]), kind
    assert np.max(np.abs(sol.params - coef)) <= 1e-4


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_feasibility_and_validation(kind):
    spec = models.ModelSpec("linear", 40, 12, 4, 5.0, seed=9)
    ds = models.generate(spec)
    prob = models.build_problem(ds, s=4)
    sol = solve(kind, prob)
    validate_solution(prob, sol)
    assert len(sol.support) <= 4


@pytest.mark.parametrize("kind", MONOTONE)
def test_monotone_trace(kind):
    spec = models.ModelSpec("linear", 50, 15, 4, 3.0, seed=2)
    ds = models.generate(spec)
    prob = models.build_problem(ds, s=4)
    sol = solve(kind, prob)
    objs = [e.objective for e in sol.trace]
    for a, b in zip(objs, objs[1:]):
        assert b <= a + 1e-9 * (1.0 + abs(a)), (kind, objs)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_termination_on_nonconvex_objective(kind):
    # double-well plus kink: many stationary points, bounded below
    def prog(th):
        return sco.vsum(0.25 * th ** 4.0 - 0.5 * th ** 2.0) + 0.1 * sco.vsum(abs(th))

    oracle = build_objective(prog, 8)
    prob = ScoProblem(p=8, s=3, oracle=oracle, n=8)
    cfg = SolverConfig(max_iter=7)
    sol = solve(kind, prob, cfg)
    validate_solution(prob, sol)
    assert sol.iterations <= 7


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_warm_start_consistency(kind):
    spec = models.ModelSpec("linear", 60, 20, 5, 5.0, seed=4)
    ds = models.generate(spec)
    prob = models.build_problem(ds, s=5)
    first = solve(kind, prob)
    again = solve(kind, prob, SolverConfig(warm_start=first.params))
    assert again.objective <= first.objective + 1e-10, kind


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_permutation_equivariance(kind):
    rng = np.random.default_rng(8)
    X = rng.standard_normal((40, 12))
    y = rng.standard_normal(40)
    perm = rng.permutation(12)
    base = solve(kind, _ols_problem(X, y, 3))
    permuted = solve(kind, _ols_problem(X[:, perm], y, 3))
    assert np.array_equal(np.sort(perm[permuted.support]), base.support), kind


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_full_budget_matches_unconstrained(kind):
    rng = np.random.default_rng(14)
    X = rng.standard_normal((30, 8))
    y = rng.standard_normal(30)
    prob = _ols_problem(X, y, 8)
    full = restricted_minimize(prob, np.arange(8), None)
    f_star = prob.oracle.value(full.params)
    sol = solve(kind, prob)
    assert sol.objective <= f_star + 1e-6, kind


@pytest.mark.parametrize("kind", [SolverKind.SCOPE, SolverKind.OMP, SolverKind.IHT,
                                  SolverKind.FOBA])
def test_preselect_always_active(kind):
    rng = np.random.default_rng(21)
    X = rng.standard_normal((40, 6))
    theta = np.array([2.0, 0.0, -3.0, 0.0, 1.5, 0.0])
    y = X @ theta + 0.05 * rng.standard_normal(40)
    prob = _ols_problem(X, y, 2, preselect=[0])
    sol = solve(kind, prob)
    validate_solution(prob, sol)
    assert 0 not in sol.support  # preselected coordinates are not listed
    assert len(sol.support) <= 2
    assert sol.params[0] != 0.0  # but they are fitted


@pytest.mark.parametrize("kind", [SolverKind.SCOPE, SolverKind.OMP, SolverKind.IHT])
def test_group_structure_respected(kind):
    rng = np.random.default_rng(31)
    p, n = 12, 80
    groups = np.repeat(np.arange(6), 2)
    X = rng.standard_normal((n, p))
    theta = np.zeros(p)
    theta[[4, 5, 8, 9]] = [2.0, -1.5, 1.8, 2.2]  # groups 2 and 4
    y = X @ theta + 0.05 * rng.standard_normal(n)
    prob = _ols_problem(X, y, 2, groups=groups)
    sol = solve(kind, prob)
    validate_solution(prob, sol)
    assert np.array_equal(sol.support, [4, 5, 8, 9]), kind


def _refit_from_round_hessian(problem, start, theta, J, cfg):
    # an add candidate's refit over P + J from the round's start (P, M =
    # H_PP^-1), M bordered by the columns of J and the bordered Newton step
    # its first direction, with its own start call; without M, or without a
    # factor for the bordered H, the refit takes no Hessian
    P, M = start
    free = np.concatenate([P, J])
    value_and_grad = problem.oracle.restricted(free).value_and_grad
    x0 = theta[free]
    f0, g0 = value_and_grad(x0)
    grad_inf = float(abs(g0).max())
    inverse = d = None
    if M is not None and grad_inf > cfg.inner_tol:
        D = _difference_columns(value_and_grad, x0, g0, range(len(P), len(free)))
        bordered = None if D is None else _bordered_steps(M, [D], [g0])[0]
        if bordered is not None:
            d, W, S = bordered
            inverse = partial(_bordered_inverse, M, W, S)
    return _lbfgs(value_and_grad, x0, cfg.inner_tol, cfg.inner_max_iter, inverse,
                  (f0, g0, grad_inf), d)


@pytest.mark.parametrize("model", ["linear", "logistic"])
def test_bordered_rounds_pick_the_units_plain_refits_pick(model, monkeypatch):
    """Each forward and foba round, adding or dropping, picks the unit that
    refitting every candidate plainly (no start Hessian) picks, at the
    plain refit's objective to rounding; a drop round returns the chosen
    removal's refit from the block of the round's start Hessian, bit for
    bit.  On grouped problems with permuted group ids and a preselected
    group."""
    greedy_add, greedy_drop = solvers._greedy_add, solvers._greedy_drop
    start_hessian = solvers._start_hessian
    picks, starts = [], []

    def recorded_start(*args):
        starts.append(start_hessian(*args))
        return starts[-1]

    def plain_choice(run, theta, changes, u, res):
        plain = []
        for _, units in changes:
            init, keep = run.problem.mask(theta, units)
            plain.append(restricted_minimize(run.problem, keep, init, run.cfg))
        chosen = int(np.argmin([r.objective for r in plain]))
        assert u == changes[chosen][0]
        f = plain[chosen].objective
        assert abs(res.objective - f) <= 1e-12 * (1.0 + abs(f))
        picks.append(u)
        return changes[chosen][1]

    def checked_add(run, theta, active):
        u, res = greedy_add(run, theta, active)
        current = np.flatnonzero(active)
        plain_choice(run, theta, [(v, np.sort(np.append(current, v)))
                                  for v in np.flatnonzero(~active)], u, res)
        return u, res

    def checked_drop(run, theta, units):
        u, res = greedy_drop(run, theta, units)
        kept = plain_choice(run, theta, [(v, units[units != v]) for v in units], u, res)
        P, M = starts[-1]
        keep = np.isin(P, run.problem.mask(theta, kept)[1])
        own = _lbfgs(run.problem.oracle.restricted(P[keep]).value_and_grad, theta[P[keep]],
                     run.cfg.inner_tol, run.cfg.inner_max_iter, _downdate(M, keep))
        params = np.zeros(run.problem.p)
        params[P[keep]] = own.params
        assert res.params.tobytes() == params.tobytes()
        assert res.objective == own.objective
        return u, res

    monkeypatch.setattr(solvers, "_start_hessian", recorded_start)
    monkeypatch.setattr(solvers, "_greedy_add", checked_add)
    monkeypatch.setattr(solvers, "_greedy_drop", checked_drop)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        groups = rng.permutation(np.repeat(np.arange(6), [1, 2, 3, 2, 1, 3]))
        spec = (models.ModelSpec("linear", 60, 12, 3, 5.0, seed) if model == "linear"
                else models.ModelSpec("logistic", 150, 12, 3, 1.0, seed))
        ds = models.generate(spec)
        prob = models.build_problem(ds, s=3, groups=groups,
                                    preselect=np.flatnonzero(groups == seed % 6))
        for kind in (SolverKind.FORWARD, SolverKind.FOBA):
            validate_solution(prob, solve(kind, prob))
    assert len(picks) >= 36 and all(M is not None for _, M in starts)


def _counting(problem):
    # the problem with its full-p and restricted value_and_grad calls counted
    counts = {"full": 0, "restricted": 0}
    oracle = problem.oracle

    def full(theta):
        counts["full"] += 1
        return oracle.value_and_grad(theta)

    def restrict(coords):
        sub = oracle.restricted(coords)

        def value_and_grad(z):
            counts["restricted"] += 1
            return sub.value_and_grad(z)

        return ObjectiveOracle(len(coords), sub.value, value_and_grad)

    counted = ObjectiveOracle(oracle.dim, oracle.value, full, scale=oracle.scale,
                              restrict=restrict)
    return replace(problem, oracle=counted), counts


def _add_round(problem, base, monkeypatch):
    # one forward round adding to the refit of the base units: its unit
    # and result, its oracle calls, the results of the candidate refits it
    # ran and the bordered inverses they formed
    theta = restricted_minimize(problem, base).params
    counted, counts = _counting(problem)
    active = np.zeros(problem.view.n_units, dtype=bool)
    active[base] = True
    refits, formed = [], []
    lbfgs, bordered_inverse = problem_module._lbfgs, problem_module._bordered_inverse

    def recorded(*args):
        refits.append(lbfgs(*args))
        return refits[-1]

    def recorded_inverse(*args):
        formed.append(args)
        return bordered_inverse(*args)

    with monkeypatch.context() as mp:
        mp.setattr(problem_module, "_lbfgs", recorded)
        mp.setattr(problem_module, "_bordered_inverse", recorded_inverse)
        u, res = solvers._greedy_add(solvers._Run(counted, SolverConfig()), theta, active)
    return u, res, counts, refits, formed


def test_least_squares_add_round_scores_every_candidate_without_a_refit(monkeypatch):
    """A least-squares add round takes its start Hessian (|P| + 1 calls)
    and one full-p gradient, then two restricted calls per candidate (its
    column difference and its converged Newton step): every candidate's
    refit ends after its first step, converged, and forms no bordered
    inverse, and the round picks the plain refits' unit at their
    objective."""
    ds = models.generate(models.ModelSpec("linear", 100, 60, 4, 5.0, seed=2))
    prob = models.build_problem(ds)
    base = np.array([5, 17, 33])
    u, res, counts, refits, formed = _add_round(prob, base, monkeypatch)
    assert len(refits) == prob.p - len(base)
    assert all(r.iterations == 1 and r.converged for r in refits)
    assert formed == []
    assert counts == {"full": 1, "restricted": len(base) + 1 + 2 * (prob.p - len(base))}
    assert res.iterations == 1 and res.converged and res.reason == "converged"
    plain = {v: restricted_minimize(prob, np.sort(np.append(base, v))).objective
             for v in range(prob.p) if v not in base}
    assert u == min(plain, key=plain.get)
    assert abs(res.objective - plain[u]) <= 1e-12 * (1.0 + abs(plain[u]))


def test_logistic_add_round_falls_back_after_its_first_candidate(monkeypatch):
    """Off a quadratic no candidate's Newton step meets inner_tol, so every
    candidate's refit from the round's bordered Hessian goes on past its
    first step, each started from the round's one full-p gradient.
    Against refits from the same Hessian that take their own start call,
    the round makes that full-p call more and one restricted start call
    fewer per candidate; it picks their unit."""
    ds = models.generate(models.ModelSpec("logistic", 200, 40, 4, 1.0, seed=3))
    prob = models.build_problem(ds)
    base = np.array([2, 17, 25])
    u, res, counts, refits, _ = _add_round(prob, base, monkeypatch)
    inactive = np.setdiff1d(np.arange(prob.p), base)
    assert len(refits) == len(inactive) and all(r.iterations >= 2 for r in refits)
    cfg = SolverConfig()
    theta = restricted_minimize(prob, base).params
    start = _start_hessian(prob, base, theta)
    counted, own_counts = _counting(prob)
    own = {v: _refit_from_round_hessian(counted, start, theta, [v], cfg) for v in inactive}
    assert u == min(own, key=lambda v: own[v].objective)
    f = own[u].objective
    assert abs(res.objective - f) <= 1e-12 * (1.0 + abs(f))
    assert own_counts["full"] == 0
    assert counts == {"full": 1,
                      "restricted": len(base) + 1 + own_counts["restricted"] - len(inactive)}


@st.composite
def _greedy_problems(draw):
    # a least-squares or trend problem with p <= 10, random groups, maybe
    # a preselected group, and maybe a warm start
    kind = draw(st.sampled_from(["linear", "trend"]))
    p = draw(st.integers(4, 10))
    seed = draw(st.integers(0, 2**16))
    spec = (models.ModelSpec("linear", 3 * p, p, 2, 5.0, seed) if kind == "linear"
            else models.ModelSpec("trend", p, p, 2, 10.0, seed))
    groups = None
    if draw(st.booleans()):
        ids = draw(st.lists(st.integers(0, p - 1), min_size=p, max_size=p))
        groups = np.unique(ids, return_inverse=True)[1]  # ids 0..G-1, each present
    preselect = None
    if draw(st.booleans()):
        first = draw(st.integers(0, p - 1))
        preselect = [first] if groups is None else np.flatnonzero(groups == groups[first])
    try:
        prob = models.build_problem(models.generate(spec), s=1, groups=groups,
                                    preselect=preselect)
    except ValueError:  # the preselection left no selectable unit
        assume(False)
    s = draw(st.integers(1, prob.view.n_units))
    prob = replace(prob, s=s)
    warm = None
    if draw(st.booleans()):
        warm = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=p, max_size=p)))
    return kind, prob, warm


@settings(max_examples=60, deadline=None)
@given(case=_greedy_problems())
def test_scored_add_rounds_match_plain_refits(case):
    """Every add candidate's objective is its plain refit's, and its
    refit's from the round's start Hessian with its own start call, within
    1e-10 (1 + |f|); every forward and foba add round picks the unit that
    refits from the start Hessian pick, and the unit plain refits pick.
    Least-squares rounds have candidates scored by their first step alone:
    their refits end there, converged."""
    kind, prob, warm = case
    cfg = SolverConfig(warm_start=warm)
    greedy_add, add_scorer = solvers._greedy_add, solvers._add_scorer
    scored = []

    def recorded_scorer(problem, start, x, config, candidates):
        candidates = list(candidates)
        results = list(add_scorer(problem, start, x, config, candidates))
        for coords, (free, res) in zip(candidates, results):
            if res.iterations == 1 and res.converged:  # the Newton step converged
                scored.append(res)
            plain = restricted_minimize(problem, np.sort(free), x, cfg)
            own = _refit_from_round_hessian(problem, start, x, coords, cfg)
            f = plain.objective
            assert abs(res.objective - f) <= 1e-10 * (1.0 + abs(f))
            assert abs(res.objective - own.objective) <= 1e-10 * (1.0 + abs(f))
        return results

    def checked_add(run, theta, active):
        u, res = greedy_add(run, theta, active)
        start = solvers._start_hessian(run.problem, np.flatnonzero(active), theta)
        plain, own = {}, {}
        for v in np.flatnonzero(~active):
            init, keep = run.problem.mask(theta, np.append(np.flatnonzero(active), v))
            plain[v] = restricted_minimize(run.problem, keep, init, cfg)
            own[v] = _refit_from_round_hessian(run.problem, start, theta,
                                               run.problem.view.coords_of([v]), cfg)
        assert u == min(own, key=lambda v: own[v].objective)
        assert u == min(plain, key=lambda v: plain[v].objective)
        return u, res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_add_scorer", recorded_scorer)
        mp.setattr(solvers, "_greedy_add", checked_add)
        for solver in (SolverKind.FORWARD, SolverKind.FOBA):
            validate_solution(prob, solve(solver, prob, cfg))
    assert scored or kind == "trend" or prob.groups is not None


def test_scope_and_foba_match_exhaustive_smoke():
    from sco.bench import exhaustive_oracle

    hits = {SolverKind.SCOPE: 0, SolverKind.FOBA: 0}
    for seed in range(10):
        spec = models.ModelSpec("linear", 40, 10, 3, 5.0, seed=seed)
        ds = models.generate(spec)
        prob = models.build_problem(ds, s=3)
        best = exhaustive_oracle(prob)
        for kind in hits:
            sol = solve(kind, prob)
            assert sol.objective >= best.objective - 1e-9
            if sol.objective <= best.objective + 1e-6:
                hits[kind] += 1
    assert hits[SolverKind.SCOPE] >= 8
    assert hits[SolverKind.FOBA] >= 8


def test_shared_problem_solves_concurrently():
    """A shared problem can be solved from several threads at once, with
    results bit-identical to serial solves; hookless user programs too."""
    ds = models.generate(models.ModelSpec("linear", 60, 30, 3, 5.0, seed=4))
    problems = [models.build_problem(ds)]
    problems += [ScoProblem(p=USER_PROGRAMS[name][1], s=3, oracle=user_oracle(name))
                 for name in USER_PROGRAMS]
    jobs = [(kind, prob) for prob in problems for kind in ALL_KINDS * 2]
    serial = [solve(kind, prob) for kind, prob in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(solve, kind, prob) for kind, prob in jobs]
            threaded = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    kinds = [kind for kind, _ in jobs]
    for kind, a, b in zip(kinds, serial, threaded):
        assert np.array_equal(a.support, b.support), kind
        assert np.array_equal(a.params, b.params), kind
        assert a.objective == b.objective, kind
        assert a.iterations == b.iterations and a.converged == b.converged, kind
        assert a.trace == b.trace, kind


def _counting_oracle(oracle, restrict=True):
    """The same objective through the public constructor; counts full-p
    ``value`` calls.  ``restrict=False`` drops the restrict hook."""
    calls = []

    def value(theta):
        calls.append(1)
        return oracle.value(theta)

    hook = oracle.restricted if restrict else None
    return ObjectiveOracle(oracle.dim, value, oracle.value_and_grad, scale=oracle.scale,
                           restrict=hook), calls


@pytest.mark.parametrize("seed", range(3))
def test_sparse_points_skip_full_value(seed):
    """Line-search trials and refit iterates are evaluated on their
    support, and so are empty-support refits: only the start point and
    the returned parameters cost a full-p ``value`` call."""
    ds = models.generate(models.ModelSpec("linear", 200, 400, 5, 5.0, seed=seed))
    oracle, calls = _counting_oracle(models.objective(ds))
    prob = ScoProblem(p=ds.p, s=5, oracle=oracle, n=ds.n)
    for kind in ALL_KINDS:
        calls.clear()
        solve(kind, prob)
        assert len(calls) <= 2, (kind, len(calls))


def test_backtracking_reuses_restricted_oracle(monkeypatch):
    """iht/htp halvings that keep the previous trial's support evaluate it
    on the same restricted oracle: one ``restricted()`` call per run of
    equal consecutive supports."""
    ds = models.generate(models.ModelSpec("linear", 100, 200, 5, 5.0, seed=0))
    full = models.objective(ds)
    restricts, supports = [], []

    def restrict(coords):
        restricts.append(coords)
        return full.restricted(coords)

    oracle = ObjectiveOracle(full.dim, full.value, full.value_and_grad, scale=full.scale,
                             restrict=restrict)
    prob = ScoProblem(p=ds.p, s=5, oracle=oracle, n=ds.n)
    threshold = solvers.hard_threshold

    def recording_threshold(v, s, view):
        units = threshold(v, s, view)
        supports.append(units)
        return units

    monkeypatch.setattr(solvers, "hard_threshold", recording_threshold)
    theta = np.zeros(ds.p)
    f = oracle.value(theta)
    trials = rebuilt = 0
    for _ in range(5):
        restricts.clear()
        supports.clear()
        _, theta, f = solvers._backtrack_threshold(prob, theta, f, oracle.gradient(theta))
        runs = [b for a, b in zip([None] + supports, supports) if not np.array_equal(a, b)]
        assert len(restricts) == len(runs)
        assert all(np.array_equal(c, u) for c, u in zip(restricts, runs))
        trials += len(supports)
        rebuilt += len(restricts)
    assert trials > rebuilt  # some halvings did keep their support


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("model", ["linear", "logistic"])
def test_restrict_hook_changes_no_decision(model, seed):
    """Solving with and without the restrict hook takes the same path.

    The logistic data are not separable, so every refit has a finite
    minimizer; on separable data refits run along a diverging ray and
    their end points differ by rounding between any two evaluation orders.
    """
    ds = models.generate(models.ModelSpec(model, 200, 30, 4, 1.0, seed=seed))
    hooked = models.build_problem(ds)
    stripped, _ = _counting_oracle(hooked.oracle, restrict=False)
    plain = ScoProblem(p=ds.p, s=hooked.s, oracle=stripped, n=ds.n)
    for kind in ALL_KINDS:
        a, b = solve(kind, hooked), solve(kind, plain)
        assert np.array_equal(a.support, b.support), kind
        assert a.iterations == b.iterations and a.converged == b.converged, kind
        assert abs(a.objective - b.objective) <= 1e-12 * (1.0 + abs(b.objective)), kind


@pytest.mark.parametrize("model", models.KINDS)
def test_objective_is_a_fresh_evaluation(model):
    """The stored objective is the full oracle's value at the returned
    parameters, bit for bit, with and without a warm start."""
    ds = models.generate(SMALL[model])
    prob = models.build_problem(ds)
    for kind in ALL_KINDS:
        sol = solve(kind, prob)
        assert sol.objective == prob.oracle.value(sol.params), kind
        warm = solve(kind, prob, SolverConfig(warm_start=0.5 * sol.params))
        assert warm.objective == prob.oracle.value(warm.params), kind


def test_solve_rejects_bad_input():
    with pytest.raises(ValueError):
        solve("nonsense", None)
    with pytest.raises(TypeError):
        solve("omp", "not a problem")
    prob = models.build_problem(models.generate(SMALL["linear"]))
    short = SolverConfig(warm_start=np.ones(prob.p - 1))
    for kind in ALL_KINDS:
        with pytest.raises(ValueError, match="warm_start has the wrong shape"):
            solve(kind, prob, short)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_trials_outside_the_domain_are_rejected(kind):
    """A line-search trial outside the objective's domain halves the step,
    in iht and htp as in the refit, so every solver returns a valid
    solution."""
    oracle = build_objective(lambda th: sco.vsum(th) + sco.log(1.0 - sco.sqnorm(th)), 4)
    prob = ScoProblem(p=4, s=2, oracle=oracle)
    validate_solution(prob, solve(kind, prob))


def test_foba_stops_on_a_cycle():
    """On an objective unbounded below at its domain's edge, foba's rounds
    return to an earlier round's active set; it stops there instead of
    running to max_iter, and does not claim convergence."""
    oracle = build_objective(lambda th: sco.vsum(th) + sco.log(1.0 - sco.sqnorm(th)), 4)
    prob = ScoProblem(p=4, s=2, oracle=oracle)
    sol = solve("foba", prob)
    validate_solution(prob, sol)
    assert sol.iterations < SolverConfig().max_iter
    assert not sol.converged


@pytest.mark.parametrize("spec", [models.ModelSpec("logistic", 200, 40, 5, 1.0, seed=13),
                                  models.ModelSpec("trend", 200, 200, 5, 10.0, seed=19)],
                         ids=["logistic", "trend"])
def test_grasp_stops_on_a_cycle(spec):
    """grasp's pruned support swings between two sets on these instances; it
    stops when a support comes back instead of running to max_iter, and
    does not claim convergence."""
    prob = models.build_problem(models.generate(spec))
    sol = solve("grasp", prob)
    validate_solution(prob, sol)
    assert sol.iterations < SolverConfig().max_iter
    assert not sol.converged
