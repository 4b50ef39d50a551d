"""Shared solver contracts: orthonormal exactness, the planted
compressive-sensing instance, feasibility/monotonicity/termination
invariants, warm starts, and permutation equivariance."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import sco
from sco import models, solvers
from sco.autodiff import ObjectiveOracle, build_objective
from sco.problem import ScoProblem, SolverConfig, restricted_minimize, validate_solution
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


@pytest.mark.parametrize("model", ["linear", "logistic"])
def test_bordered_rounds_pick_the_units_plain_refits_pick(model, monkeypatch):
    """Each forward and foba round, adding or dropping, picks the unit that
    refitting every candidate plainly (no start Hessian) picks and returns
    that plain refit, bit for bit; on grouped problems with permuted group
    ids and a preselected group."""
    best_refit, start_hessian = solvers._best_refit, solvers._start_hessian
    picks, starts = [], []

    def recorded_start(*args):
        starts.append(start_hessian(*args))
        return starts[-1]

    def checked(run, theta, base, changes):
        changes = list(changes)
        u, res = best_refit(run, theta, base, changes)
        plain = []
        for _, units in changes:
            init, keep = run.problem.mask(theta, units)
            plain.append(restricted_minimize(run.problem, keep, init, run.cfg))
        chosen = int(np.argmin([r.objective for r in plain]))
        assert u == changes[chosen][0]
        assert res.params.tobytes() == plain[chosen].params.tobytes()
        assert res.objective == plain[chosen].objective
        picks.append(u)
        return u, res

    monkeypatch.setattr(solvers, "_start_hessian", recorded_start)
    monkeypatch.setattr(solvers, "_best_refit", checked)
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
    assert len(picks) >= 36 and all(start is not None for start in starts)


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
