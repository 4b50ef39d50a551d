"""Hard thresholding, feasibility projection, the restricted minimizer,
and the solution validator."""

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sco
from sco import models
from sco import problem as problem_module
from sco.autodiff import EvaluationError, ObjectiveOracle, build_objective, fd_gradient
from sco.bench import support_metrics
from sco.problem import (
    GroupView,
    ScoProblem,
    SolverConfig,
    StartHessian,
    _lbfgs,
    _lbfgs_direction,
    _start_hessian,
    hard_threshold,
    project_feasible,
    restricted_minimize,
    top_units,
    validate_solution,
)


def _ols_problem(X, y, s, **kw):
    oracle = build_objective(lambda th: 0.5 * sco.sqnorm(y - X @ th), X.shape[1], scale="rss")
    return ScoProblem(p=X.shape[1], s=s, oracle=oracle, n=X.shape[0], **kw)


def test_hard_threshold_singletons():
    view = GroupView(3)
    assert np.array_equal(hard_threshold([3.0, -5.0, 1.0], 2, view), [0, 1])
    assert np.array_equal(hard_threshold([3.0, -5.0, 1.0], np.int64(1), view), [1])
    # a negative or fractional count is refused, not read as a slice bound
    for count in (-1, 1.5, 4):
        with pytest.raises(ValueError):
            hard_threshold([3.0, -5.0, 1.0], count, view)
        with pytest.raises(ValueError):
            top_units([1.0, 2.0, 3.0], count)
    assert len(top_units([1.0, 2.0, 3.0], 0)) == 0


_EDGE_SCORES = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_EDGE_SCORES, st.floats(-3.0, 3.0)), min_size=1, max_size=4)
       .flatmap(lambda palette: st.lists(st.sampled_from(palette), min_size=1, max_size=40)))
def test_top_units_is_the_head_of_a_stable_sort(values):
    # a palette of at most four values makes ties common; NaN ranks last
    # and -0.0 ties 0.0
    scores = np.array(values)
    for k in range(len(scores) + 1):
        expected = np.sort(np.argsort(-scores, kind="stable")[:k])
        chosen = top_units(scores, k)
        assert chosen.dtype == expected.dtype
        assert np.array_equal(chosen, expected), (scores, k)


def test_hard_threshold_groups():
    view = GroupView(4, groups=[0, 0, 1, 1])
    assert np.array_equal(hard_threshold([1.0, 1.0, 9.0, 0.0], 1, view), [1])


def test_group_view_dimension_must_be_an_integer():
    # a fractional p would be cut down to 3 coordinates
    for p in (3.7, 3.0, "3"):
        with pytest.raises(ValueError, match="p must be an integer"):
            GroupView(p)
    assert GroupView(np.int64(3)).p == 3


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_group_view_matches_a_plain_grouping(data):
    # permuted group ids, some groups wholly preselected; ungrouped draws
    # make every coordinate its own group
    p = data.draw(st.integers(1, 40))
    if data.draw(st.booleans()):
        size = data.draw(st.integers(1, p))
        extra = data.draw(st.lists(st.integers(0, size - 1), min_size=p - size, max_size=p - size))
        ids = data.draw(st.permutations(list(range(size)) + extra))
        groups = np.array(ids)
    else:
        size, ids, groups = p, list(range(p)), None
    held = data.draw(st.sets(st.integers(0, size - 1), max_size=size - 1))
    preselect = np.array([j for j in range(p) if ids[j] in held], dtype=int)
    view = GroupView(p, groups, preselect)

    free = [g for g in range(size) if g not in held]
    members = [[j for j in range(p) if ids[j] == g] for g in free]
    assert view.n_units == len(free)
    assert view.unit_of.tolist() == [free.index(g) if g not in held else -1 for g in ids]
    for u in range(view.n_units):
        assert view.coords_of([u]).tolist() == members[u]
    units = data.draw(st.lists(st.integers(0, len(free) - 1), unique=True))
    assert view.coords_of(units).tolist() == sorted(j for u in units for j in members[u])
    # eighths square and add exactly, so the norms must match to the bit
    v = data.draw(st.lists(st.integers(-999, 999).map(lambda i: i / 8), min_size=p, max_size=p))
    norms = [math.sqrt(sum(v[j] * v[j] for j in coords)) for coords in members]
    assert view.unit_norms(v).tolist() == norms


def test_hard_threshold_tie_breaks_low():
    view = GroupView(2)
    assert np.array_equal(hard_threshold([2.0, -2.0], 1, view), [0])


def test_project_feasible_basic():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((6, 3))
    y = rng.standard_normal(6)
    prob = _ols_problem(X, y, 2)
    out = project_feasible([3.0, -5.0, 1.0], prob)
    assert np.array_equal(out, [3.0, -5.0, 0.0])
    for wrong in ([3.0, -5.0], [3.0, -5.0, 1.0, 9.0]):
        with pytest.raises(ValueError):
            project_feasible(wrong, prob)


def test_project_feasible_full_budget_keeps_vector():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((6, 4))
    y = rng.standard_normal(6)
    prob = _ols_problem(X, y, 4)
    v = rng.standard_normal(4)
    assert np.array_equal(project_feasible(v, prob), v)


def test_project_feasible_preselect_exempt():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((6, 3))
    y = rng.standard_normal(6)
    prob = _ols_problem(X, y, 1, preselect=[2])
    out = project_feasible([3.0, -5.0, 1.0], prob)
    assert np.array_equal(out, [0.0, -5.0, 1.0])


def test_project_feasible_idempotent():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((10, 6))
    y = rng.standard_normal(10)
    prob = _ols_problem(X, y, 3)
    v = rng.standard_normal(6)
    once = project_feasible(v, prob)
    assert np.array_equal(project_feasible(once, prob), once)


def test_restricted_minimize_orthonormal_is_exact():
    rng = np.random.default_rng(4)
    Q, _ = np.linalg.qr(rng.standard_normal((20, 10)))
    y = rng.standard_normal(20)
    prob = _ols_problem(Q, y, 3)
    support = np.array([1, 4, 7])
    res = restricted_minimize(prob, support, None)
    target = Q.T @ y
    assert np.max(np.abs(res.params[support] - target[support])) <= 1e-8
    off = np.setdiff1d(np.arange(10), support)
    assert np.all(res.params[off] == 0.0)
    # an unsorted or repeated support is refit over its sorted unique set
    for listed in ([7, 1, 4], [4, 1, 7, 4]):
        again = restricted_minimize(prob, listed, None)
        assert again.params.tobytes() == res.params.tobytes()
        assert again.objective == res.objective and again.iterations == res.iterations


def test_restricted_minimize_empty_support():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((8, 4))
    y = rng.standard_normal(8)
    prob = _ols_problem(X, y, 2)
    res = restricted_minimize(prob, [], None)
    assert np.array_equal(res.params, np.zeros(4))
    assert res.objective == pytest.approx(0.5 * float(y @ y))


def test_restricted_minimize_logistic_stationary():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((50, 5))
    theta_true = 0.5 * rng.standard_normal(5)
    prob_lin = X @ theta_true
    y = (rng.uniform(size=50) < 1.0 / (1.0 + np.exp(-prob_lin))).astype(float)

    def nll(th):
        t = X @ th
        return sco.vsum(sco.log1pexp(t)) - sco.dot(y, t)

    oracle = build_objective(nll, 5, scale="nll")
    prob = ScoProblem(p=5, s=5, oracle=oracle, n=50)
    res = restricted_minimize(prob, np.arange(5), None)
    grad = oracle.gradient(res.params)
    assert np.max(np.abs(grad)) <= 1e-6
    fd = fd_gradient(oracle, res.params)
    assert np.max(np.abs(fd)) <= 1e-4


def test_restricted_minimize_monotone_vs_init():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((30, 8))
    y = rng.standard_normal(30)
    prob = _ols_problem(X, y, 4)
    support = np.array([0, 2, 5])
    init = np.zeros(8)
    init[support] = rng.standard_normal(3) * 10.0
    f_init = prob.oracle.value(init)
    res = restricted_minimize(prob, support, init)
    assert res.objective <= f_init + 1e-12


def test_restricted_minimize_rejects_bad_init():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((6, 4))
    y = rng.standard_normal(6)
    prob = _ols_problem(X, y, 2)
    bad = np.ones(4)
    with pytest.raises(ValueError):
        restricted_minimize(prob, [0, 1], bad)
    # a wrong shape is named against p, not against the restricted dimension
    prob = models.build_problem(models.generate(models.ModelSpec("linear", 40, 12, 3, 5.0)))
    for init in (np.zeros(5), np.zeros((12, 1))):
        with pytest.raises(ValueError, match="p=12"):
            restricted_minimize(prob, [0, 1], init)


@pytest.mark.parametrize("support, match", [([1.9, 4.2], "integers"), ([1.0, 4.0], "integers"),
                                            ([True, False, True], "integers"),
                                            ([0, 12], "out of range"), ([-1, 2], "out of range")])
def test_restricted_minimize_rejects_bad_support(support, match):
    # a fractional index would be cut down and a boolean mask read as 0/1 indices
    prob = models.build_problem(models.generate(models.ModelSpec("linear", 40, 12, 3, 5.0)))
    with pytest.raises(ValueError, match=match):
        restricted_minimize(prob, support)


def test_restricted_minimize_where_the_gradient_is_undefined():
    # the first trial lands on |theta| = 0, where sqrt has no derivative:
    # the trial is rejected, not raised
    oracle = build_objective(lambda th: sco.sqrt(th @ th), 2)
    prob = ScoProblem(p=2, s=1, oracle=oracle)
    res = restricted_minimize(prob, [0], np.array([1.0, 0.0]))
    assert np.all(np.isfinite(res.params)) and np.isfinite(res.objective)
    assert res.objective < 1.0
    assert res.params[1] == 0.0


def test_restricted_minimize_init_off_the_free_coordinates():
    # NaN off the free coordinates is not zero and is refused; -0.0 is zero
    prob = models.build_problem(models.generate(models.ModelSpec("linear", 40, 12, 3, 5.0)))
    init = np.zeros(12)
    init[[0, 1]] = [0.5, -0.25]
    plain = restricted_minimize(prob, [0, 1], init)
    init[5] = np.nan
    with pytest.raises(ValueError, match="zero off support"):
        restricted_minimize(prob, [0, 1], init)
    init[5] = -0.0
    signed = restricted_minimize(prob, [0, 1], init)
    assert signed.params.tobytes() == plain.params.tobytes()
    assert signed.objective == plain.objective


def _two_loop_reference(g, S, Y):
    # textbook two-loop recursion (Nocedal & Wright, Algorithm 7.4), its
    # initial matrix scaled by s.y / y.y of the newest pair
    q = g.copy()
    rho = [1.0 / float(s @ y) for s, y in zip(S, Y)]
    alpha = [0.0] * len(S)
    for i in reversed(range(len(S))):
        alpha[i] = rho[i] * float(S[i] @ q)
        q -= alpha[i] * Y[i]
    if S:
        q *= float(S[-1] @ Y[-1]) / float(Y[-1] @ Y[-1])
    for i in range(len(S)):
        beta = rho[i] * float(Y[i] @ q)
        q += S[i] * (alpha[i] - beta)
    return -q


@pytest.mark.parametrize("pairs", [0, 1, 5, 12])
def test_lbfgs_direction_matches_the_textbook_two_loop(pairs):
    rng = np.random.default_rng(pairs)
    M = rng.standard_normal((7, 7))
    H = M @ M.T + np.eye(7)
    S = [rng.standard_normal(7) for _ in range(pairs)]
    Y = [H @ s for s in S]
    R = [1.0 / float(s.dot(y)) for s, y in zip(S, Y)]
    gamma = float(S[-1].dot(Y[-1])) / float(Y[-1].dot(Y[-1])) if S else None
    for _ in range(3):
        g = rng.standard_normal(7)
        assert np.array_equal(_lbfgs_direction(g, S, Y, R, gamma), _two_loop_reference(g, S, Y))


def test_lbfgs_carries_the_scaling_of_the_newest_stored_pair(monkeypatch):
    # a double well: negative curvature makes the curvature test skip pairs,
    # and the run stores more pairs than the memory keeps; every direction
    # must equal the textbook recursion over the pairs the minimizer kept
    rng = np.random.default_rng(0)
    M = rng.standard_normal((12, 12))
    A = M @ M.T / 12

    def value_and_grad(x):
        return float(0.5 * x @ A @ x + np.sum(x**4 / 4 - x**2)), A @ x + x**3 - 2.0 * x

    newest = []

    def checked(g, S, Y, R, gamma):
        assert R == [1.0 / float(s @ y) for s, y in zip(S, Y)]
        d = _lbfgs_direction(g, S, Y, R, gamma)
        assert np.array_equal(d, _two_loop_reference(g, S, Y))
        newest.append(S[-1] if S else None)
        return d

    monkeypatch.setattr("sco.problem._lbfgs_direction", checked)
    res = _lbfgs(value_and_grad, rng.standard_normal(12) * 0.1, 1e-10, 200)
    assert res.iterations == len(newest) > 20
    stored = [s for i, s in enumerate(newest) if s is not None and (i == 0 or s is not newest[i - 1])]
    skipped = sum(s is not None and s is prev for prev, s in zip(newest, newest[1:]))
    assert skipped >= 1
    assert len(stored) > 10  # the memory of 10 pairs was full and dropped its oldest


def test_line_search_interpolates_after_an_overshooting_first_trial():
    # f = 50 (x - 0.01)^2 from 0: the first trial, a unit step along -g,
    # lands at x = 1, a hundred times too far.  Halving rejected six trials;
    # the quadratic through f, g.d and the trial value needs at most two
    prob = _ols_problem(np.array([[10.0]]), np.array([0.1]), 1)
    sub = prob.oracle.restricted([0])
    trials = []

    def counted(x):
        trials.append(float(x[0]))
        return sub.value_and_grad(x)

    res = _lbfgs(counted, np.zeros(1), 1e-8, 1)
    assert res.iterations == 1 and res.last_step is not None
    assert trials[:2] == [0.0, 1.0]
    rejected = len(trials) - 2  # less the start and the accepted trial
    assert rejected <= 2, trials


def test_group_and_preselect_validation():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((6, 4))
    y = rng.standard_normal(6)
    with pytest.raises(ValueError):
        _ols_problem(X, y, 3, groups=[0, 0, 1, 1])  # s > number of groups
    with pytest.raises(ValueError):
        _ols_problem(X, y, 1, groups=[0, 0, 2, 2])  # missing id 1
    with pytest.raises(ValueError):
        _ols_problem(X, y, 1, groups=[0, 0, 1, 1], preselect=[1])  # split group
    prob = _ols_problem(X, y, 1, groups=[0, 0, 1, 1], preselect=[0, 1])
    assert prob.view.n_units == 1
    # counts must be integers; numpy integers are
    with pytest.raises(ValueError, match="s must be an integer"):
        _ols_problem(X, y, 2.5)
    with pytest.raises(ValueError, match="s must be an integer"):
        _ols_problem(X, y, 2.0)
    with pytest.raises(ValueError, match="p must be an integer"):
        ScoProblem(p=4.0, s=2, oracle=prob.oracle)
    assert _ols_problem(X, y, np.int64(2)).s == 2
    # so is the sample size, which the information criteria read
    with pytest.raises(ValueError, match="n must be an integer"):
        ScoProblem(p=4, s=2, oracle=prob.oracle, n=2.5)
    assert ScoProblem(p=4, s=2, oracle=prob.oracle, n=np.int64(6)).n == 6
    assert ScoProblem(p=4, s=2, oracle=prob.oracle, n=None).n is None
    ds = models.generate(models.ModelSpec("linear", 20, 6, 2, 5.0, seed=0))
    with pytest.raises(ValueError, match="s must be an integer"):
        models.build_problem(ds, s=2.5)


def _problem(**kw):
    return ScoProblem(p=4, s=1, oracle=build_objective(sco.sqnorm, 4), **kw)


def _rows(rows):
    return models.generate(models.ModelSpec("linear", 6, 5, 2, 5.0, seed=0)).subset(rows)


def _solution(support=(0,), params=np.zeros(4)):
    return sco.ScoSolution(params=params, support=support, objective=0.0, iterations=1,
                           converged=True)


# every entrance that takes an index array, as (size, call): indices lie in 0..size-1
_INDEX_ENTRANCES = {
    "restricted": (4, lambda idx: build_objective(sco.sqnorm, 4).restricted(idx)),
    "preselect": (4, lambda idx: _problem(preselect=idx)),
    "groups": (4, lambda idx: _problem(groups=idx)),
    "view-preselect": (5, lambda idx: GroupView(5, preselect=idx)),
    "view-groups": (5, lambda idx: GroupView(5, groups=idx)),
    "refit": (4, lambda idx: restricted_minimize(_problem(), idx)),
    "validate": (4, lambda idx: validate_solution(_problem(), _solution(support=idx))),
    "support": (3, lambda idx: support_metrics([0, 2], idx, 3)),
    "true-support": (3, lambda idx: support_metrics(idx, [0, 2], 3)),
    "subset": (6, _rows),
}
_BAD_INDICES = {  # case: (index array for a size, refusal)
    "fraction": (lambda size: [0.5, 1.5], "integers"),
    "mask": (lambda size: [True] + [False] * (size - 1), "integers"),
    "2d": (lambda size: [[0], [1]], "1-D"),
    "negative": (lambda size: [-1, 0], "out of range"),
    "beyond": (lambda size: [0, size], "out of range"),
}
# every entrance that takes a length-p vector, p = 4
_VECTOR_ENTRANCES = {
    "warm-start": (4, lambda v: sco.solve("omp", _problem(), SolverConfig(warm_start=v))),
    "init": (4, lambda v: restricted_minimize(_problem(), [0], v)),
    "project": (4, lambda v: project_feasible(v, _problem())),
    "params": (4, lambda v: validate_solution(_problem(), _solution(params=v))),
    "hard-threshold": (4, lambda v: hard_threshold(v, 1, GroupView(4))),
    "unit-norms": (4, lambda v: GroupView(4, groups=[0, 0, 1, 1]).unit_norms(v)),
    "value": (4, lambda v: build_objective(sco.sqnorm, 4).value(v)),
    "value-and-grad": (4, lambda v: build_objective(sco.sqnorm, 4).value_and_grad(v)),
    "restricted-value": (4, lambda v: build_objective(sco.sqnorm, 4).restricted([3, 2, 1, 0])
                         .value(v)),
}
_BAD_VECTORS = {
    "short": (lambda p: np.ones(p - 1), "wrong shape"),
    "long": (lambda p: np.arange(p + 3.0), "wrong shape"),
    "2d": (lambda p: np.ones((p, 1)), "wrong shape"),
}
_LISTED = ["preselect-mask", "preselect-fraction", "groups-fraction", "view-preselect-negative",
           "view-preselect-beyond", "view-preselect-mask", "view-groups-fraction",
           "view-groups-short", "view-groups-long", "subset-mask", "support-mask",
           "support-fraction", "view-groups-gap", "view-groups-split", "view-preselect-all",
           "view-preselect-all-groups", "view-p-zero"]
_CROSSED = [(partial(call, bad(size)), match, f"{name}-{case}")
            for entrances, cases in ((_INDEX_ENTRANCES, _BAD_INDICES),
                                     (_VECTOR_ENTRANCES, _BAD_VECTORS))
            for name, (size, call) in entrances.items()
            for case, (bad, match) in cases.items()
            if f"{name}-{case}" not in _LISTED]


@pytest.mark.parametrize("make, match", [
    (lambda: _problem(preselect=[True, False, True, False]), "integers"),
    (lambda: _problem(preselect=[1.7]), "integers"),
    (lambda: _problem(groups=[0.2, 0.9, 1.5, 1.1]), "integers"),
    (lambda: GroupView(5, preselect=[-1]), "out of range"),
    (lambda: GroupView(5, preselect=[5]), "out of range"),
    (lambda: GroupView(3, preselect=[True, False, True]), "integers"),
    (lambda: GroupView(2, groups=[0.5, 1.5]), "integers"),
    (lambda: GroupView(5, groups=[0, 1]), "one id per coordinate"),
    (lambda: GroupView(5, groups=[0, 0, 1, 1, 1, 2]), "one id per coordinate"),
    (lambda: _rows([True, False, True, False, False, False]), "integers"),
    (lambda: support_metrics([0, 2], [True, False, True], 3), "integers"),
    (lambda: support_metrics([0.5, 2.0], [0, 2], 3), "integers"),
    (lambda: GroupView(4, groups=[0, 0, 2, 2]), "0..G-1"),
    (lambda: GroupView(4, groups=[0, 0, 1, 1], preselect=[1]), "group 0 mixes"),
    (lambda: GroupView(3, preselect=[0, 1, 2]), "selectable"),
    (lambda: GroupView(4, groups=[1, 1, 0, 0], preselect=[0, 1, 2, 3]), "selectable"),
    (lambda: GroupView(0), "at least 1"),
    *[(make, match) for make, match, _ in _CROSSED],
], ids=_LISTED + [name for _, _, name in _CROSSED])
def test_index_inputs_refuse_what_they_would_misread(make, match):
    # a boolean mask read as 0/1 indices, a fraction cut down, a 2-D array
    # flattened or a negative index wrapped round would each go on silently
    # with other indices; so would a vector of another length, read in part,
    # group ids with a gap renumbered, a group split by preselection, or a
    # view left with no selectable unit
    with pytest.raises(ValueError, match=match):
        make()


def test_preselect_budget_excludes_preselected():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((6, 4))
    y = rng.standard_normal(6)
    prob = _ols_problem(X, y, 3, preselect=[0])
    assert prob.view.n_units == 3
    with pytest.raises(ValueError):
        _ols_problem(X, y, 4, preselect=[0])


def test_validator_catches_violations():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((8, 4))
    y = rng.standard_normal(8)
    prob = _ols_problem(X, y, 2)
    res = restricted_minimize(prob, [1, 3], None)
    sol = sco.ScoSolution(params=res.params, support=np.array([1, 3]),
                          objective=prob.oracle.value(res.params),
                          iterations=1, converged=True)
    validate_solution(prob, sol)
    bad = sco.ScoSolution(params=res.params, support=np.array([1]),
                          objective=prob.oracle.value(res.params),
                          iterations=1, converged=True)
    with pytest.raises(ValueError):
        validate_solution(prob, bad)  # params nonzero off the declared support
    wrong_obj = sco.ScoSolution(params=res.params, support=np.array([1, 3]),
                                objective=0.0, iterations=1, converged=True)
    with pytest.raises(ValueError):
        validate_solution(prob, wrong_obj)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(TypeError):
        SolverConfig(step_size=-1.0)
    for field in ("max_iter", "inner_max_iter"):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SolverConfig(**{field: 2.5})
        assert getattr(SolverConfig(**{field: np.int32(3)}), field) == 3


def _logistic_refit_at_floor():
    # the first trial of the last iteration rises by more than the floor
    # while its predicted decrease is already below it
    ds = models.generate(models.ModelSpec("logistic", 100, 10, 3, 3.0, seed=3))
    return models.build_problem(ds, s=5), [0, 1, 2, 4, 9], None


def _logistic_one_iteration():
    ds = models.generate(models.ModelSpec("logistic", 100, 10, 3, 1.0, seed=0))
    return models.build_problem(ds, s=3), [0, 1, 2], SolverConfig(inner_max_iter=1)


def _finite_only_at_start():
    # log(1 - 1e300 |theta|^2) is finite at 0 and nowhere a halved trial lands
    oracle = build_objective(lambda th: sco.vsum(th) + sco.log(1.0 - 1e300 * sco.sqnorm(th)), 2)
    return ScoProblem(p=2, s=2, oracle=oracle), [0, 1], None


def _orthonormal_ols():
    Q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((20, 10)))
    return _ols_problem(Q, np.random.default_rng(5).standard_normal(20), 3), [1, 4, 7], None


@pytest.mark.parametrize("make, reason", [
    (_orthonormal_ols, "converged"),
    (_logistic_one_iteration, "max_iter"),
    (_finite_only_at_start, "line_search"),
    (_logistic_refit_at_floor, "floor"),
])
def test_restricted_minimize_reason(make, reason):
    prob, support, config = make()
    res = restricted_minimize(prob, support, None, config)
    assert res.reason == reason
    tol = (config or SolverConfig()).inner_tol
    assert res.converged == (res.grad_inf <= tol)
    assert res.objective <= prob.oracle.value(np.zeros(prob.p))


def test_refit_value_calls_stay_low():
    """Refits near the precision floor must not pay for decreases f cannot
    resolve; each line-search trial costs one oracle call."""
    ds = models.generate(models.ModelSpec("logistic", 300, 40, 3, 0.5, seed=7))
    base = models.build_problem(ds)
    counts = {"value": 0, "value_and_grad": 0, "restrict": 0}

    def counting(oracle, restrict):
        def value(theta):
            counts["value"] += 1
            return oracle.value(theta)

        def value_and_grad(theta):
            counts["value_and_grad"] += 1
            return oracle.value_and_grad(theta)

        return sco.ObjectiveOracle(oracle.dim, value, value_and_grad,
                                   scale=oracle.scale, restrict=restrict)

    def restrict(coords):
        counts["restrict"] += 1
        return counting(base.oracle.restricted(coords), None)

    prob = ScoProblem(p=base.p, s=base.s, oracle=counting(base.oracle, restrict), n=base.n)
    truth = ds.support_true
    supports = [truth, truth[:2], truth[1:]]
    supports += [np.sort(np.append(truth, j)) for j in range(0, 40, 4) if j not in truth]
    for support in supports:
        restricted_minimize(prob, support)
    assert counts["restrict"] == len(supports)
    calls = counts["value"] + counts["value_and_grad"]
    assert calls / len(supports) <= 15.0, counts


def _newton_logistic(X, y, steps=50):
    b = np.zeros(X.shape[1])
    for _ in range(steps):
        prob = 1.0 / (1.0 + np.exp(-(X @ b)))
        hess = X.T @ (X * (prob * (1.0 - prob))[:, None])
        b -= np.linalg.solve(hess, X.T @ (prob - y))
    return b


@pytest.mark.parametrize("spec, sizes, reference", [
    (lambda seed: models.ModelSpec("linear", 100, 60, 4, 5.0, seed), (1, 3, 5, 8),
     lambda X, y: np.linalg.lstsq(X, y, rcond=None)[0]),
    (lambda seed: models.ModelSpec("logistic", 300, 40, 3, 0.5, seed), (1, 3, 5),
     _newton_logistic),
], ids=["linear", "logistic"])
def test_refit_matches_closed_form(spec, sizes, reference):
    """Refit coefficients agree with an independent solver to 1e-8,
    measured as |error| / (1 + |coefficient|)."""
    worst = 0.0
    for seed in range(40):
        ds = models.generate(spec(seed))
        prob = models.build_problem(ds)
        rng = np.random.default_rng(seed)
        for k in sizes:
            support = np.sort(rng.choice(ds.p, size=k, replace=False))
            res = restricted_minimize(prob, support)
            ref = reference(ds.X[:, support], ds.y)
            err = np.abs(res.params[support] - ref) / (1.0 + np.abs(ref))
            worst = max(worst, float(np.max(err)))
    assert worst <= 1e-8


def _newton_builds(monkeypatch):
    # every difference Hessian a refit builds, None where it fell back
    built = []
    build = problem_module._difference_newton

    def recorded(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(problem_module, "_difference_newton", recorded)
    return built


@pytest.mark.parametrize("seed", range(5))
def test_least_squares_refit_ends_in_one_newton_step(seed, monkeypatch):
    """A quadratic refit takes one gradient step, k gradient differences
    and one Newton step, and ends converged."""
    ds = models.generate(models.ModelSpec("linear", 100, 60, 4, 5.0, seed))
    support = np.sort(np.random.default_rng(seed).choice(ds.p, size=4, replace=False))
    sub = models.build_problem(ds).oracle.restricted(support)
    calls = []

    def counted(z):
        calls.append(z)
        return sub.value_and_grad(z)

    built = _newton_builds(monkeypatch)
    res = _lbfgs(counted, np.zeros(4), 1e-8, 100)
    assert res.reason == "converged" and res.iterations <= 2
    assert len(calls) <= len(support) + 4
    assert len(built) == 1 and built[0] is not None
    ref = np.linalg.lstsq(ds.X[:, support], ds.y, rcond=None)[0]
    assert np.max(np.abs(res.params - ref) / (1.0 + np.abs(ref))) <= 1e-8


def _same_refit(a, b):
    assert a.params.tobytes() == b.params.tobytes()
    assert (a.reason, a.iterations, a.last_step) == (b.reason, b.iterations, b.last_step)


def _counted(problem):
    # the problem with every value_and_grad call of its restricted oracles
    # recorded, by the point it was made at
    calls = []
    oracle = problem.oracle

    def restrict(coords):
        sub = oracle.restricted(coords)

        def value_and_grad(z):
            calls.append(z.copy())
            return sub.value_and_grad(z)

        return ObjectiveOracle(len(coords), sub.value, value_and_grad)

    counted = ObjectiveOracle(oracle.dim, oracle.value, oracle.value_and_grad,
                              scale=oracle.scale, restrict=restrict)
    return replace(problem, oracle=counted), calls


def _round_start(ds, base):
    # the least-squares refit of the base units and the start Hessian there
    prob = models.build_problem(ds)
    theta = restricted_minimize(prob, base).params
    return prob, theta, _start_hessian(prob, base, theta)


@pytest.mark.parametrize("seed", range(5))
def test_least_squares_add_candidate_takes_one_bordered_newton_step(seed, monkeypatch):
    """An add candidate borders the round's Hessian by its new column: the
    start call, one difference and one Newton step, converged."""
    ds = models.generate(models.ModelSpec("linear", 100, 60, 4, 5.0, seed))
    picked = np.random.default_rng(seed).choice(ds.p, size=4, replace=False)
    base = np.sort(picked[:3])
    prob, theta, start = _round_start(ds, base)
    assert start is not None and np.array_equal(start.coords, base)
    counted, calls = _counted(prob)
    built = _newton_builds(monkeypatch)
    support = np.sort(picked)
    res = restricted_minimize(counted, support, theta, None, start)
    assert res.reason == "converged" and res.iterations == 1 and res.last_step == 1.0
    assert len(calls) == 2 + 1
    assert len(built) == 1 and built[0] is not None
    ref = np.linalg.lstsq(ds.X[:, support], ds.y, rcond=None)[0]
    assert np.max(np.abs(res.params[support] - ref) / (1.0 + np.abs(ref))) <= 1e-8


def test_drop_candidate_starts_from_a_block_of_the_round_hessian(monkeypatch):
    """A drop candidate's Hessian is a block of the round's: no difference
    calls, and on least squares one exact Newton step."""
    ds = models.generate(models.ModelSpec("linear", 100, 60, 4, 5.0, seed=0))
    base = np.array([4, 11, 30, 52])
    prob, theta, start = _round_start(ds, base)
    counted, calls = _counted(prob)
    built = _newton_builds(monkeypatch)
    for dropped in base:
        support = base[base != dropped]
        init = prob.mask(theta, support)[0]
        calls.clear()
        res = restricted_minimize(counted, support, init, None, start)
        assert res.reason == "converged" and res.iterations == 1
        assert len(calls) == 2  # the start point and the accepted Newton trial
        ref = np.linalg.lstsq(ds.X[:, support], ds.y, rcond=None)[0]
        assert np.max(np.abs(res.params[support] - ref) / (1.0 + np.abs(ref))) <= 1e-8
    assert len(built) == len(base) and all(b is not None for b in built)


def test_logistic_candidate_keeps_its_start_hessian_for_one_step(monkeypatch):
    """Off a quadratic, the start Hessian gives the first direction only;
    secant directions take over and the refit still meets inner_tol."""
    ds = models.generate(models.ModelSpec("logistic", 200, 40, 4, 1.0, seed=3))
    prob = models.build_problem(ds)
    base = np.array([2, 17, 25])
    theta = restricted_minimize(prob, base).params
    start = _start_hessian(prob, base, theta)
    built = _newton_builds(monkeypatch)
    secant = []

    def recorded(*args):
        secant.append(args[0])
        return _lbfgs_direction(*args)

    monkeypatch.setattr(problem_module, "_lbfgs_direction", recorded)
    cfg = SolverConfig()
    res = restricted_minimize(prob, np.array([2, 9, 17, 25]), theta, cfg, start)
    assert res.converged and res.grad_inf <= cfg.inner_tol
    assert res.iterations >= 2 and len(secant) == res.iterations - 1
    assert len(built) == 1 and built[0] is not None


@pytest.mark.parametrize("coords, inverse, match", [
    ([0.5, 2.0], np.eye(2), "integer"),
    ([2, 1], np.eye(2), "strictly increasing"),
    ([-1, 2], np.eye(2), "non-negative"),
    ([1, 2], np.eye(3), "expected"),
    ([1, 2], np.diag([1.0, -1.0]), "positive definite"),
    ([1, 2], np.diag([1.0, np.nan]), "positive definite"),
], ids=["fraction", "unsorted", "negative", "shape", "indefinite", "nan"])
def test_start_hessian_is_checked_once(coords, inverse, match):
    """A start Hessian is refused where it is built, so no refit reads an
    inverse without a Cholesky factor."""
    with pytest.raises(ValueError, match=match):
        StartHessian(coords, inverse)


def test_hessian_argument_is_checked():
    ds = models.generate(models.ModelSpec("linear", 30, 8, 2, 5.0, seed=0))
    prob = models.build_problem(ds)
    with pytest.raises(TypeError, match="StartHessian"):
        restricted_minimize(prob, [1, 2], None, None, ([1, 2], np.eye(2)))
    with pytest.raises(ValueError, match="out of range"):
        restricted_minimize(prob, [1, 2], None, None, StartHessian([1, 8], np.eye(2)))


def test_a_wrong_start_hessian_gives_the_first_direction_only(monkeypatch):
    """A positive definite H that does not match the gradient change of
    its step is dropped after it; a least-squares refit then differences
    its Hessian at the new point, as a plain quadratic refit does."""
    ds = models.generate(models.ModelSpec("linear", 100, 60, 4, 5.0, seed=0))
    base = np.array([4, 11, 30, 52])
    prob, theta, good = _round_start(ds, base)
    built = _newton_builds(monkeypatch)
    support = np.array([4, 11, 30, 45, 52])
    wrong = StartHessian(base, good.inverse / 3.0)
    res = restricted_minimize(prob, support, theta, None, wrong)
    assert res.converged and res.iterations >= 2
    assert len(built) == 2 and all(b is not None for b in built)
    ref = np.linalg.lstsq(ds.X[:, support], ds.y, rcond=None)[0]
    assert np.max(np.abs(res.params[support] - ref) / (1.0 + np.abs(ref))) <= 1e-8


def test_refit_without_a_positive_definite_hessian_keeps_its_secant_steps(monkeypatch):
    # a zero column leaves f flat along its coordinate, so the difference
    # Hessian has a zero pivot: the refit is the secant refit, bit for bit,
    # whether H was differenced after the first step or bordered at the start
    ds = models.generate(models.ModelSpec("linear", 100, 60, 4, 5.0, seed=0))
    X = ds.X.copy()
    X[:, 3] = 0.0
    prob = _ols_problem(X, ds.y, 4)
    support = np.array([1, 3, 7, 20])
    built = _newton_builds(monkeypatch)
    res = restricted_minimize(prob, support)
    assert built == [None]
    ref = np.linalg.lstsq(X[:, support], ds.y, rcond=None)[0]  # 0 on the zero column
    assert np.max(np.abs(res.params[support] - ref) / (1.0 + np.abs(ref))) <= 1e-8
    zero = np.zeros(prob.p)
    assert _start_hessian(prob, support, zero) is None
    start = _start_hessian(prob, np.array([1, 7, 20]), zero)
    built.clear()
    bordered = restricted_minimize(prob, support, zero, None, start)
    assert built[0] is None  # the Schur complement of the zero column is 0
    _same_refit(bordered, res)
    monkeypatch.setattr(problem_module, "_NEWTON_MAX_DIM", 0)
    _same_refit(res, restricted_minimize(prob, support))


def test_refit_whose_difference_leaves_the_domain_keeps_its_secant_steps(monkeypatch):
    # f = x'Ax/2 - b'x on x_0 < u, minimized at (0, 2).  The first step,
    # accepted at its first trial, lands at b/|b| = (0.6, 0.8), and u lies
    # between that point and its forward difference in x_0
    A = np.array([[2.0, 1.5], [1.5, 2.0]])
    b = np.array([3.0, 4.0])
    u = 0.6 + 0.5e-4 * 1.6

    def value_and_grad(x):
        if x[0] >= u:
            raise EvaluationError("outside the domain")
        return 0.5 * float(x @ A @ x) - float(b @ x), A @ x - b

    built = _newton_builds(monkeypatch)
    res = _lbfgs(value_and_grad, np.zeros(2), 1e-8, 100)
    assert built == [None]
    assert res.converged and np.max(np.abs(res.params - [0.0, 2.0])) <= 1e-8
    # a start Hessian whose x_0 column is differenced there leaves it too
    x0 = np.array([0.6, 0.8])
    built.clear()
    bordered = _lbfgs(value_and_grad, x0, 1e-8, 100, (np.diag([0.0, 0.5]), np.array([0])))
    assert built[0] is None
    _same_refit(bordered, _lbfgs(value_and_grad, x0, 1e-8, 100))
    monkeypatch.setattr(problem_module, "_NEWTON_MAX_DIM", 0)
    _same_refit(res, _lbfgs(value_and_grad, np.zeros(2), 1e-8, 100))
