"""Information-criterion formulas, warm-started paths, and K-fold CV."""

import math

import numpy as np
import pytest

from sco import models
from sco.problem import SolverConfig
from sco.selection import (
    AIC,
    BIC,
    GIC,
    SIC,
    Criterion,
    PathAborted,
    cross_validate,
    information_criterion,
    select_by_ic,
    solve_path,
)
from sco.solvers import solve


def test_bic_reference_value():
    # 2*10 + 2*log(100) = 29.210340...
    v = information_criterion(BIC, 10.0, 2, 100, 50)
    assert v == pytest.approx(20.0 + 2.0 * math.log(100.0), abs=1e-12)
    assert v == pytest.approx(29.21034, abs=5e-6)


def test_penalties_strictly_increase_with_s():
    for crit in (AIC, BIC, GIC):
        vals = [information_criterion(crit, 5.0, s, 200, 100) for s in range(1, 8)]
        assert all(b > a for a, b in zip(vals, vals[1:])), crit
    vals = [information_criterion(SIC, 5.0, s, 200, 100, "rss") for s in range(1, 8)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_equal_fit_prefers_smaller_s():
    for crit in (AIC, BIC, GIC):
        assert information_criterion(crit, 7.5, 3, 100, 40) < information_criterion(crit, 7.5, 4, 100, 40)


def test_sic_requires_rss_scale():
    with pytest.raises(ValueError):
        information_criterion(SIC, 5.0, 2, 100, 40, "nll")
    information_criterion(SIC, 5.0, 2, 100, 40, "rss")  # fine


def test_loglog_guard():
    with pytest.raises(ValueError):
        information_criterion(GIC, 5.0, 2, 2, 40)
    with pytest.raises(ValueError):
        information_criterion(BIC, 5.0, 2, 1, 40)


def test_criterion_validation():
    with pytest.raises(ValueError):
        Criterion("zic")
    with pytest.raises(ValueError):
        Criterion("cv")  # K-fold CV is cross_validate, not a criterion


def test_single_point_grid_matches_direct_solve():
    spec = models.ModelSpec("linear", 60, 20, 3, 5.0, seed=0)
    ds = models.generate(spec)
    prob = models.build_problem(ds, s=3)
    direct = solve("scope", prob)
    path = solve_path(prob, [3], "scope")
    assert len(path) == 1
    assert path[0].objective == pytest.approx(direct.objective, abs=1e-12)
    assert np.array_equal(path[0].support, direct.support)


def test_orthonormal_path_is_nested():
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((20, 10)))
    y = rng.standard_normal(20) * 2.0
    spec = models.ModelSpec("linear", 20, 10, 3, 1.0, seed=0)
    ds = models.Dataset(spec, Q, y, np.zeros(10), np.asarray([0]))
    prob = models.build_problem(ds, s=3)
    path = solve_path(prob, [1, 2, 3], "omp")
    supports = [set(sol.support.tolist()) for sol in path]
    assert supports[0] <= supports[1] <= supports[2]


def test_path_objectives_decrease_in_s():
    spec = models.ModelSpec("linear", 200, 50, 5, 5.0, seed=3)
    ds = models.generate(spec)
    prob = models.build_problem(ds, s=5)
    path = solve_path(prob, list(range(1, 9)), "scope")
    objs = [sol.objective for sol in path]
    assert all(b < a for a, b in zip(objs, objs[1:])), objs


def test_warm_path_not_worse_than_cold():
    spec = models.ModelSpec("linear", 120, 30, 4, 5.0, seed=7)
    ds = models.generate(spec)
    prob = models.build_problem(ds, s=4)
    path = solve_path(prob, [2, 3, 4, 5], "scope")
    for s, sol in zip([2, 3, 4, 5], path):
        from dataclasses import replace

        cold = solve("scope", replace(prob, s=s))
        assert sol.objective <= cold.objective + 1e-8


def test_path_abort_reports_partials():
    from sco.autodiff import build_objective
    import sco
    from sco.problem import ScoProblem

    calls = {"n": 0}

    def flaky(th):
        calls["n"] += 1
        return sco.sqnorm(th - 1.0)

    oracle = build_objective(flaky, 6)

    class Boom(ScoProblem):
        pass

    prob = ScoProblem(p=6, s=3, oracle=oracle, n=6)
    # grid beyond the unit count aborts validation up front
    with pytest.raises(ValueError):
        solve_path(prob, [1, 2, 99], "omp")
    # so does a fractional budget, which would otherwise be cut down
    with pytest.raises(ValueError, match="grid values must be an integer"):
        solve_path(prob, [1, 2.5], "omp")
    with pytest.raises(ValueError, match="grid values must be an integer"):
        select_by_ic(prob, [1.5, 3.7], "omp")
    assert select_by_ic(prob, np.arange(1, 3), "omp").grid == (1, 2)
    # a failing oracle mid-path surfaces as PathAborted with partial results
    bad = build_objective(lambda th: sco.log(sco.vsum(th) - 100.0), 6, probe=False)
    prob_bad = ScoProblem(p=6, s=3, oracle=bad, n=6)
    with pytest.raises(PathAborted) as err:
        solve_path(prob_bad, [1, 2], "omp")
    assert err.value.solutions == []


def test_select_by_ic_argmin_and_tie_break():
    spec = models.ModelSpec("linear", 200, 40, 4, 8.0, seed=11)
    ds = models.generate(spec)
    prob = models.build_problem(ds, s=4)
    result = select_by_ic(prob, list(range(1, 9)), "scope", criterion=SIC)
    assert result.chosen_s == result.grid[int(np.argmin(result.scores))]
    assert min(result.scores) == result.scores[result.grid.index(result.chosen_s)]


def test_cv_fold_sizes():
    from sco.selection import _fold_indices

    folds = _fold_indices(100, 5, seed=0)
    assert [len(f) for f in folds] == [20] * 5
    assert np.array_equal(np.sort(np.concatenate(folds)), np.arange(100))
    # leave-one-out is allowed
    folds = _fold_indices(10, 10, seed=1)
    assert [len(f) for f in folds] == [1] * 10


def test_cv_deterministic_in_seed():
    from sco.selection import _fold_indices

    a = _fold_indices(30, 5, seed=3)
    b = _fold_indices(30, 5, seed=3)
    c = _fold_indices(30, 5, seed=4)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_cross_validate_selects_near_truth():
    spec = models.ModelSpec("linear", 120, 30, 4, 8.0, seed=2)
    ds = models.generate(spec)
    result = cross_validate(lambda d: models.build_problem(d, s=1), ds, 5,
                            list(range(1, 8)), "scope", SolverConfig(seed=2))
    assert result.chosen_s in (3, 4, 5, 6)
    assert result.chosen_s == result.grid[int(np.argmin(result.scores))]


def test_cross_validate_errors():
    spec = models.ModelSpec("linear", 10, 6, 2, 5.0, seed=0)
    ds = models.generate(spec)
    with pytest.raises(ValueError):
        cross_validate(lambda d: models.build_problem(d, s=1), ds, 1, [1, 2], "omp")
    with pytest.raises(ValueError):
        cross_validate(lambda d: models.build_problem(d, s=1), ds, 11, [1, 2], "omp")
    with pytest.raises(ValueError, match="k must be an integer"):
        cross_validate(lambda d: models.build_problem(d, s=1), ds, 2.9, [1, 2], "omp")
    with pytest.raises(ValueError, match="grid values must be an integer"):
        cross_validate(lambda d: models.build_problem(d, s=1), ds, 2, [1.0, 2.0], "omp")
    result = cross_validate(lambda d: models.build_problem(d, s=1), ds, np.int64(2), [1], "omp")
    assert result.chosen_s == 1
