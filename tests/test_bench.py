"""Metrics, the exhaustive oracle, suite runs at tiny scale, CSV round
trips, and the demo artifacts."""

import itertools
import math

import numpy as np
import pytest

from sco import bench, models
from sco.bench import (
    BenchRecord,
    Metrics,
    demo,
    exhaustive_oracle,
    read_records,
    run_suite,
    summarize_markdown,
    support_metrics,
    write_records,
)
from sco.problem import restricted_minimize, validate_solution
from sco.solvers import SolverKind, solve


def test_support_metrics_partial_overlap():
    m = support_metrics([1, 2, 3], [2, 3, 4], 10)
    assert m.accuracy == pytest.approx(2 / 3)
    assert m.recall == pytest.approx(2 / 3)
    assert m.precision == pytest.approx(2 / 3)
    assert m.f1 == pytest.approx(2 / 3)


def test_support_metrics_perfect_and_empty():
    m = support_metrics([0, 5], [0, 5], 8)
    assert (m.accuracy, m.recall, m.precision, m.f1) == (1.0, 1.0, 1.0, 1.0)
    m = support_metrics([0, 5], [], 8)
    assert (m.recall, m.precision, m.f1) == (0.0, 0.0, 0.0)


def test_support_metrics_rejects_empty_truth():
    with pytest.raises(ValueError):
        support_metrics([], [1], 4)


def test_metrics_f1_harmonic_mean():
    m = support_metrics([0, 1, 2, 3], [0, 1], 10)
    assert m.recall == pytest.approx(0.5)
    assert m.precision == pytest.approx(1.0)
    assert m.f1 == pytest.approx(2 * 0.5 * 1.0 / 1.5)


def test_exhaustive_full_support_matches_restricted():
    spec = models.ModelSpec("linear", 30, 3, 3, 5.0, seed=0)
    ds = models.generate(spec)
    prob = models.build_problem(ds, s=3)
    best = exhaustive_oracle(prob)
    full = restricted_minimize(prob, np.arange(3), None)
    assert best.objective == pytest.approx(prob.oracle.value(full.params), abs=1e-10)
    assert np.array_equal(best.support, [0, 1, 2])


def test_exhaustive_orthonormal_analytic():
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.standard_normal((20, 8)))
    y = rng.standard_normal(20) * 2.0
    spec = models.ModelSpec("linear", 20, 8, 2, 1.0, seed=0)
    ds = models.Dataset(spec, Q, y, np.zeros(8), np.asarray([0]))
    prob = models.build_problem(ds, s=2)
    best = exhaustive_oracle(prob)
    coef = Q.T @ y
    expect = np.sort(np.argsort(-np.abs(coef), kind="stable")[:2])
    assert np.array_equal(best.support, expect)


def test_exhaustive_never_beaten():
    for seed in range(5):
        spec = models.ModelSpec("linear", 30, 8, 3, 5.0, seed=seed)
        ds = models.generate(spec)
        prob = models.build_problem(ds, s=3)
        best = exhaustive_oracle(prob)
        assert best.iterations == math.comb(8, 3)
        for kind in SolverKind:
            sol = solve(kind, prob)
            assert sol.objective >= best.objective - 1e-9, (seed, kind)


def test_exhaustive_matches_least_squares_enumeration():
    """The certified optimum does not rest on the refit alone: enumerate
    every support with a least-squares solve and compare."""
    for seed in range(10):
        ds = models.generate(models.ModelSpec("linear", 40, 10, 3, 5.0, seed=seed))
        prob = models.build_problem(ds, s=3)
        best = exhaustive_oracle(prob)
        rss = {}
        for cand in itertools.combinations(range(10), 3):
            X = ds.X[:, cand]
            coef = np.linalg.lstsq(X, ds.y, rcond=None)[0]
            rss[cand] = 0.5 * float(np.sum(np.square(ds.y - X @ coef)))
        support = min(rss, key=rss.get)
        assert np.array_equal(best.support, support), seed
        assert best.objective == pytest.approx(rss[support], rel=1e-10, abs=0.0), seed


def test_exhaustive_combination_bound():
    spec = models.ModelSpec("linear", 20, 60, 3, 5.0, seed=0)
    ds = models.generate(spec)
    prob = models.build_problem(ds, s=12)
    with pytest.raises(ValueError):
        exhaustive_oracle(prob)


def test_records_csv_round_trip(tmp_path):
    records = [
        BenchRecord("omp", "linear", 50, 20, 3, 3, 0, 1.0, 1.0, 1.0, 1.0, 0.0123, 4.5),
        BenchRecord("scope", "trend", 60, 60, 4, 5, 1, 2 / 3, 2 / 3, 0.4, 0.5, 1.5e-3, 0.125),
    ]
    path = tmp_path / "r.csv"
    write_records(records, path)
    assert read_records(path) == records


def test_run_suite_row_count_and_revalidation(tmp_path):
    out = run_suite("a2-linear", scale=0.02, seeds=range(2), out_dir=tmp_path)
    records = out["records"]
    assert len(records) == len(SolverKind) * 2
    assert read_records(out["csv"]) == records
    md = open(out["markdown"]).read()
    assert "| model | solver |" in md
    assert "linear" in md


def test_run_suite_solve_rows_report_the_solution_runtime(tmp_path, monkeypatch):
    # a single-solve row's runtime_s is the solve's own clock, not a second one
    sentinel = 1234.5

    def solve_with_sentinel(kind, problem, config=None):
        sol = solve(kind, problem, config)
        sol.runtime = sentinel
        return sol

    monkeypatch.setattr(bench, "solve", solve_with_sentinel)
    out = run_suite("a2-linear", scale=0.02, seeds=range(1), out_dir=tmp_path)
    assert [r.runtime_s for r in out["records"]] == [sentinel] * len(SolverKind)


def test_run_suite_selection_records_s_used(tmp_path):
    out = run_suite("selection-a3", scale=0.08, seeds=range(1), out_dir=tmp_path)
    assert all(1 <= r.s_used <= 2 * r.s_true for r in out["records"])
    kinds = {r.model for r in out["records"]}
    assert kinds == {"linear", "logistic", "trend", "ising"}


def test_run_suite_unknown_and_bad_scale(tmp_path):
    with pytest.raises(ValueError):
        run_suite("nope", out_dir=tmp_path)
    with pytest.raises(ValueError):
        run_suite("a2-linear", scale=0.0, out_dir=tmp_path)


def test_summarize_markdown_format():
    records = [BenchRecord("omp", "linear", 50, 20, 3, 3, s, 1.0, 1.0, 1.0, 1.0, 0.5, 4.5)
               for s in range(3)]
    md = summarize_markdown(records)
    assert "1.00 (0.00)" in md


def test_demo_compressive_sensing(tmp_path, capsys):
    demo("compressive-sensing", tmp_path)
    out = capsys.readouterr().out
    assert "Estimated variables: [3 4 7]" in out
    text = open(tmp_path / "compressive_sensing.txt").read()
    assert "Effective variables: [3 4 7]" in text
    assert "[ 9.71 19.16 13.53]" in text


def test_demo_trend_filter(tmp_path):
    n, s = 500, 10
    out = demo("trend-filter", tmp_path, n=n, s=s)
    rows = open(out["csv"]).read().strip().split("\n")
    assert len(rows) == n + 1  # header + n data rows
    assert rows[0] == "observation,fitted"
    fitted = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert np.count_nonzero(np.diff(fitted)) <= s
    svg = open(out["svg"]).read()
    assert svg.startswith("<svg") and "polyline" in svg


def test_demo_unknown_name(tmp_path):
    with pytest.raises(ValueError):
        demo("nope", tmp_path)
