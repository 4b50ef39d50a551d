"""Benchmark harness: support-recovery metrics, the exhaustive small-p
oracle, reproducible experiment suites, and the two demos.

Suite runs are deterministic: data generation is seeded per replication,
records are sorted (solver, seed, model) before writing, and every float
is serialized with ``repr`` so an emitted CSV parses back to the exact
records.  Repeating a run reproduces the CSV byte for byte except for the
runtime column.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import models
from .problem import ScoSolution, SolverConfig, restricted_minimize, validate_solution
from .selection import BIC, GIC, SIC, select_by_ic
from .solvers import SolverKind, solve

__all__ = [
    "Metrics",
    "BenchRecord",
    "CSV_COLUMNS",
    "support_metrics",
    "exhaustive_oracle",
    "SUITE_NAMES",
    "run_suite",
    "write_records",
    "read_records",
    "summarize_markdown",
    "demo",
]


@dataclass(frozen=True)
class Metrics:
    """Support-recovery scores, all in [0, 1]."""

    accuracy: float
    recall: float
    precision: float
    f1: float


def support_metrics(true_support, est_support, p):
    """Scores of an estimated support against the planted one.

    accuracy = recall = |S* ∩ Ŝ| / |S*|; precision = |S* ∩ Ŝ| / |Ŝ|
    (zero when Ŝ is empty); f1 is the harmonic mean of precision and
    recall (zero when either is zero).
    """
    t = np.unique(np.asarray(true_support, dtype=int))
    e = np.unique(np.asarray(est_support, dtype=int))
    if len(t) == 0:
        raise ValueError("true support must be non-empty")
    for s in (t, e):
        if len(s) and (s.min() < 0 or s.max() >= p):
            raise ValueError("support indices out of range")
    hit = len(np.intersect1d(t, e))
    recall = hit / len(t)
    precision = hit / len(e) if len(e) else 0.0
    f1 = 0.0 if (precision == 0.0 or recall == 0.0) else 2 * precision * recall / (precision + recall)
    return Metrics(accuracy=recall, recall=recall, precision=precision, f1=f1)


def exhaustive_oracle(problem, limit=10**6):
    """Best size-s support by enumeration, each support refit by the
    restricted minimizer.

    Enumerates unit combinations in lexicographic order, refits each with
    :func:`~sco.problem.restricted_minimize`, and keeps the strictly best
    full objective of the refit parameters, so ties resolve to the
    lexicographically smallest support.  What it certifies is the
    enumeration: every size-s support was refit.  Each refit is as exact as
    ``restricted_minimize`` makes it, and ``converged=True`` means the
    enumeration finished, not that every refit reported convergence (many
    refits stop at the precision floor or at ``max_iter`` instead).
    ``iterations`` is the number of supports enumerated.  Refuses to
    enumerate more than ``limit`` supports.
    """
    units = problem.view.n_units
    combos = math.comb(units, problem.s)
    if combos > limit:
        raise ValueError(f"C({units},{problem.s}) = {combos} exceeds the enumeration limit {limit}")
    t0 = time.perf_counter()
    best_f = np.inf
    best = None
    count = 0
    for cand in itertools.combinations(range(units), problem.s):
        count += 1
        cand = np.asarray(cand, dtype=int)
        res = restricted_minimize(problem, problem.view.coords_of(cand), None)
        f_full = problem.oracle.value(res.params)
        if f_full < best_f:
            best_f = f_full
            best = (res.params, cand)
    params, cand = best
    return ScoSolution(
        params=params,
        support=problem.view.coords_of(cand),
        objective=best_f,
        iterations=count,
        converged=True,
        runtime=time.perf_counter() - t0,
    )


# -- suites -------------------------------------------------------------------

@dataclass(frozen=True)
class BenchRecord:
    """One solver x problem x seed result row; its fields are the CSV columns."""

    solver: str
    model: str
    n: int
    p: int
    s_true: int
    s_used: int
    seed: int
    accuracy: float
    recall: float
    precision: float
    f1: float
    runtime_s: float
    objective: float


CSV_COLUMNS = tuple(f.name for f in fields(BenchRecord))
# per column: (write, parse); floats via repr so parsing is exact
_CODECS = {"str": (str, str), "int": (str, int), "float": (repr, float)}
_COLUMN_CODECS = tuple(_CODECS[f.type] for f in fields(BenchRecord))


@dataclass(frozen=True)
class _SuiteTask:
    kind: str
    n: int
    p: int
    s_true: int
    signal: float
    criterion: object = None  # None: solve at s_true; Criterion: search the grid


_SUITES = {
    "a2-linear": [_SuiteTask("linear", 500, 1000, 10, 5.0)],
    "a2-logistic": [_SuiteTask("logistic", 500, 1000, 10, 1.0)],
    "a2-trend": [_SuiteTask("trend", 200, 200, 5, 10.0)],
    "a2-ising": [_SuiteTask("ising", 500, 45, 8, 0.4)],
    "selection-a3": [
        _SuiteTask("linear", 200, 100, 5, 5.0, SIC),
        _SuiteTask("logistic", 200, 100, 5, 1.0, GIC),
        _SuiteTask("trend", 200, 200, 5, 10.0, BIC),
        _SuiteTask("ising", 300, 28, 6, 0.4, GIC),
    ],
}

SUITE_NAMES = tuple(_SUITES)


def _scaled(task, scale):
    n = max(2, math.ceil(task.n * scale))
    if task.kind == "ising":
        q = max(3, math.ceil(models.ising_spin_count(task.p) * scale))
        p = models.ising_edge_count(q)
    elif task.kind == "trend":
        p = n
    else:
        p = max(1, math.ceil(task.p * scale))
    s_true = max(1, min(math.ceil(task.s_true * scale), p - 1 if p > 1 else 1))
    return models.ModelSpec(task.kind, n, p, s_true, task.signal)


def run_suite(suite, scale=1.0, seeds=range(20), out_dir="."):
    """Run every registered solver over one suite and write artifacts.

    Writes ``<suite>.csv`` (one BenchRecord per solver x seed x model, in
    the stable column order) and ``<suite>.md`` (mean (sd) summary table).
    ``scale`` multiplies the suite dimensions, rounded up.
    """
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {', '.join(_SUITES)}")
    if not 0.0 < scale <= 1.0:
        raise ValueError("scale must lie in (0, 1]")
    records = []
    for task in _SUITES[suite]:
        base = _scaled(task, scale)
        for seed in seeds:
            spec = models.ModelSpec(base.kind, base.n, base.p, base.s_true, base.signal, int(seed))
            dataset = models.generate(spec)
            problem = models.build_problem(dataset)
            for kind in SolverKind:
                records.append(_run_one(kind, dataset, problem, task.criterion))
    records.sort(key=lambda r: (r.solver, r.seed, r.model))
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{suite}.csv")
    md_path = os.path.join(out_dir, f"{suite}.md")
    write_records(records, csv_path)
    with open(md_path, "w") as fh:
        fh.write(summarize_markdown(records))
    return {"csv": csv_path, "markdown": md_path, "records": records}


def _run_one(kind, dataset, problem, criterion):
    spec = dataset.spec
    if criterion is None:
        sol = solve(kind, problem)
        elapsed = sol.runtime
        s_used = spec.s_true
    else:
        grid = list(range(1, min(2 * spec.s_true, problem.view.n_units) + 1))
        t0 = time.perf_counter()
        result = select_by_ic(problem, grid, kind, SolverConfig(), criterion)
        elapsed = time.perf_counter() - t0
        sol = result.chosen
        s_used = result.chosen_s
    validate_solution(problem if criterion is None else replace(problem, s=s_used), sol)
    m = support_metrics(dataset.support_true, sol.support, spec.p)
    return BenchRecord(
        solver=SolverKind(kind).value,
        model=spec.kind,
        n=spec.n,
        p=spec.p,
        s_true=spec.s_true,
        s_used=s_used,
        seed=spec.seed,
        accuracy=m.accuracy,
        recall=m.recall,
        precision=m.precision,
        f1=m.f1,
        runtime_s=elapsed,
        objective=sol.objective,
    )


def write_records(records, path):
    """CSV in the stable column order; floats via repr so parsing is exact."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([write(getattr(r, name))
                             for name, (write, _) in zip(CSV_COLUMNS, _COLUMN_CODECS)])


def read_records(path):
    """Inverse of :func:`write_records`."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != CSV_COLUMNS:
            raise ValueError("unexpected benchmark CSV header")
        for row in reader:
            out.append(BenchRecord(*(parse(v) for (_, parse), v in zip(_COLUMN_CODECS, row))))
    return out


def _mean_sd(values):
    v = np.asarray(values, dtype=float)
    return f"{v.mean():.2f} ({v.std():.2f})"


def summarize_markdown(records):
    """Markdown table of mean (sd) per model x solver."""
    lines = ["| model | solver | accuracy | recall | precision | f1 | runtime_s |",
             "|---|---|---|---|---|---|---|"]
    keys = sorted({(r.model, r.solver) for r in records})
    for model, solver in keys:
        rows = [r for r in records if r.model == model and r.solver == solver]
        lines.append("| {} | {} | {} | {} | {} | {} | {} |".format(
            model, solver,
            _mean_sd([r.accuracy for r in rows]),
            _mean_sd([r.recall for r in rows]),
            _mean_sd([r.precision for r in rows]),
            _mean_sd([r.f1 for r in rows]),
            _mean_sd([r.runtime_s for r in rows]),
        ))
    return "\n".join(lines) + "\n"


# -- demos --------------------------------------------------------------------


def _svg_chart(series, path, width=900, height=320, pad=45):
    """Minimal deterministic SVG line chart (one polyline per series)."""
    lo = min(min(ys) for _, _, ys in series)
    hi = max(max(ys) for _, _, ys in series)
    if hi == lo:
        hi = lo + 1.0
    n = max(len(ys) for _, _, ys in series)

    def sx(i):
        return pad + i * (width - 2 * pad) / max(n - 1, 1)

    def sy(v):
        return height - pad - (v - lo) * (height - 2 * pad) / (hi - lo)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
             f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
             f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>']
    for idx, (name, color, ys) in enumerate(series):
        pts = " ".join(f"{sx(i):.2f},{sy(v):.2f}" for i, v in enumerate(ys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="{pts}"/>')
        parts.append(f'<text x="{pad + 8}" y="{pad + 14 + 16 * idx}" fill="{color}" '
                     f'font-family="monospace" font-size="12">{name}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def demo_compressive_sensing(out_dir, n=100, p=10, seed=0):
    """Noiseless recovery of three planted coefficients; prints the planted
    and estimated variables in the same two-line format."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    coef = np.zeros(p)
    coef[[3, 4, 7]] = [9.71, 19.16, 13.53]
    y = X @ coef
    spec = models.ModelSpec("linear", n, p, 3, float("inf"), seed)
    dataset = models.Dataset(spec, X, y, coef, np.flatnonzero(coef))
    problem = models.build_problem(dataset, s=3)
    sol = solve(SolverKind.GRASP, problem)
    nz = np.flatnonzero(coef)
    lines = [
        f"Effective variables: {nz} coefficients: {np.around(coef[nz], 2)}",
        f"Estimated variables: {sol.support} estimated coefficients: {np.around(sol.params[sol.support], 2)}",
    ]
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, "compressive_sensing.txt")
    with open(out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return {"text": out, "lines": lines}


def demo_trend_filter(out_dir, n=500, s=10, seed=0):
    """Piecewise-constant fit of a random walk: writes an observation/
    fitted CSV (n rows) and an SVG chart with both series."""
    rng = np.random.default_rng(seed)
    data = np.cumsum(rng.standard_normal(n))
    spec = models.ModelSpec("trend", n, n, max(s, 1), 5.0, seed)
    dataset = models.Dataset(spec, models.trend_design(n), data, np.zeros(n), np.asarray([0]))
    problem = models.build_problem(dataset, s=s)
    sol = solve(SolverKind.SCOPE, problem)
    fitted = np.cumsum(sol.params)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "trend_filter.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["observation", "fitted"])
        for o, f in zip(data, fitted):
            writer.writerow([repr(float(o)), repr(float(f))])
    svg_path = os.path.join(out_dir, "trend_filter.svg")
    _svg_chart([("observation", "#888888", data), ("fitted trend", "#d62728", fitted)], svg_path)
    print(f"trend filter: {int(np.count_nonzero(sol.params))} jumps, objective {sol.objective:.4f}")
    return {"csv": csv_path, "svg": svg_path, "solution": sol}


def demo(name, out_dir, **kwargs):
    """Run a named demo; one of compressive-sensing, trend-filter."""
    if name == "compressive-sensing":
        return demo_compressive_sensing(out_dir, **kwargs)
    if name == "trend-filter":
        return demo_trend_filter(out_dir, **kwargs)
    raise ValueError(f"unknown demo {name!r}")
