"""Command-line harness.

Subcommands::

    sco solve --model {linear|logistic|trend|ising} --n N --p P
              --s-true K --s S --solver NAME --seed INT --out result.json
    sco bench --suite NAME --scale F --seeds A..B --out DIR
    sco select --model ... --criterion {aic|bic|gic|sic|cv} --k-folds K
               --grid A..B --solver NAME --seed INT --out result.json

Exit codes: 0 success, 2 usage error, 3 runtime/solver error.  For the
ising model ``--p`` is the spin count; the parameter dimension is the
number of spin pairs.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bench, models
from .problem import SolverConfig
from .selection import Criterion, cross_validate, select_by_ic
from .solvers import SolverKind, solve

_DEFAULT_SIGNAL = {"linear": 5.0, "logistic": 1.0, "trend": 10.0, "ising": 0.4}


def _int_range(text):
    """Parse 'A..B' into the inclusive range A..B."""
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A..B, got {text!r}")
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _make_spec(args):
    kind = args.model
    p = models.ising_edge_count(args.p) if kind == "ising" else args.p
    signal = args.signal if args.signal is not None else _DEFAULT_SIGNAL[kind]
    return models.ModelSpec(kind, args.n, p, args.s_true, signal, args.seed)


def _solution_json(sol, kind):
    return {
        "solver": SolverKind(kind).value,
        "support": [int(i) for i in sol.support],
        "params": [float(v) for v in sol.params],
        "objective": float(sol.objective),
        "iterations": int(sol.iterations),
        "converged": bool(sol.converged),
        "runtime_s": float(sol.runtime),
    }


def _cmd_solve(args):
    dataset = models.generate(_make_spec(args))
    problem = models.build_problem(dataset, s=args.s)
    sol = solve(args.solver, problem)
    payload = _solution_json(sol, args.solver)
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"solved {args.model} n={dataset.n} p={dataset.p} s={args.s} "
          f"with {args.solver}: objective {sol.objective:.6g}, "
          f"support {list(map(int, sol.support))} -> {args.out}")
    return 0


def _cmd_bench(args):
    paths = bench.run_suite(args.suite, scale=args.scale, seeds=args.seeds, out_dir=args.out)
    print(f"wrote {paths['csv']} and {paths['markdown']} "
          f"({len(paths['records'])} records)")
    return 0


def _cmd_select(args):
    dataset = models.generate(_make_spec(args))
    grid = list(args.grid)
    config = SolverConfig(seed=args.seed)
    if args.criterion == "cv":
        result = cross_validate(lambda d: models.build_problem(d, s=grid[0]),
                                dataset, args.k_folds, grid, args.solver, config)
        criterion_name = f"cv{args.k_folds}"
    else:
        problem = models.build_problem(dataset, s=grid[-1])
        result = select_by_ic(problem, grid, args.solver, config, Criterion(args.criterion))
        criterion_name = args.criterion
    payload = {
        "criterion": criterion_name,
        "grid": [int(s) for s in result.grid],
        "scores": [float(v) for v in result.scores],
        "chosen_s": int(result.chosen_s),
        "solution": _solution_json(result.chosen, args.solver),
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    print(f"{criterion_name} chose s={result.chosen_s} on grid "
          f"{result.grid[0]}..{result.grid[-1]} (scores min {min(result.scores):.6g})")
    return 0


def _add_model_args(p, with_s=True):
    p.add_argument("--model", required=True, choices=models.KINDS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True,
                   help="parameter dimension (spin count for ising)")
    p.add_argument("--s-true", dest="s_true", type=int, required=True)
    p.add_argument("--signal", type=float, default=None,
                   help="SNR for linear, coefficient scale otherwise")
    p.add_argument("--seed", type=int, default=0)
    if with_s:
        p.add_argument("--s", type=int, required=True)


def build_parser():
    parser = argparse.ArgumentParser(prog="sco",
                                     description="sparsity-constrained optimization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one generated instance")
    _add_model_args(p_solve)
    p_solve.add_argument("--solver", required=True, choices=[k.value for k in SolverKind])
    p_solve.add_argument("--out", required=True)
    p_solve.set_defaults(func=_cmd_solve)

    p_bench = sub.add_parser("bench", help="run a benchmark suite")
    p_bench.add_argument("--suite", required=True, choices=list(bench.SUITE_NAMES))
    p_bench.add_argument("--scale", type=float, default=1.0)
    p_bench.add_argument("--seeds", type=_int_range, default=range(0, 20),
                         help="inclusive seed range A..B (default 0..19)")
    p_bench.add_argument("--out", required=True)
    p_bench.set_defaults(func=_cmd_bench)

    p_sel = sub.add_parser("select", help="pick the sparsity level")
    _add_model_args(p_sel, with_s=False)
    p_sel.add_argument("--criterion", required=True, choices=["aic", "bic", "gic", "sic", "cv"])
    p_sel.add_argument("--k-folds", dest="k_folds", type=int, default=5)
    p_sel.add_argument("--grid", type=_int_range, required=True, help="inclusive grid A..B")
    p_sel.add_argument("--solver", default="scope", choices=[k.value for k in SolverKind])
    p_sel.add_argument("--out", default=None)
    p_sel.set_defaults(func=_cmd_select)
    return parser


def main(argv=None):
    """Entry point; returns the process exit code (argparse exits 2 on usage errors)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as e:  # runtime/solver failure -> exit code 3
        print(f"error: {e}", file=sys.stderr)
        return 3


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
