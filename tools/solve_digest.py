"""Print a JSON digest of a fixed set of solves and refits.

The digest pins what a change that claims bit-identical results must
keep.  Every solver runs on every dataset of the zoo below and on the
100 small least-squares problems of acceptance criterion 3
(``tests/test_acceptance.py``); the grouped case solves over groups of
several sizes with one group preselected, so greedy rounds stack bordered
systems of several sizes and every refit frees the preselected
coordinates too.  Each solve records the sha256 of its
support's and its params' bytes, its objective's ``repr``, its
iterations and ``converged``.  Every dataset also has ``REFITS`` plain
``restricted_minimize`` refits of random supports from zero, which
record the same plus ``grad_inf`` and ``reason``.  Per problem kind, the
digest counts the full-p and restricted ``value`` and ``value_and_grad``
calls of each solver's solves and of the plain refits, so that a count
that moves can be traced to one solver.

Run it from a checkout's root; it imports ``sco`` from that checkout's
``src``::

    python tools/solve_digest.py > digest.json

Run it in two checkouts and compare the two outputs with
``tools/digest_diff.py`` (or ``diff``): no difference means no result
and no oracle call count moved.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sco import models  # noqa: E402
from sco.autodiff import ObjectiveOracle  # noqa: E402
from sco.problem import restricted_minimize  # noqa: E402
from sco.solvers import SolverKind, solve  # noqa: E402

# name: ((kind, n, p, s, signal), seeds[, sizes]); s is both the planted
# sparsity and the budget.  With group sizes, seed's problem has groups of
# those sizes, their ids permuted by default_rng(seed), and preselects group
# seed % len(sizes), as test_bordered_rounds_pick_the_units_plain_refits_pick
# builds them
CASES = {
    "linear": (("linear", 100, 60, 5, 5.0), range(15)),
    "logistic": (("logistic", 200, 40, 5, 1.0), range(15)),
    "trend-60": (("trend", 60, 60, 5, 10.0), range(15)),
    "trend-120": (("trend", 120, 120, 5, 10.0), range(15)),
    "ising": (("ising", 200, 45, 5, 1.0), range(15)),
    "criterion-3": (("linear", 40, 10, 3, 5.0), range(100)),
    "grouped-linear": (("linear", 60, 12, 3, 5.0), range(15), (1, 2, 3, 2, 1, 3)),
}
REFITS = 9  # plain refits per dataset, of random supports of 1..REFITS coordinates
CALLS = ("full.value", "full.value_and_grad", "restricted.value", "restricted.value_and_grad")


def _counted(problem, counts):
    # the problem with every oracle call tallied in counts
    oracle = problem.oracle

    def tally(key, fn):
        def counted(theta):
            counts[key] += 1
            return fn(theta)
        return counted

    def restrict(coords):
        sub = oracle.restricted(coords)
        return ObjectiveOracle(sub.dim, tally("restricted.value", sub.value),
                               tally("restricted.value_and_grad", sub.value_and_grad))

    return replace(problem, oracle=ObjectiveOracle(
        oracle.dim, tally("full.value", oracle.value),
        tally("full.value_and_grad", oracle.value_and_grad), scale=oracle.scale,
        restrict=restrict))


def _grouping(seed, sizes=None):
    # build_problem's groups and preselect for a case's group sizes
    if sizes is None:
        return {}
    groups = np.random.default_rng(seed).permutation(np.repeat(np.arange(len(sizes)), sizes))
    return {"groups": groups, "preselect": np.flatnonzero(groups == seed % len(sizes))}


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _entry(params, objective, iterations, converged):
    return {"params": _sha(params), "objective": repr(float(objective)),
            "iterations": int(iterations), "converged": bool(converged)}


def digest(cases=CASES, refits=REFITS):
    """The digest of ``cases`` (``CASES``' form) as a JSON-ready dict."""
    out = {"solves": {}, "refits": {}, "calls": {}}
    for name, ((kind, n, p, s, signal), seeds, *sizes) in cases.items():
        counts = {key: dict.fromkeys(CALLS, 0) for key in [*(k.value for k in SolverKind), "refits"]}
        for seed in seeds:
            ds = models.generate(models.ModelSpec(kind, n, p, s, signal, seed))
            built = models.build_problem(ds, s=s, **_grouping(seed, *sizes))
            for solver in SolverKind:
                sol = solve(solver, _counted(built, counts[solver.value]))
                out["solves"][f"{name}/{seed}/{solver.value}"] = {
                    "support": _sha(sol.support),
                    **_entry(sol.params, sol.objective, sol.iterations, sol.converged)}
            problem = _counted(built, counts["refits"])
            rng = np.random.default_rng(seed)
            for size in range(1, min(refits, p) + 1):
                support = np.sort(rng.choice(p, size=size, replace=False))
                res = restricted_minimize(problem, support)
                out["refits"][f"{name}/{seed}/{size}"] = {
                    **_entry(res.params, res.objective, res.iterations, res.converged),
                    "grad_inf": repr(float(res.grad_inf)), "reason": res.reason}
        out["calls"][name] = counts
    return out


if __name__ == "__main__":
    json.dump(digest(), sys.stdout, indent=1, sort_keys=True)
    print()
