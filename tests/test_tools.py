"""The maintenance scripts under tools/ run, and run the same twice."""

import importlib.util
import json
from pathlib import Path

import numpy as np

from sco import models
from sco.problem import validate_solution
from sco.solvers import SolverKind, solve

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_solve_digest_runs_on_a_tiny_zoo_and_repeats():
    """The digest covers every solver on every dataset, every refit and
    the calls of each kind per solver, and two runs agree to the byte.  A
    case with group sizes solves over those groups, their ids permuted by
    the seed, with the seed's group preselected."""
    solve_digest = _load("solve_digest")
    grouped = ("linear", 30, 6, 2, 5.0)
    cases = {"linear": (("linear", 30, 8, 2, 5.0), range(2)),
             "logistic": (("logistic", 60, 6, 2, 1.0), range(1)),
             "grouped": (grouped, range(2), (1, 2, 3))}
    first = json.dumps(solve_digest.digest(cases, refits=2), sort_keys=True)
    assert json.dumps(solve_digest.digest(cases, refits=2), sort_keys=True) == first
    out = json.loads(first)
    assert len(out["solves"]) == 5 * len(SolverKind) and len(out["refits"]) == 5 * 2
    assert set(out["calls"]) == set(cases)
    for calls in out["calls"].values():  # per solver, and for the plain refits
        assert set(calls) == {kind.value for kind in SolverKind} | {"refits"}
        assert all(c["restricted.value_and_grad"] > 0 for c in calls.values())
    for seed in range(2):
        groups = np.random.default_rng(seed).permutation(np.repeat(np.arange(3), [1, 2, 3]))
        preselect = np.flatnonzero(groups == seed)
        problem = models.build_problem(models.generate(models.ModelSpec(*grouped, seed)), s=2,
                                       groups=groups, preselect=preselect)
        for kind in (SolverKind.FORWARD, SolverKind.IHT):
            sol = solve(kind, problem)
            validate_solution(problem, sol)  # whole groups, preselected ones unlisted
            assert out["solves"][f"grouped/{seed}/{kind.value}"] == {
                "support": solve_digest._sha(sol.support),
                **solve_digest._entry(sol.params, sol.objective, sol.iterations, sol.converged)}


def test_digest_diff_lists_every_change_of_a_perturbed_digest(tmp_path, capsys):
    """digest_diff names each solve or refit whose structure changed, counts
    the changed values per case and solver with the largest relative
    objective change, lists every moved call count, and exits 0 only on
    identical digests."""
    solve_digest, digest_diff = _load("solve_digest"), _load("digest_diff")
    old = solve_digest.digest({"linear": (("linear", 30, 8, 2, 5.0), range(2))}, refits=2)
    new = json.loads(json.dumps(old))
    forward = new["solves"]["linear/0/forward"]
    forward["objective"] = repr(float(forward["objective"]) * (1.0 + 4e-16))
    forward["params"] = "0" * 64
    new["solves"]["linear/1/foba"]["iterations"] += 1
    new["refits"]["linear/0/2"]["reason"] = "floor"
    new["refits"]["linear/1/1"]["grad_inf"] = "0.5"
    new["calls"]["linear"]["omp"]["full.value"] += 3
    del new["solves"]["linear/1/iht"]
    assert digest_diff.compare(old, old) == []
    lines = digest_diff.compare(old, new)
    foba = old["solves"]["linear/1/foba"]["iterations"]
    omp = old["calls"]["linear"]["omp"]["full.value"]
    assert lines[:3] == ["linear/1/foba: iterations %d -> %d" % (foba, foba + 1),
                         "linear/1/iht: only in old",
                         "linear/0/2: reason %s -> floor" % old["refits"]["linear/0/2"]["reason"]]
    assert lines[3].startswith("linear/forward: changed 1 objective, 1 params; largest relative "
                               "objective change 4")
    assert lines[4:] == ["linear/refits: changed 1 grad_inf; largest relative objective change 0",
                         "calls linear/omp full.value: %d -> %d" % (omp, omp + 3)]
    paths = []
    for name, digest in (("old", old), ("new", new)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(digest))
    assert digest_diff.main([str(paths[0]), str(paths[0])]) == 0
    assert capsys.readouterr().out == "identical\n"
    assert digest_diff.main([str(p) for p in paths]) == 1
    assert capsys.readouterr().out.splitlines() == lines
