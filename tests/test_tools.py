"""The maintenance scripts under tools/ run, and run the same twice."""

import importlib.util
import json
from pathlib import Path

from sco.solvers import SolverKind

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_solve_digest_runs_on_a_tiny_zoo_and_repeats():
    """The digest covers every solver on every dataset, every refit and
    the calls of each kind, and two runs agree to the byte."""
    solve_digest = _load("solve_digest")
    cases = {"linear": (("linear", 30, 8, 2, 5.0), range(2)),
             "logistic": (("logistic", 60, 6, 2, 1.0), range(1))}
    first = json.dumps(solve_digest.digest(cases, refits=2), sort_keys=True)
    assert json.dumps(solve_digest.digest(cases, refits=2), sort_keys=True) == first
    out = json.loads(first)
    assert len(out["solves"]) == 3 * len(SolverKind) and len(out["refits"]) == 3 * 2
    assert set(out["calls"]) == set(cases)
    assert all(calls["restricted.value_and_grad"] > 0 for calls in out["calls"].values())
