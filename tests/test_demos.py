"""Every script under demos/ runs to completion, with the counts its
docstring states and the results the paper's two examples show."""

import ast
import re
import runpy
from pathlib import Path

import numpy as np
import pytest

import sco.solvers
from sco.problem import restricted_minimize

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# where a docstring states the outer iterations of the demo's solve and its
# restricted refits: how many, their iterations and how many stopped short
# of the tolerance
STATED = {"trend_filtering": r"(?P<outer>[\d,]+) outer iterations and (?P<refits>[\d,]+) "
                             r"restricted refits \((?P<iterations>[\d,]+) refit iterations, "
                             r"(?P<unconverged>[\d,]+) of the refits stopping short"}


def _check_compressive_sensing(out, tmp_path):
    # the planted support and coefficients, recovered
    assert "Estimated variables: [3 4 7]" in out
    assert "[ 9.71 19.16 13.53]" in out


def _check_trend_filtering(out, tmp_path):
    # one row per observation; the budget of ten bounds the fitted jumps
    rows = (tmp_path / "trend_filtering_fit.csv").read_text().splitlines()
    assert rows[0] == "observation,fitted" and len(rows) == 501
    fitted = np.array([float(row.split(",")[1]) for row in rows[1:]])
    assert np.count_nonzero(np.diff(fitted)) <= 10


CHECKS = {"compressive_sensing": _check_compressive_sensing,
          "trend_filtering": _check_trend_filtering}


def _stated(path):
    text = " ".join(ast.get_docstring(ast.parse(path.read_text())).split())
    found = re.search(STATED[path.stem], text)
    assert found, f"{path.name} no longer states its counts"
    return {key: int(value.replace(",", "")) for key, value in found.groupdict().items()}


@pytest.mark.parametrize("path", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    refits = []

    def recorded(*args, **kwargs):
        refits.append(restricted_minimize(*args, **kwargs))
        return refits[-1]

    monkeypatch.setattr(sco.solvers, "restricted_minimize", recorded)
    namespace = runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    if path.stem in CHECKS:
        CHECKS[path.stem](out, tmp_path)
    if path.stem in STATED:
        assert {"outer": namespace["solution"].iterations, "refits": len(refits),
                "iterations": sum(res.iterations for res in refits),
                "unconverged": sum(not res.converged for res in refits)} == _stated(path)
