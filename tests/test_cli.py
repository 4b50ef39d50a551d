"""End-to-end CLI: subcommands, JSON schema, exit codes, determinism."""

import json

import numpy as np
import pytest

from sco import models
from sco.cli import main


def test_solve_writes_schema_json(tmp_path):
    out = tmp_path / "result.json"
    code = main(["solve", "--model", "linear", "--n", "60", "--p", "20",
                 "--s-true", "3", "--s", "3", "--solver", "scope",
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"solver", "support", "params", "objective",
                            "iterations", "converged", "runtime_s"}
    assert payload["solver"] == "scope"
    assert all(isinstance(i, int) for i in payload["support"])
    assert len(payload["params"]) == 20
    assert isinstance(payload["converged"], bool)
    assert payload["runtime_s"] >= 0.0


def test_solve_ising_p_means_spins(tmp_path):
    out = tmp_path / "r.json"
    code = main(["solve", "--model", "ising", "--n", "80", "--p", "6",
                 "--s-true", "3", "--s", "3", "--solver", "omp",
                 "--seed", "0", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["params"]) == 15  # 6 spins -> 15 edges


def test_select_subcommand(tmp_path):
    out = tmp_path / "sel.json"
    code = main(["select", "--model", "linear", "--n", "80", "--p", "20",
                 "--s-true", "3", "--criterion", "sic", "--grid", "1..6",
                 "--solver", "scope", "--seed", "0", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["criterion"] == "sic"
    assert payload["grid"] == [1, 2, 3, 4, 5, 6]
    assert len(payload["scores"]) == 6
    assert payload["chosen_s"] == payload["grid"][int(np.argmin(payload["scores"]))]


def test_select_cv_subcommand(tmp_path):
    # --p is the series length for trend (p == n) and the spin count for ising
    dims = {"linear": (40, 10, 10), "logistic": (40, 10, 10), "trend": (40, 40, 40),
            "ising": (40, 5, 10)}
    for kind in models.KINDS:
        n, p, dim = dims[kind]
        out = tmp_path / f"{kind}.json"
        code = main(["select", "--model", kind, "--n", str(n), "--p", str(p),
                     "--s-true", "2", "--criterion", "cv", "--k-folds", "4",
                     "--grid", "1..4", "--solver", "omp", "--seed", "3", "--out", str(out)])
        assert code == 0, kind
        payload = json.loads(out.read_text())
        assert payload["criterion"] == "cv4"
        assert len(payload["solution"]["params"]) == dim, kind


def test_usage_error_exits_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["solve", "--model", "linear"])  # missing required flags
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["solve", "--model", "linear", "--n", "10", "--p", "5",
              "--s-true", "2", "--s", "2", "--solver", "bogus", "--out", "x.json"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["demo", "compressive-sensing", "--out", str(tmp_path)])  # the scripts in demos/ run these
    assert err.value.code == 2


def test_runtime_error_exits_3(tmp_path, capsys):
    # s_true > p is a generation-time error -> exit code 3
    code = main(["solve", "--model", "linear", "--n", "10", "--p", "5",
                 "--s-true", "9", "--s", "2", "--solver", "omp",
                 "--out", str(tmp_path / "x.json")])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def _strip_runtime(csv_text):
    lines = csv_text.strip().split("\n")
    header = lines[0].split(",")
    drop = header.index("runtime_s")
    return ["\x1f".join(v for i, v in enumerate(line.split(",")) if i != drop)
            for line in lines]


def test_bench_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code = main(["bench", "--suite", "a2-linear", "--scale", "0.02",
                     "--seeds", "0..1", "--out", str(out)])
        assert code == 0
    ta = _strip_runtime((a / "a2-linear.csv").read_text())
    tb = _strip_runtime((b / "a2-linear.csv").read_text())
    assert ta == tb
