"""The public names: every exported name resolves, removed names stay gone,
and every API name the README cites exists."""

import builtins
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import sco
from sco import autodiff, bench, models, problem, selection, solvers

REMOVED = {
    sco: ("oracle_from_functions", "cross_validation", "StartHessian"),
    problem: ("StartHessian",),
    bench: ("demo", "demo_compressive_sensing", "demo_trend_filter"),
    autodiff: ("oracle_from_functions",),
    selection: ("cross_validation",),
    models: ("objective_linear", "objective_logistic", "objective_trend", "objective_ising"),
    solvers: ("solve_forward", "solve_omp", "solve_iht", "solve_htp", "solve_grasp",
              "solve_pdas", "solve_foba", "solve_scope"),
}


@pytest.mark.parametrize("module", list(REMOVED), ids=lambda m: m.__name__)
def test_exports_resolve(module):
    for name in module.__all__:
        assert hasattr(module, name), name
    for name in REMOVED[module]:
        assert name not in module.__all__ and not hasattr(module, name), name


def test_removed_fields_stay_gone():
    fields = {f.name for f in dataclasses.fields(problem.RestrictedResult)}
    assert "last_step" not in fields


def test_restricted_minimize_takes_no_private_knob():
    # the public refit: no start Hessian or other private-typed argument
    assert str(inspect.signature(problem.restricted_minimize)) == \
        "(problem, support, init=None, config=None)"


def test_star_import():
    namespace = {}
    exec("from sco import *", namespace)
    assert set(sco.__all__) <= set(namespace)


README = Path(__file__).resolve().parent.parent / "README.md"
SUBMODULES = {info.name: importlib.import_module(f"sco.{info.name}")
              for info in pkgutil.iter_modules(sco.__path__)}


def _cited():
    # every inline code span of the README outside fenced blocks
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    return re.findall(r"`([^`\n]+)`", text)


def _resolves(obj, attrs):
    for attr in attrs:
        if hasattr(obj, attr):
            obj = getattr(obj, attr)
        elif dataclasses.is_dataclass(obj) and attr in {f.name for f in dataclasses.fields(obj)}:
            return attr == attrs[-1]
        else:
            return False
    return True


def test_readme_cites_only_names_that_exist():
    """A dotted name whose head is ``sco``, one of its submodules or a name
    the package exports must resolve (dataclass fields count), and so must
    a bare CamelCase name, in ``sco``, a submodule or the builtins.  Other
    heads (``np``, ``config``, file names) are not the package's."""
    heads = {"sco": sco, **SUBMODULES}
    for module in (sco, *SUBMODULES.values()):
        heads.update((name, getattr(module, name)) for name in getattr(module, "__all__", ()))
    missing = []
    for span in _cited():
        dotted = re.match(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(\(.*\))?$", span)
        if dotted:
            head, *attrs = dotted.group(1).split(".")
            if head in heads and not _resolves(heads[head], attrs):
                missing.append(span)
        elif re.fullmatch(r"[A-Z][a-z]\w*", span) and span not in heads \
                and not hasattr(builtins, span):
            missing.append(span)
    assert not missing, missing
