"""The public names: every exported name resolves, and removed names stay gone."""

import pytest

import sco
from sco import autodiff, bench, models, selection, solvers

REMOVED = {
    sco: ("oracle_from_functions", "cross_validation"),
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


def test_star_import():
    namespace = {}
    exec("from sco import *", namespace)
    assert set(sco.__all__) <= set(namespace)
