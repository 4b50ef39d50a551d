"""The library surface the benchmark harness under ``perfbench/`` relies on.

Each workload's job list runs on one small dataset, once as a plain call
and once traced.  A renamed function the tracer patches, a constructor
argument a workload passes, or a traced run that changes a result would
make every benchmark run fail; these tests fail first.  ``run.py`` is not
imported: it pins process-wide settings at import.
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

from sco import models
from sco.problem import validate_solution

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, run_job  # noqa: E402


def _plain_call(name, fn, args, kind=None):
    return fn(*args)


def _run_jobs(workload, dataset, problem, factory, call):
    return [run_job(workload, job, dataset, problem, factory, call) for job in workload.jobs]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_jobs_run_untraced_and_traced(name):
    workload = WORKLOADS[name]
    dataset = models.generate(workload.specs(7, 1)[0])
    raw = models.build_problem(dataset)
    plain = _run_jobs(workload, dataset, raw, models.build_problem, _plain_call)

    tracer = Tracer()

    def factory(data):
        return tracer.wrap_problem(tracer.build_problem(data))

    with tracer.installed():
        traced = _run_jobs(workload, dataset, tracer.wrap_problem(raw), factory, tracer.call)

    for (sol, s_used), (sol_t, s_used_t) in zip(plain, traced, strict=True):
        assert s_used_t == s_used
        assert sol_t.support.tolist() == sol.support.tolist()
        assert sol_t.objective == sol.objective
        validate_solution(replace(raw, s=s_used), sol)
    assert tracer.layer_metrics()["problem.refit.calls"] > 0
