"""Spans and counters recorded from outside the library.

Nothing under ``src/`` is instrumented.  A :class:`Tracer` instead

* wraps each problem's oracle in a counting, timing ``ObjectiveOracle``
  built through its public constructor; the wrapper's ``restrict`` hook
  times construction of the restricted oracle and wraps it as well;
* while :meth:`Tracer.installed` is active, replaces
  ``restricted_minimize`` as ``sco.solvers`` binds it, and ``solve`` and
  ``solve_path`` as ``sco.selection`` binds them.

Oracle calls are too many to keep one span each (a run with many refits makes
hundreds of thousands), so they are summed per (level, operation) and
their time is charged to the span that made them.  A span's self time is
its duration minus its direct children's time, oracle calls included.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import replace

import sco.selection
import sco.solvers
from sco import models
from sco.autodiff import ObjectiveOracle
from sco.solvers import SolverKind

from workloads import CROSS_VALIDATE, SELECT_BY_IC, SOLVE

clock = time.perf_counter

REFIT = "problem.restricted_minimize"
RESTRICT = "autodiff.restrict"
SOLVE_PATH = "selection.solve_path"
BUILD = "models.build_problem"

LEVELS = ("full", "sub")
OPS = ("value", "vag")


class Span:
    __slots__ = ("index", "name", "parent", "job", "kind", "start", "end", "child",
                 "iterations", "converged")

    def __init__(self, index, name, parent, job, kind):
        self.index = index
        self.name = name
        self.parent = parent
        self.job = job
        self.kind = kind
        self.start = self.end = 0.0
        self.child = 0.0
        self.iterations = None
        self.converged = None

    @property
    def seconds(self):
        return self.end - self.start

    @property
    def self_seconds(self):
        return self.seconds - self.child

    def record(self, origin):
        """The span as written out: times in seconds from ``origin``."""
        return {"name": self.name, "start": self.start - origin, "end": self.end - origin,
                "parent": self.parent, "job": self.job, "kind": self.kind,
                "self": self.self_seconds}


class Tracer:
    """Spans and oracle counters of a traced run."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.oracle = {(level, op): [0, 0.0] for level in LEVELS for op in OPS}
        self.refit_values = 0  # value calls made directly inside a refit

    def call(self, name, fn, args, kind=None):
        parent = self.stack[-1] if self.stack else None
        span = Span(len(self.spans), name, None if parent is None else parent.index,
                    self.job, kind)
        self.spans.append(span)
        self.stack.append(span)
        span.start = clock()
        try:
            out = fn(*args)
        finally:
            span.end = clock()
            self.stack.pop()
            if parent is not None:
                parent.child += span.seconds
        span.iterations = getattr(out, "iterations", None)
        span.converged = getattr(out, "converged", None)
        return out

    def wrap_problem(self, problem):
        return replace(problem, oracle=self._wrap(problem.oracle, "full"))

    def _wrap(self, oracle, level):
        restrict = None
        if level == "full":
            # every model in sco.models supplies a restrict hook, so
            # oracle.restricted never returns None here
            def restrict(coords):
                return self._wrap(self.call(RESTRICT, oracle.restricted, (coords,)), "sub")

        return ObjectiveOracle(oracle.dim, self._timed(oracle.value, level, "value"),
                               self._timed(oracle.value_and_grad, level, "vag"),
                               scale=oracle.scale, restrict=restrict)

    def _timed(self, fn, level, op):
        rec = self.oracle[(level, op)]
        stack = self.stack
        counts_refit_values = op == "value"

        def timed(theta):
            t0 = clock()
            try:
                return fn(theta)
            finally:
                dt = clock() - t0
                rec[0] += 1
                rec[1] += dt
                if stack:
                    top = stack[-1]
                    top.child += dt
                    if counts_refit_values and top.name == REFIT:
                        self.refit_values += 1

        return timed

    def build_problem(self, dataset):
        return self.call(BUILD, models.build_problem, (dataset,))

    @contextmanager
    def installed(self):
        """Route the library's internal refit, solve and path calls through spans."""
        refit, solve, solve_path = (sco.solvers.restricted_minimize, sco.selection.solve,
                                    sco.selection.solve_path)
        sco.solvers.restricted_minimize = lambda *args: self.call(REFIT, refit, args)
        sco.selection.solve = lambda *args: self.call(
            SOLVE, solve, args, kind=SolverKind(args[0]).value)
        sco.selection.solve_path = lambda *args: self.call(SOLVE_PATH, solve_path, args)
        try:
            yield self
        finally:
            sco.solvers.restricted_minimize = refit
            sco.selection.solve = solve
            sco.selection.solve_path = solve_path

    def by_name(self, name):
        return [s for s in self.spans if s.name == name]

    def layer_metrics(self):
        """Per-layer counts and times of the run (``*.s`` values are sums)."""
        m = {}
        for (level, op), (calls, secs) in self.oracle.items():
            m[f"autodiff.{level}.{op}.calls"] = calls
            m[f"autodiff.{level}.{op}.s"] = secs
        restricts = self.by_name(RESTRICT)
        m["autodiff.restrict.calls"] = len(restricts)
        m["autodiff.restrict.s"] = sum(s.seconds for s in restricts)

        refits = self.by_name(REFIT)
        n_refits = len(refits)
        m["problem.refit.calls"] = n_refits
        m["problem.refit.s"] = sum(s.seconds for s in refits)
        m["problem.refit.self_s"] = sum(s.self_seconds for s in refits)
        m["problem.refit.iterations"] = sum(s.iterations or 0 for s in refits)
        m["problem.refit.value_per_refit"] = self.refit_values / n_refits if n_refits else 0.0
        m["problem.refit.unconverged_frac"] = (
            sum(not s.converged for s in refits) / n_refits if n_refits else 0.0)

        solves = self.by_name(SOLVE)
        for kind in (k.value for k in SolverKind):
            mine = [s for s in solves if s.kind == kind]
            m[f"solvers.{kind}.solve_s"] = (
                statistics.median(s.seconds for s in mine) if mine else 0.0)
            m[f"solvers.{kind}.iterations"] = sum(s.iterations or 0 for s in mine)
        m["solvers.solve.calls"] = len(solves)
        m["solvers.self_s"] = sum(s.self_seconds for s in solves)

        m["selection.select_by_ic.s"] = sum(s.seconds for s in self.by_name(SELECT_BY_IC))
        m["selection.cross_validate.s"] = sum(s.seconds for s in self.by_name(CROSS_VALIDATE))
        m["selection.solve_path.calls"] = len(self.by_name(SOLVE_PATH))

        builds = self.by_name(BUILD)
        m["models.build_problem.s"] = sum(s.seconds for s in builds)
        m["models.build_problem.calls"] = len(builds)
        return m
