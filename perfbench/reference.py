"""Frozen reference blocks that stand in for the host's speed.

On a shared host the speed of interpreter-bound code drifts by 20% and
more over tens of seconds, so raw times of one workload spread that much
between runs.  The benchmark therefore times a reference block before and
after every dataset and scales that dataset's times by ``NOMINAL_S /
measured`` (the geometric mean of the two timings): the end-to-end times
are seconds on a host where the block takes ``NOMINAL_S``.  Each workload
names the block that is the same kind of work as its own:

* ``tape``: a small reverse-mode tape over numpy vectors (a logistic loss
  and its gradient, 150 steps of gradient descent), bound by the
  interpreter like sco's small oracles and refits;
* ``dense``: products with a frozen 10000 x 190 matrix and its transpose
  plus an elementwise ``logaddexp``, bound by numpy like sco's oracles on
  a large stacked design.

The blocks are the benchmark's own code, so a change under ``src/`` cannot
speed them up or slow them down.  Do not edit them: that would rescale
every time the benchmark reports.
"""

import functools
import statistics
import time

import numpy as np

# near each block's time on the 2-core Xeon this benchmark was tuned on
NOMINAL_S = {"tape": 0.004, "dense": 0.008}

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((150, 5))
_Y = (_rng.uniform(size=150) < 0.5).astype(float)


class _Var:
    """A tape node: each op appends its operands' (index, partial) pairs."""

    __slots__ = ("tape", "index", "value")

    def __init__(self, tape, index, value):
        self.tape, self.index, self.value = tape, index, value

    def _emit(self, value, partials):
        self.tape.append(partials)
        return _Var(self.tape, len(self.tape) - 1, value)

    def __sub__(self, other):
        return self._emit(self.value - other.value, ((self.index, 1.0), (other.index, -1.0)))

    def matvec(self, A):
        return self._emit(A @ self.value, ((self.index, ("matvec", A)),))

    def softplus(self):
        z = self.value
        return self._emit(np.logaddexp(0.0, z), ((self.index, 1.0 / (1.0 + np.exp(-z))),))

    def total(self):
        return self._emit(float(np.sum(self.value)), ((self.index, ("total", len(self.value))),))

    def dot(self, y):
        return self._emit(float(self.value @ y), ((self.index, ("dot", y)),))


def _value_and_grad(theta):
    tape = [()]
    t = _Var(tape, 0, theta).matvec(_A)
    f = t.softplus().total() - t.dot(_Y)
    adjoint = [None] * len(tape)
    adjoint[f.index] = 1.0
    for k in range(len(tape) - 1, 0, -1):
        g = adjoint[k]
        if g is None:
            continue
        for j, partial in tape[k]:
            if isinstance(partial, tuple):
                kind, arg = partial
                if kind == "matvec":
                    c = arg.T @ g
                elif kind == "total":
                    c = np.full(arg, g)
                else:
                    c = g * arg
            else:
                c = g * partial
            adjoint[j] = c if adjoint[j] is None else adjoint[j] + c
    return f.value, adjoint[0]


def _tape_block():
    theta = np.zeros(_A.shape[1])
    for _ in range(150):
        _, g = _value_and_grad(theta)
        theta = theta - 0.001 * g


@functools.cache
def _dense_inputs():
    # built on first use, so only the workloads that use the block hold its 15 MB
    rng = np.random.default_rng(1)
    return rng.standard_normal((10_000, 190)), 0.01 * rng.standard_normal(190)


def _dense_block():
    C, theta = _dense_inputs()
    for _ in range(5):
        t = C @ theta
        C.T @ np.logaddexp(0.0, t)


_BLOCKS = {"tape": _tape_block, "dense": _dense_block}


def reference_seconds(block):
    """Median of three timings of the named block."""
    fn = _BLOCKS[block]
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
