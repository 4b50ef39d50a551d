"""Reverse-mode automatic differentiation for scalar objective programs.

An objective is an ordinary Python callable written against the operation
set exported here: arithmetic (``+ - * / **``, negation, ``abs``), ``exp``,
``log``, ``sqrt``, ``logistic``, ``log1pexp``, inner products (``@`` or
:func:`dot`), products of constant matrices with variables, squared and
plain Euclidean norms, cumulative sums, sum reduction and indexing.

Tape values are scalars, vectors or matrices.  Gathers (``theta[idx]`` with
a 1-D or 2-D integer index), elementwise operations (with numpy
broadcasting), :func:`vsum` and products ``C @ V`` of a constant matrix
with a variable vector or matrix accept any of them; :func:`sqnorm` and
:func:`norm` take a scalar or a vector, and :func:`cumsum`, ``V @ c`` with
a constant ``c`` and boolean masks a vector.  Other shapes raise
:class:`ProgramError`, for a constant operand of these functions as for a
variable: a constant is evaluated by the rule a variable records.

An oracle built from a program records it once: its first successful
evaluation calls the program with a :class:`Var`, and each operation
appends one node to a :class:`Tape`.  Every later evaluation replays that
recording, the same rules over the same constants, without calling the
program.  ``value`` stops at the recorded root; one reverse sweep, planned
once per recording, then yields the full gradient at a small constant
multiple of the cost of one evaluation, which is what makes
high-dimensional solves viable.  Tape nodes are append-only and reference
only earlier nodes, so the sweep visits each node at most once.  The
restricted oracles an oracle derives never call the program: each replays
its oracle's recording re-bound to z placed at its coordinates (``C @
theta`` becomes ``C[:, coords] @ z``), and names the program's own node
in the errors it raises.

Replay relies on a contract: a program computes only through the exported
operations, and applies the same operations to the same constants on every
call.  Programs cannot branch on tape variables, so this holds unless a
program reads ``Var.val``, or outside state that can change between calls;
both are unsupported.
"""

from __future__ import annotations

import math
import numbers
from functools import partial

import numpy as np

__all__ = [
    "EvaluationError",
    "ProgramError",
    "Tape",
    "Var",
    "ObjectiveOracle",
    "build_objective",
    "fd_gradient",
    "exp",
    "log",
    "sqrt",
    "logistic",
    "log1pexp",
    "dot",
    "sqnorm",
    "norm",
    "vsum",
    "cumsum",
]


class EvaluationError(ArithmeticError):
    """A program left an operation's domain during evaluation.

    Raised for log of a nonpositive value, division by zero, fractional
    powers of negative numbers, and any non-finite intermediate, instead of
    silently propagating nan/inf.  ``node`` is the index of the offending
    node of the program's recording when the failure happened on a tape:
    the same for a restricted oracle as for the oracle it derives from.
    """

    def __init__(self, message, op=None, node=None):
        super().__init__(message)
        self.op = op
        self.node = node


class ProgramError(TypeError):
    """The objective program is not expressible in the supported operation set."""


def _domain(ok, message, op):
    # the caller that applies the rule names the node (see _blame)
    if not ok:
        raise EvaluationError(message, op=op)


def _blame(error, i, j, offset=0):
    # a rule checks its last variable operand: the divisor, or its one operand,
    # named as the program's own node
    error.node = max((j if j >= 0 else i) - offset, 0)


def _const(x):
    if isinstance(x, np.ndarray):
        return x if x.dtype == float else x.astype(float)
    if isinstance(x, (numbers.Real, np.generic)):
        return float(x)
    if isinstance(x, (list, tuple)):
        return np.asarray(x, dtype=float)
    raise ProgramError(f"unsupported operand type {type(x).__name__!r}")


def _dense(coords, p, z):
    # z at coords of a zero p-vector
    x = np.zeros(p)
    x[coords] = z
    return x


# -- operation rules ----------------------------------------------------------
# One rule per operation: ``rule(x, y, c) -> (value, pa, pb)`` maps the
# values of the variable operands (y is ignored by rules of one operand) and
# the operation's constant to the node's value and the partials its adjoint
# reads.  Recording and replay both run these rules.  ``rule.adjoint`` names
# how the reverse sweep reads the partials: "linear" and "product" add
# ``a * pa`` to operand i and ``a * pb`` to operand j, where a linear rule's
# partials depend on its constant alone; "mv" adds ``pa.T @ a``; "sum",
# "cumsum", "scatter" and "gather" are the adjoints of those operations.
# ``rule.ranks`` declares the ranks its operand may have (None: any); the
# one-operand functions check a variable and a constant against it alike.


def _adjoint(kind, ranks=None):
    def mark(rule):
        rule.adjoint = kind
        rule.ranks = ranks
        return rule

    return mark


@_adjoint("linear")
def _add(x, y, c):
    return x + y, 1.0, 1.0


@_adjoint("linear")
def _add_const(x, y, c):
    return x + c, 1.0, None


@_adjoint("linear")
def _sub(x, y, c):
    return x - y, 1.0, -1.0


@_adjoint("linear")
def _rsub_const(x, y, c):
    return c - x, -1.0, None


@_adjoint("linear")
def _scale(x, y, c):
    return x * c, c, None


@_adjoint("product")
def _mul(x, y, c):
    return x * y, y, x


@_adjoint("product")
def _div(x, y, c):
    _domain(np.all(np.asarray(y) != 0.0), "division by zero", "div")
    value = x / y
    return value, 1.0 / y, -value / y


@_adjoint("linear")
def _div_const(x, y, c):
    _domain(np.all(np.asarray(c) != 0.0), "division by zero", "div")
    pa = 1.0 / c
    return x / c, pa, None


@_adjoint("product")
def _rdiv_const(x, y, c):
    _domain(np.all(np.asarray(x) != 0.0), "division by zero", "div")
    value = c / x
    return value, -value / x, None


@_adjoint("product")
def _pow(x, y, c):
    base = np.asarray(x)
    if c != round(c):
        _domain(np.all(base >= 0.0), "fractional power of a negative value", "pow")
    if c < 0.0:
        _domain(np.all(base != 0.0), "zero raised to a negative power", "pow")
    if c < 1.0 and c != 0.0:
        _domain(np.all(base != 0.0), "power gradient undefined at a zero base", "pow")
    value = x ** c
    pa = c * x ** (c - 1.0) if c != 0.0 else np.zeros_like(base) * 1.0
    return value, pa, None


@_adjoint("product")
def _abs(x, y, c):
    # derivative pinned to 0 at 0 (subgradient selection)
    pa = np.sign(x)
    return np.abs(x), pa, None


@_adjoint("product")
def _dot(x, y, c):
    return float(np.dot(x, y)), y, x


@_adjoint("product")
def _dot_const(x, y, c):
    return float(np.dot(x, c)), c, None


# A product C @ x reads only the columns of x's nonzeros when x is a vector
# with at most one nonzero in _SPARSE_SHARE of its entries and C has at least
# _SPARSE_SIZE entries; below either bound the gather costs more than the
# columns it skips (measured, one BLAS thread).  Its adjoint reads all of C.
_SPARSE_SHARE = 32
_SPARSE_SIZE = 1 << 17


@_adjoint("mv")
def _matvec(x, y, c):
    if (x.ndim == 1 and c.size >= _SPARSE_SIZE
            and np.count_nonzero(x) * _SPARSE_SHARE <= len(x)):
        nz = x.nonzero()[0]
        return c[:, nz] @ x[nz], c, None
    return c @ x, c, None


@_adjoint("gather")
def _gather(x, y, c):
    return x[c], c, None


@_adjoint("scatter")
def _scatter(x, y, c):
    coords, p = c
    return _dense(coords, p, x), coords, None


@_adjoint("product")
def _exp(x, y, c):
    v = np.exp(x)
    return v, v, None


@_adjoint("product")
def _log(x, y, c):
    _domain(np.all(np.asarray(x) > 0.0), "log of a nonpositive value", "log")
    pa = 1.0 / x
    return np.log(x), pa, None


@_adjoint("product")
def _sqrt(x, y, c):
    _domain(np.all(np.asarray(x) >= 0.0), "sqrt of a negative value", "sqrt")
    _domain(np.all(np.asarray(x) != 0.0), "sqrt gradient undefined at 0", "sqrt")
    v = np.sqrt(x)
    return v, 0.5 / v, None


def _exp_neg_abs(t):
    # exp(-|t|) in one fresh buffer, a 0-d array for a 0-d t
    e = np.abs(t, out=np.empty(t.shape))
    np.negative(e, out=e)
    return np.exp(e, out=e)


def _logistic_of(t, e):
    # the sigmoid of t, given e = exp(-|t|) in a buffer it may overwrite:
    # where(t >= 0, 1, e) / (1 + e), one division; as 0 <= e <= 1 the
    # numerator is max(e, t >= 0), which branches on no entry
    v = np.maximum(e, t >= 0.0)
    e += 1.0
    v /= e
    return v


@_adjoint("product")
def _logistic(x, y, c):
    t = np.asarray(x)
    v = _logistic_of(t, _exp_neg_abs(t))
    pa = np.subtract(1.0, v)
    pa *= v
    return v, pa, None


@_adjoint("product")
def _log1pexp(x, y, c):
    t = np.asarray(x)
    e = _exp_neg_abs(t)
    v = np.maximum(t, 0.0)
    v += np.log1p(e)
    return v, _logistic_of(t, e), None


@_adjoint("product", ranks=(0, 1))
def _sqnorm(x, y, c):
    pa = 2.0 * x
    return float(np.dot(x, x)), pa, None


@_adjoint("product", ranks=(0, 1))
def _norm(x, y, c):
    # gradient pinned to 0 at the origin
    value = float(np.sqrt(np.dot(x, x)))
    return value, np.zeros_like(x) if value == 0.0 else x / value, None


@_adjoint("sum")
def _sum(x, y, c):
    return float(np.sum(x)), None, None


@_adjoint("cumsum", ranks=(1,))
def _cumsum(x, y, c):
    return np.cumsum(x), None, None


# -- recording ----------------------------------------------------------------


class Tape:
    """Append-only record of one forward evaluation.

    Node 0 is the input; node k > 0 was made by ``ops[k - 1] = (rule, i, j,
    c, shape)``: ``rule`` applied to the values of nodes i and j (j is -1
    when absent) and the constant c.  ``values[k]`` is the node's value, a
    float when ``shape`` is ``()`` and a float array of that shape otherwise
    (the module docstring lists the shapes each operation takes), and
    ``partials[k]`` the pair of partials its adjoint reads.
    """

    __slots__ = ("ops", "values", "partials")

    def __init__(self):
        self.ops = []
        self.values = []
        self.partials = []

    def input(self, value):
        value = np.asarray(value, dtype=float)
        self.values.append(value)
        self.partials.append(None)
        return Var(self, len(self.values) - 1, value)

    def apply(self, rule, x, y=None, c=None):
        """Record ``rule`` over the variables x and y (None when absent)."""
        i = x.idx
        j = -1 if y is None else y.idx
        try:
            value, pa, pb = rule(x.val, None if y is None else y.val, c)
        except EvaluationError as e:
            _blame(e, i, j)
            raise
        shape = getattr(value, "shape", ())
        if not shape:
            value = float(value)
        self.ops.append((rule, i, j, c, shape))
        self.values.append(value)
        self.partials.append((pa, pb))
        return Var(self, len(self.values) - 1, value)


def _binary(var_rule, const_rule, const=_const):
    # the operator applying var_rule to two variables, or const_rule to a
    # variable and const(other)
    def op(self, other):
        o = self._peer(other)
        if o is not None:
            return self.tape.apply(var_rule, self, o)
        return self.tape.apply(const_rule, self, c=const(other))

    return op


def _reflected(const_rule):
    # the reflected operator of a constant on the left
    def op(self, other):
        return self.tape.apply(const_rule, self, c=_const(other))

    return op


class Var:
    """Handle to one tape node; ``val`` is a float, or a float vector or matrix."""

    __slots__ = ("tape", "idx", "val")

    # keep numpy from intercepting mixed expressions so our operators run
    __array_ufunc__ = None

    def __init__(self, tape, idx, val):
        self.tape = tape
        self.idx = idx
        self.val = val

    def _peer(self, other):
        if isinstance(other, Var):
            if other.tape is not self.tape:
                raise ProgramError("cannot mix variables from different tapes")
            return other
        return None

    # -- elementwise arithmetic ------------------------------------------
    # x - c is x + (-c) in IEEE arithmetic, signed zeros included

    __add__ = __radd__ = _binary(_add, _add_const)
    __sub__ = _binary(_sub, _add_const, lambda other: -_const(other))
    __rsub__ = _reflected(_rsub_const)
    __mul__ = __rmul__ = _binary(_mul, _scale)
    __truediv__ = _binary(_div, _div_const)
    __rtruediv__ = _reflected(_rdiv_const)

    def __neg__(self):
        return self.tape.apply(_scale, self, c=-1.0)

    def __pow__(self, exponent):
        if isinstance(exponent, Var):
            raise ProgramError("power requires a real constant exponent")
        return self.tape.apply(_pow, self, c=float(exponent))

    def __abs__(self):
        return self.tape.apply(_abs, self)

    # -- inner products ---------------------------------------------------

    def __matmul__(self, other):
        o = self._peer(other)
        if o is not None:
            if np.ndim(self.val) != 1 or np.ndim(o.val) != 1:
                raise ProgramError("@ between variables requires two vectors")
            return self.tape.apply(_dot, self, o)
        c = _const(other)
        if np.ndim(self.val) != 1:
            raise ProgramError("@ with a constant operand on the right requires a vector variable")
        if np.ndim(c) == 1:
            return self.tape.apply(_dot_const, self, c=c)
        if np.ndim(c) == 2:
            # v @ C == C.T @ v, and the adjoint is C @ a either way
            return self.tape.apply(_matvec, self, c=c.T)
        raise ProgramError("@ expects a vector or matrix operand")

    def __rmatmul__(self, other):
        c = _const(other)
        ndim = np.ndim(self.val)
        if np.ndim(c) == 2 and ndim:
            # C @ V for a vector or matrix V; the adjoint is C.T @ A
            return self.tape.apply(_matvec, self, c=c)
        if np.ndim(c) == 1 and ndim == 1:
            return self.tape.apply(_dot_const, self, c=c)
        raise ProgramError("@ expects a constant matrix times a variable vector or matrix, "
                           "or an inner product of two vectors")

    def __getitem__(self, sel):
        if isinstance(sel, (int, np.integer)):
            return self.tape.apply(_gather, self, c=int(sel))
        if isinstance(sel, slice):
            sel = np.arange(*sel.indices(len(self.val)))
        elif isinstance(sel, tuple):
            raise ProgramError("indexing takes one index (an integer, slice or index array)")
        else:
            sel = np.asarray(sel)
            if sel.dtype == bool:
                if np.ndim(self.val) != 1 or sel.ndim != 1:
                    raise ProgramError("boolean mask indexing requires a vector and a 1-D mask")
                sel = np.flatnonzero(sel)
            elif sel.dtype.kind not in "iu" and sel.size:
                # a fraction would be cut down to the index below it
                raise ProgramError(f"index arrays must hold integers, got dtype {sel.dtype}")
            sel = sel.astype(int)
        return self.tape.apply(_gather, self, c=sel)

    def __bool__(self):
        raise ProgramError("objective programs must not branch on tape variables")

    def __float__(self):
        raise ProgramError("tape variables cannot be collapsed to plain floats")

    def __repr__(self):
        return f"Var(node={self.idx}, val={self.val!r})"


# -- supported elementwise / reduction functions ---------------------------
# Each records a node for a Var; a plain input is a constant (say ``log(w)``
# of a fixed weight vector), which the same rule evaluates, domain checks
# included.  Either way the operand must have a rank the rule declares.


def _unary(rule, x):
    value = x.val if isinstance(x, Var) else _const(x)
    if rule.ranks is not None and np.ndim(value) not in rule.ranks:
        raise ProgramError(f"{rule.__name__[1:]} requires a vector, got shape {np.shape(value)}")
    if isinstance(x, Var):
        return x.tape.apply(rule, x)
    return rule(value, None, None)[0]


def exp(x):
    return _unary(_exp, x)


def log(x):
    return _unary(_log, x)


def sqrt(x):
    if isinstance(x, Var):
        return x.tape.apply(_sqrt, x)
    # the rule refuses 0, where only the gradient is undefined
    if not np.all(np.asarray(x) >= 0.0):
        raise EvaluationError("sqrt of a negative value", op="sqrt")
    return np.sqrt(x)


def logistic(x):
    """Stable sigmoid 1 / (1 + e^-x)."""
    return _unary(_logistic, x)


def log1pexp(x):
    """Stable log(1 + e^x)."""
    return _unary(_log1pexp, x)


def dot(a, b):
    if isinstance(a, Var) or isinstance(b, Var):
        return a @ b
    return float(np.dot(a, b))


def sqnorm(v):
    """Squared Euclidean norm of a vector."""
    return _unary(_sqnorm, v)


def norm(v):
    """Euclidean norm; gradient pinned to 0 at the origin."""
    return _unary(_norm, v)


def vsum(v):
    """Sum of all entries of a vector or matrix."""
    if isinstance(v, Var) and not np.ndim(v.val):
        return v
    return _unary(_sum, v)


def cumsum(v):
    """Running sums of a vector's entries."""
    return _unary(_cumsum, v)


# -- reverse sweep ----------------------------------------------------------
# A plan step ``(k, t, back, fix)`` adds node k's contribution to the adjoint
# of its operand t.  ``back(adj[k], partials[k])`` is the contribution;
# ``fix``, when the contribution does not have t's shape, folds one broadcast
# up in the forward pass back down, or spreads a vsum's scalar adjoint over
# t.  Adjoints are never added into in place, so a contribution may pass an
# adjoint through unchanged.


def _times_pa(a, parts):
    return a * parts[0]


def _times_pb(a, parts):
    return a * parts[1]


def _same(a, parts):  # a * 1.0, bit for bit
    return a


def _negated(a, parts):  # a * -1.0, bit for bit
    return -a


def _mv_adjoint(a, parts):
    return parts[0].T @ a


def _cumsum_adjoint(a, parts):
    # written reversed into a fresh array: numpy does not hand negative-stride
    # arrays to BLAS, so later products with a reversed view round differently
    out = np.empty_like(a)
    np.cumsum(a[::-1], out=out[::-1])
    return out


def _scatter_adjoint(a, parts):
    return a[parts[0]]


def _gather_adjoint(index, shape, a, parts):
    out = np.zeros(shape)
    np.add.at(out, index, a)
    return out


def _fold(shape, contrib):
    # sum a broadcast contribution back down to its operand's shape
    lead = contrib.ndim - len(shape)
    if lead:
        contrib = contrib.sum(axis=tuple(range(lead)))
    ones = tuple(d for d, m in enumerate(shape) if m == 1 and contrib.shape[d] != 1)
    return contrib.sum(axis=ones, keepdims=True) if ones else contrib


def _spread(shape, a):
    out = np.empty(shape)
    out.fill(a)
    return out


def _plan(tape, root):
    """The reverse sweep of a recording, root down and operand i before j."""
    ops = tape.ops
    reached = [False] * (root + 1)
    reached[root] = True
    steps = []
    for k in range(root, 0, -1):
        if not reached[k]:
            continue
        rule, i, j, c, node = ops[k - 1]
        kind, parts = rule.adjoint, tape.partials[k]
        for t, side in ((i, 0), (j, 1)):
            if t < 0:
                continue
            reached[t] = True
            shape, fix = ops[t - 1][4] if t else tape.values[0].shape, None
            if kind in ("linear", "product"):
                part = parts[side]
                if kind == "linear" and type(part) is float and abs(part) == 1.0:
                    back = _same if part == 1.0 else _negated
                else:
                    back = _times_pb if side else _times_pa
                # an elementwise node has its operands' broadcast shape; an
                # inner product's scalar node gets contributions shaped as t
                if node and node != shape:
                    fix = partial(_fold, shape)
            elif kind == "sum":
                back, fix = _same, partial(_spread, shape)
            elif kind == "gather":
                back = partial(_gather_adjoint, c, shape)
            elif kind == "mv":
                back = _mv_adjoint
            elif kind == "cumsum":
                back = _cumsum_adjoint
            else:
                back = _scatter_adjoint
            steps.append((k, t, back, fix))
    return steps


def _sweep(steps, partials, root, dim):
    adj = [None] * (root + 1)
    adj[root] = 1.0
    for k, t, back, fix in steps:
        c = back(adj[k], partials[k])
        if fix is not None:
            c = fix(c)
        adj[t] = c if adj[t] is None else adj[t] + c
    return np.zeros(dim) if adj[0] is None else adj[0]


class _Recording:
    """The op list of one recorded evaluation, rooted at a scalar node, and
    its reverse sweep plan.  It keeps the op structure and constants, never
    an evaluation's values, so any number of evaluations can replay it.

    Each restricted oracle replays its oracle's recording made over its own
    coordinates (see :meth:`placed`).  ``bindings`` lists the positions of
    a template's ops whose constants the coordinates make: a product's
    ``C``, bound as ``C[:, coords]``, and a scatter's p, bound as
    ``(coords, p)``.  ``offset`` counts the scatter nodes inserted before
    the program's own, so node k is the program's node max(k - offset, 0)."""

    __slots__ = ("ops", "root", "steps", "bindings", "offset")

    def __init__(self, ops, root, steps, bindings=(), offset=0):
        self.ops = ops
        self.root = root
        self.steps = steps
        self.bindings = bindings
        self.offset = offset

    def placed(self, p):
        """The template of this recording's restrictions, over z placed at
        some coordinates of a zero p-vector.  A product ``C @ x`` of the
        input binds ``C[:, coords]`` and reads z, at O(n k); every other
        reader of the input reads one scatter node inserted at position 1,
        whose adjoint step comes last."""
        sliced = [rule is _matvec and i == 0 for rule, i, j, c, shape in self.ops]
        lift = int(any((i == 0 and not cut) or j == 0
                       for (rule, i, j, c, shape), cut in zip(self.ops, sliced)))
        ops, bindings = [], []
        if lift:
            bindings.append(len(ops))
            ops.append((_scatter, 0, -1, p, (p,)))
        for (rule, i, j, c, shape), cut in zip(self.ops, sliced):
            if cut:
                bindings.append(len(ops))
            ops.append((rule, i if cut else i + lift, j + lift if j >= 0 else j, c, shape))
        steps = [(k + lift, t if t == 0 and sliced[k - 1] else t + lift, back, fix)
                 for k, t, back, fix in self.steps]
        if lift and any(t == 1 for k, t, back, fix in steps):
            steps.append((1, 0, _scatter_adjoint, None))
        return _Recording(tuple(ops), self.root + lift, tuple(steps), tuple(bindings),
                          self.offset + lift)

    def rebind(self, coords):
        """This template bound to ``coords``: the bound constants are made
        from ``coords`` and the rest is shared.  The sweep plan reads no
        coordinates (the input is read only by ``C[:, coords] @ z`` and the
        scatter, whose adjoints read none), so it is shared too."""
        ops = list(self.ops)
        for k in self.bindings:
            rule, i, j, c, shape = ops[k]
            ops[k] = rule, i, j, c[:, coords] if rule is _matvec else (coords, c), shape
        return _Recording(tuple(ops), self.root, self.steps, (), self.offset)

    def replay(self, theta):
        """Node values and partials at ``theta``, the recorded rules rerun."""
        values = [theta]
        partials = [None]
        keep_value, keep_partials = values.append, partials.append
        for rule, i, j, c, shape in self.ops:
            try:
                # values[j] with j = -1 is a stand-in that one-operand rules ignore
                value, pa, pb = rule(values[i], values[j], c)
            except EvaluationError as e:
                _blame(e, i, j, self.offset)
                raise
            keep_value(value if shape else float(value))
            keep_partials((pa, pb))
        return values, partials


_ERRSTATE = {"divide": "raise", "invalid": "raise", "over": "raise"}


class _Evaluator:
    """A program over R^dim and, once an evaluation of it has succeeded, its
    recording.  :meth:`evaluate` is the one evaluation entry point of
    program oracles.  The recording is never changed after it is made, and
    each evaluation fills lists of its own, so concurrent evaluations need no
    lock; racing first calls each record, and one of their identical
    recordings is kept.  ``template`` caches the recording's
    :meth:`_Recording.placed` once a restricted oracle needs it."""

    __slots__ = ("program", "dim", "recording", "template")

    def __init__(self, program, dim):
        self.program = program
        self.dim = dim
        self.recording = None
        self.template = None

    def value(self, theta):
        return self.evaluate(theta, False)

    def value_and_grad(self, theta):
        return self.evaluate(theta, True)

    def evaluate(self, theta, grad):
        """The value, and with ``grad`` the gradient, at ``theta``: the
        recording replayed, or recorded when there is none.  Floating-point
        faults surface as EvaluationError, type faults as ProgramError, and
        an evaluation that raises keeps no recording."""
        try:
            with np.errstate(**_ERRSTATE):
                recording = self.recording
                if recording is None:
                    recording, values, partials = self._record(theta)
                    if recording is None:
                        # program ignored its argument: constant objective, zero gradient
                        return (values, np.zeros(self.dim)) if grad else values
                else:
                    values, partials = recording.replay(theta)
                root = recording.root
                value = values[root]
                if not math.isfinite(value):
                    raise EvaluationError("non-finite objective value",
                                          node=root - recording.offset)
                if grad:
                    g = _sweep(recording.steps, partials, root, self.dim)
                    if not np.isfinite(g).all():
                        raise EvaluationError("non-finite gradient", node=root - recording.offset)
                    value = value, g
        except FloatingPointError as e:
            raise EvaluationError(f"non-finite value during evaluation: {e}") from e
        except ProgramError:
            raise
        except (TypeError, AttributeError) as e:
            raise ProgramError(f"unsupported operation in objective program: {e}") from e
        if self.recording is None:
            self.recording = recording
        return value

    def _record(self, theta):
        # the program recorded at theta, with the values and partials of its
        # nodes; a constant program gives no recording and its value
        tape = Tape()
        out = self.program(tape.input(theta))
        if not isinstance(out, Var):
            if isinstance(out, numbers.Real):
                return None, float(out), None
            raise ProgramError("program must return a scalar")
        if out.tape is not tape:
            raise ProgramError("program returned a variable from a foreign tape")
        if np.ndim(out.val) != 0:
            raise ProgramError("objective must evaluate to a scalar")
        recording = _Recording(tuple(tape.ops), out.idx, _plan(tape, out.idx))
        return recording, tape.values, tape.partials


# -- restriction --------------------------------------------------------------


class _PlacedEvaluator(_Evaluator):
    """The evaluator of a derived restricted oracle: its parent's recording
    re-bound to z placed at ``coords``.  It never calls the program.  A
    parent with no recording yet is recorded at the placed point first."""

    __slots__ = ("parent", "coords")

    def __init__(self, parent, coords):
        super().__init__(None, len(coords))
        self.parent = parent
        self.coords = coords

    def _record(self, theta):
        parent = self.parent
        if parent.recording is None:
            value = parent.evaluate(_dense(self.coords, parent.dim, theta), False)
            if parent.recording is None:
                return None, value, None  # a constant program
        if parent.template is None:
            parent.template = parent.recording.placed(parent.dim)
        recording = parent.template.rebind(self.coords)
        return (recording, *recording.replay(theta))


def _derived(parent, scale, coords):
    # the derived restricted oracle of a program oracle's evaluator
    evaluator = _PlacedEvaluator(parent, coords)
    return ObjectiveOracle(len(coords), evaluator.value, evaluator.value_and_grad, scale=scale,
                           restrict=partial(_derived, evaluator, scale))


def _zero_padded(oracle, coords):
    # the restriction of an oracle built from opaque functions
    p = oracle.dim

    def value_and_grad(z):
        f, g = oracle.value_and_grad(_dense(coords, p, z))
        return f, g[coords]

    return ObjectiveOracle(len(coords), lambda z: oracle.value(_dense(coords, p, z)),
                           value_and_grad, scale=oracle.scale)


# -- oracle -----------------------------------------------------------------


def _require_integer(value, name):
    # a float count would be cut down, or fail later inside slicing or range;
    # a plain int skips the abstract-class check, which costs 0.6 us, and
    # every restricted oracle built checks its dimension
    if type(value) is not int and not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _integer_indices(values, what, size, distinct=False):
    # indices into 0..size-1 as a 1-D int array: a fraction would be cut down,
    # a boolean mask read as 0/1 indices, a 2-D array flattened and a negative
    # index wrapped round, so each raises ValueError instead; with
    # ``distinct`` so does a repeated index, which would be counted twice
    given = np.asarray(values)
    if given.dtype.kind not in "iu" and given.size:
        raise ValueError(f"{what} must be integers")
    if given.ndim != 1:
        raise ValueError(f"{what} must be a 1-D array, got shape {given.shape}")
    listed = given.tolist()
    if listed and not 0 <= min(listed) <= max(listed) < size:
        raise ValueError(f"{what} out of range: each must lie in 0..{size - 1}")
    if distinct and len(set(listed)) != len(listed):
        raise ValueError(f"{what} must be distinct")
    return given.astype(int)


def _vector(x, p, what):
    # x as a float vector of shape (p,): a vector of another length would be
    # read in part or fail deep inside, and a matrix be read row by row
    x = np.asarray(x, dtype=float)
    if x.shape != (p,):
        raise ValueError(f"{what} has the wrong shape: expected a vector of length p={p}, "
                         f"got shape {x.shape}")
    return x


class ObjectiveOracle:
    """Value/gradient pair over R^dim; the contract every solver consumes.

    ``scale`` optionally tags the objective for the information criteria:
    ``"rss"`` for half-sum-of-squares objectives, ``"nll"`` for negative
    log-likelihoods.  ``restricted(coords)`` returns an oracle over just
    those coordinates (used to keep active-set refits cheap): the
    ``restrict`` hook's, or zero-padded evaluation without one.  Oracles
    are safe to share across concurrent solves: a program oracle records
    its program once and never changes the recording, and each evaluation
    replays it into buffers of its own.
    """

    __slots__ = ("dim", "scale", "_value", "_vag", "_restrict")

    def __init__(self, dim, value_fn, value_and_grad_fn, scale=None, restrict=None):
        self.dim = int(_require_integer(dim, "dim"))
        self.scale = scale
        self._value = value_fn
        self._vag = value_and_grad_fn
        self._restrict = restrict

    def value(self, theta):
        return self._value(_vector(theta, self.dim, "theta"))

    def gradient(self, theta):
        return self._vag(_vector(theta, self.dim, "theta"))[1]

    def value_and_grad(self, theta):
        return self._vag(_vector(theta, self.dim, "theta"))

    def restricted(self, coords):
        """Oracle over ``coords``: distinct integers in 0..dim-1, in a 1-D
        array; raises ValueError otherwise."""
        coords = _integer_indices(coords, "restricted coordinates", self.dim, distinct=True)
        if self._restrict is None:
            return _zero_padded(self, coords)
        sub = self._restrict(coords)
        if sub.dim != len(coords):
            raise ValueError("restricted oracle has the wrong dimension")
        return sub

    def __repr__(self):
        tag = f", scale={self.scale!r}" if self.scale else ""
        return f"ObjectiveOracle(dim={self.dim}{tag})"


def build_objective(program, dim, *, scale=None, restrict=None, probe=True):
    """Wrap a differentiable program into an :class:`ObjectiveOracle`.

    The first successful evaluation records the program on a tape, and
    every later one replays that recording without calling the program;
    ``value`` skips the backward sweep.  So ``value`` raises
    :class:`EvaluationError` exactly where ``value_and_grad`` would,
    including where only the gradient is undefined (``sqrt`` at 0), on the
    full oracle and on every restricted one alike.  An evaluation that
    raises keeps no recording.  An analytic gradient is supplied by building
    ``ObjectiveOracle(dim, f, lambda th: (f(th), g(th)))`` directly.

    Replay needs the program to compute only through the exported
    operations and to apply the same operations to the same constants on
    every call.  Reading ``Var.val``, or outside state that can change
    between calls (a global, an array mutated later), is unsupported: the
    recording keeps what the first call saw.

    Parameters
    ----------
    program : callable
        Maps the parameter vector, received as a :class:`Var`, to a scalar
        using the supported operation set.  It is called once per successful
        recording of the oracle, never by its restricted oracles.
    dim : int
        Parameter dimension p.
    scale : {"rss", "nll", None}
        Objective-scale tag consumed by the information criteria.
    restrict : callable, optional
        ``restrict(coords) -> ObjectiveOracle`` building the same objective
        over a coordinate subset (others pinned to zero).  By default it is
        derived from the oracle's recording, which is re-bound to z placed
        at ``coords`` of a zero vector: ``C @ theta`` becomes
        ``C[:, coords] @ z`` at O(n k), and every other use of theta reads
        the placed vector.  No restricted oracle, at any depth, calls the
        program; an oracle with no recording yet records at the placed
        point on its first restricted call.  A restricted oracle raises the
        :class:`EvaluationError` its oracle would, naming the same node.
    probe : bool
        Run one recorded evaluation up front so unsupported operations
        surface as a construction error rather than at solve time.
    """
    evaluator = _Evaluator(program, dim)
    if restrict is None:
        restrict = partial(_derived, evaluator, scale)
    oracle = ObjectiveOracle(dim, evaluator.value, evaluator.value_and_grad, scale=scale,
                             restrict=restrict)
    if probe:
        try:
            oracle.value_and_grad(np.full(dim, 0.5))
        except EvaluationError:
            pass  # domain trouble at the probe point is a runtime concern, not a construction one
    return oracle


def fd_gradient(oracle, theta, step=None):
    """Central-difference gradient, the independent check for the tape.

    With ``step=None`` each coordinate uses h_i = 1e-6 * (1 + |theta_i|);
    otherwise the given positive step is used for every coordinate.
    """
    theta = np.asarray(theta, dtype=float)
    if step is not None and not step > 0.0:
        raise ValueError("step must be positive")
    g = np.empty_like(theta)
    for i in range(len(theta)):
        h = step if step is not None else 1e-6 * (1.0 + abs(theta[i]))
        e = np.zeros_like(theta)
        e[i] = h
        g[i] = (oracle.value(theta + e) - oracle.value(theta - e)) / (2.0 * h)
    return g
