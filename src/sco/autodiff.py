"""Reverse-mode automatic differentiation for scalar objective programs.

An objective is an ordinary Python callable written against the operation
set exported here: arithmetic (``+ - * / **``, negation, ``abs``), ``exp``,
``log``, ``sqrt``, ``logistic``, ``log1pexp``, inner products (``@`` or
:func:`dot`), products of constant matrices with variables, squared and
plain Euclidean norms, cumulative sums, sum reduction and indexing.

Tape values are scalars, vectors or matrices.  Gathers (``theta[idx]`` with
a 1-D or 2-D integer index), elementwise operations (with numpy
broadcasting), :func:`vsum` and products ``C @ V`` of a constant matrix
with a variable vector or matrix accept any of them; :func:`sqnorm`,
:func:`norm`, :func:`cumsum`, ``V @ c`` with a constant ``c`` and boolean
masks stay vector-only and raise :class:`ProgramError` on a matrix.

Every oracle built from a program evaluates it on a tape: the program is
called with a :class:`Var` and records its operations.  ``value`` stops at
the recorded root; one reverse sweep over the tape then yields the full
gradient at a small constant multiple of the cost of one evaluation, which
is what makes high-dimensional solves viable.
Tape nodes are append-only and reference only earlier nodes, so a single
backward pass visits each node exactly once.
"""

from __future__ import annotations

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
    tape node when the failure happened on a recorded tape.
    """

    def __init__(self, message, op=None, node=None):
        super().__init__(message)
        self.op = op
        self.node = node


class ProgramError(TypeError):
    """The objective program is not expressible in the supported operation set."""


class Tape:
    """Append-only record of one forward evaluation.

    Each node is a tuple ``(kind, i, j, pa, pb)`` where ``i``/``j`` index
    operand nodes (-1 when absent; constants are folded into the stored
    partials) and ``pa``/``pb`` carry whatever the backward rule for
    ``kind`` needs (local partials, the constant matrix, index arrays...).
    ``shapes[k]`` is ``np.shape`` of node k's value: ``()`` for a scalar,
    ``(m,)`` for a vector, ``(m, r)`` for a matrix (the module docstring
    lists the operations that stay vector-only).
    """

    __slots__ = ("nodes", "shapes")

    def __init__(self):
        self.nodes = []
        self.shapes = []

    def emit(self, kind, i, j, pa, pb, value):
        # values are stored as python floats or float arrays of any shape
        shape = getattr(value, "shape", ())
        if not shape:
            value = float(value)
        self.nodes.append((kind, i, j, pa, pb))
        self.shapes.append(shape)
        return Var(self, len(self.nodes) - 1, value)

    def input(self, value):
        value = np.asarray(value, dtype=float)
        return self.emit("in", -1, -1, None, None, value)


def _domain(ok, message, op, var=None):
    if not ok:
        raise EvaluationError(message, op=op, node=None if var is None else var.idx)


def _const(x):
    if isinstance(x, np.ndarray):
        return x if x.dtype == float else x.astype(float)
    if isinstance(x, (numbers.Real, np.generic)):
        return float(x)
    if isinstance(x, (list, tuple)):
        return np.asarray(x, dtype=float)
    raise ProgramError(f"unsupported operand type {type(x).__name__!r}")


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

    def __add__(self, other):
        o = self._peer(other)
        if o is not None:
            return self.tape.emit("lin", self.idx, o.idx, 1.0, 1.0, self.val + o.val)
        return self.tape.emit("lin", self.idx, -1, 1.0, None, self.val + _const(other))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._peer(other)
        if o is not None:
            return self.tape.emit("lin", self.idx, o.idx, 1.0, -1.0, self.val - o.val)
        return self.tape.emit("lin", self.idx, -1, 1.0, None, self.val - _const(other))

    def __rsub__(self, other):
        return self.tape.emit("lin", self.idx, -1, -1.0, None, _const(other) - self.val)

    def __neg__(self):
        return self.tape.emit("lin", self.idx, -1, -1.0, None, -self.val)

    def __mul__(self, other):
        o = self._peer(other)
        if o is not None:
            return self.tape.emit("mul", self.idx, o.idx, o.val, self.val, self.val * o.val)
        c = _const(other)
        return self.tape.emit("lin", self.idx, -1, c, None, self.val * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._peer(other)
        if o is not None:
            _domain(np.all(np.asarray(o.val) != 0.0), "division by zero", "div", o)
            value = self.val / o.val
            return self.tape.emit("div", self.idx, o.idx, 1.0 / o.val, -value / o.val, value)
        c = _const(other)
        _domain(np.all(np.asarray(c) != 0.0), "division by zero", "div", self)
        return self.tape.emit("lin", self.idx, -1, 1.0 / c, None, self.val / c)

    def __rtruediv__(self, other):
        c = _const(other)
        _domain(np.all(np.asarray(self.val) != 0.0), "division by zero", "div", self)
        value = c / self.val
        return self.tape.emit("div", -1, self.idx, None, -value / self.val, value)

    def __pow__(self, exponent):
        if isinstance(exponent, Var):
            raise ProgramError("power requires a real constant exponent")
        c = float(exponent)
        base = np.asarray(self.val)
        if c != round(c):
            _domain(np.all(base >= 0.0), "fractional power of a negative value", "pow", self)
        if c < 0.0:
            _domain(np.all(base != 0.0), "zero raised to a negative power", "pow", self)
        if c < 1.0 and c != 0.0:
            _domain(np.all(base != 0.0), "power gradient undefined at a zero base", "pow", self)
        value = self.val ** c
        partial = c * self.val ** (c - 1.0) if c != 0.0 else np.zeros_like(base) * 1.0
        return self.tape.emit("uf", self.idx, -1, partial, None, value)

    def __abs__(self):
        # derivative pinned to 0 at 0 (subgradient selection)
        return self.tape.emit("uf", self.idx, -1, np.sign(self.val), None, np.abs(self.val))

    # -- inner products ---------------------------------------------------

    def __matmul__(self, other):
        o = self._peer(other)
        if o is not None:
            if np.ndim(self.val) != 1 or np.ndim(o.val) != 1:
                raise ProgramError("@ between variables requires two vectors")
            return self.tape.emit("dot", self.idx, o.idx, o.val, self.val, float(np.dot(self.val, o.val)))
        c = _const(other)
        if np.ndim(self.val) != 1:
            raise ProgramError("@ with a constant operand on the right requires a vector variable")
        if np.ndim(c) == 1:
            return self.tape.emit("red", self.idx, -1, c, None, float(np.dot(self.val, c)))
        if np.ndim(c) == 2:
            # v @ A == A.T @ v; store the effective matrix for the backward rule
            return self.tape.emit("mv", self.idx, -1, c.T, None, self.val @ c)
        raise ProgramError("@ expects a vector or matrix operand")

    def __rmatmul__(self, other):
        c = _const(other)
        ndim = np.ndim(self.val)
        if np.ndim(c) == 2 and ndim:
            # C @ V for a vector or matrix V; the adjoint is C.T @ A
            return self.tape.emit("mv", self.idx, -1, c, None, c @ self.val)
        if np.ndim(c) == 1 and ndim == 1:
            return self.tape.emit("red", self.idx, -1, c, None, float(np.dot(c, self.val)))
        raise ProgramError("@ expects a constant matrix times a variable vector or matrix, "
                           "or an inner product of two vectors")

    def __getitem__(self, sel):
        if isinstance(sel, (int, np.integer)):
            return self.tape.emit("idx", self.idx, -1, int(sel), None, self.val[sel])
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
            sel = sel.astype(int)
        return self.tape.emit("idx", self.idx, -1, sel, None, self.val[sel])

    def __bool__(self):
        raise ProgramError("objective programs must not branch on tape variables")

    def __float__(self):
        raise ProgramError("tape variables cannot be collapsed to plain floats")

    def __repr__(self):
        return f"Var(node={self.idx}, val={self.val!r})"


# -- supported elementwise / reduction functions ---------------------------
# Each records a node for a Var; a plain input is a constant (say ``log(w)``
# of a fixed weight vector) and is evaluated directly.


def exp(x):
    if isinstance(x, Var):
        v = np.exp(x.val)
        return x.tape.emit("uf", x.idx, -1, v, None, v)
    return np.exp(x)


def log(x):
    if isinstance(x, Var):
        _domain(np.all(np.asarray(x.val) > 0.0), "log of a nonpositive value", "log", x)
        return x.tape.emit("uf", x.idx, -1, 1.0 / x.val, None, np.log(x.val))
    if not np.all(np.asarray(x) > 0.0):
        raise EvaluationError("log of a nonpositive value", op="log")
    return np.log(x)


def sqrt(x):
    if isinstance(x, Var):
        _domain(np.all(np.asarray(x.val) >= 0.0), "sqrt of a negative value", "sqrt", x)
        _domain(np.all(np.asarray(x.val) != 0.0), "sqrt gradient undefined at 0", "sqrt", x)
        v = np.sqrt(x.val)
        return x.tape.emit("uf", x.idx, -1, 0.5 / v, None, v)
    if not np.all(np.asarray(x) >= 0.0):
        raise EvaluationError("sqrt of a negative value", op="sqrt")
    return np.sqrt(x)


def _logistic_plain(t):
    e = np.exp(-np.abs(t))
    return np.where(np.asarray(t) >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def logistic(x):
    """Stable sigmoid 1 / (1 + e^-x)."""
    if isinstance(x, Var):
        v = _logistic_plain(x.val)
        return x.tape.emit("uf", x.idx, -1, v * (1.0 - v), None, v)
    return _logistic_plain(x)


def _log1pexp_plain(t):
    t = np.asarray(t)
    return np.where(t > 0.0, t, 0.0) + np.log1p(np.exp(-np.abs(t)))


def log1pexp(x):
    """Stable log(1 + e^x)."""
    if isinstance(x, Var):
        v = _log1pexp_plain(x.val)
        return x.tape.emit("uf", x.idx, -1, _logistic_plain(x.val), None, v)
    return _log1pexp_plain(x)


def dot(a, b):
    if isinstance(a, Var) or isinstance(b, Var):
        return a @ b
    return float(np.dot(a, b))


def _vector_only(v, op):
    if np.ndim(v.val) > 1:
        raise ProgramError(f"{op} requires a vector, got shape {np.shape(v.val)}")


def sqnorm(v):
    """Squared Euclidean norm of a vector."""
    if isinstance(v, Var):
        _vector_only(v, "sqnorm")
        return v.tape.emit("red", v.idx, -1, 2.0 * v.val, None, float(np.dot(v.val, v.val)))
    return float(np.dot(v, v))


def norm(v):
    """Euclidean norm; gradient pinned to 0 at the origin."""
    if isinstance(v, Var):
        _vector_only(v, "norm")
        value = float(np.sqrt(np.dot(v.val, v.val)))
        partial = np.zeros_like(v.val) if value == 0.0 else v.val / value
        return v.tape.emit("red", v.idx, -1, partial, None, value)
    return float(np.sqrt(np.dot(v, v)))


def vsum(v):
    """Sum of all entries of a vector or matrix."""
    if isinstance(v, Var):
        if np.ndim(v.val) == 0:
            return v
        return v.tape.emit("sum", v.idx, -1, None, None, float(np.sum(v.val)))
    return float(np.sum(v))


def cumsum(v):
    """Running sums of a vector's entries."""
    if isinstance(v, Var):
        if np.ndim(v.val) != 1:
            raise ProgramError(f"cumsum requires a vector, got shape {np.shape(v.val)}")
        return v.tape.emit("cumsum", v.idx, -1, None, None, np.cumsum(v.val))
    if np.ndim(v) > 1:
        raise ProgramError(f"cumsum requires a vector, got shape {np.shape(v)}")
    return np.cumsum(v)


# -- reverse sweep ----------------------------------------------------------


def _fold(contrib, shape):
    # sum a broadcast contribution back down to its operand's shape
    lead = contrib.ndim - len(shape)
    if lead:
        contrib = contrib.sum(axis=tuple(range(lead)))
    ones = tuple(d for d, m in enumerate(shape) if m == 1 and contrib.shape[d] != 1)
    return contrib.sum(axis=ones, keepdims=True) if ones else contrib


def _accumulate(adj, shapes, k, contrib):
    if k < 0:
        return
    shape = shapes[k]
    if not shape:
        c = float(contrib) if np.ndim(contrib) == 0 else float(np.sum(contrib))
        adj[k] = c if adj[k] is None else adj[k] + c
    else:
        if adj[k] is None:
            adj[k] = np.zeros(shape)
        try:
            adj[k] += contrib
        except ValueError:  # the operand was broadcast up in the forward pass
            adj[k] += _fold(contrib, shape)


def _backward(tape, root, p):
    nodes, shapes = tape.nodes, tape.shapes
    adj = [None] * (root + 1)
    adj[root] = 1.0 if not shapes[root] else np.ones(shapes[root])
    for k in range(root, 0, -1):
        a = adj[k]
        if a is None:
            continue
        kind, i, j, pa, pb = nodes[k]
        if kind == "lin":
            _accumulate(adj, shapes, i, a * pa)
            if j >= 0:
                _accumulate(adj, shapes, j, a * pb)
        elif kind in ("mul", "div", "dot"):
            if i >= 0:
                _accumulate(adj, shapes, i, a * pa)
            if j >= 0:
                _accumulate(adj, shapes, j, a * pb)
        elif kind in ("uf", "red"):
            _accumulate(adj, shapes, i, a * pa)
        elif kind == "mv":
            _accumulate(adj, shapes, i, pa.T @ a)
        elif kind == "sum":
            _accumulate(adj, shapes, i, a)
        elif kind == "cumsum":
            _accumulate(adj, shapes, i, np.cumsum(a[::-1])[::-1])
        elif kind == "scatter":
            _accumulate(adj, shapes, i, a[pa])
        elif kind == "idx":
            if adj[i] is None:
                adj[i] = np.zeros(shapes[i])
            np.add.at(adj[i], pa, a)
        else:  # pragma: no cover - exhaustive over emitted kinds
            raise ProgramError(f"unknown tape node kind {kind!r}")
    g = adj[0]
    if g is None:
        return np.zeros(p)
    return np.asarray(g, dtype=float)


def _tape_eval(program, theta, p, grad):
    tape = Tape()
    out = program(tape.input(theta))
    if isinstance(out, Var):
        if out.tape is not tape:
            raise ProgramError("program returned a variable from a foreign tape")
        if np.ndim(out.val) != 0:
            raise ProgramError("objective must evaluate to a scalar")
        value = float(out.val)
        if not np.isfinite(value):
            raise EvaluationError("non-finite objective value", node=out.idx)
        if not grad:
            return value
        g = _backward(tape, out.idx, p)
        if not np.all(np.isfinite(g)):
            raise EvaluationError("non-finite gradient", node=out.idx)
        return value, g
    if isinstance(out, numbers.Real):
        # program ignored its argument: constant objective, zero gradient
        return (float(out), np.zeros(p)) if grad else float(out)
    raise ProgramError("program must return a scalar")


class _Placement:
    """z at ``coords`` of a zero p-vector, the input of a derived restricted
    oracle.  ``C @ x`` multiplies z by ``C[:, coords]``, sliced once per
    constant C and kept here; :meth:`dense` builds the dense vector."""

    __slots__ = ("coords", "p", "_columns")

    def __init__(self, coords, p):
        self.coords = coords
        self.p = p
        self._columns = {}

    def dense(self, z):
        x = np.zeros(self.p)
        x[self.coords] = z
        return x

    def columns(self, C):
        hit = self._columns.get(id(C))
        if hit is not None and hit[0] is C:
            return hit[1]
        if np.ndim(C) != 2 or np.shape(C)[1] != self.p:
            return None
        cols = _const(C)[:, self.coords]
        if len(self._columns) < 4:  # the entry holds C, so its id stays valid
            self._columns[id(C)] = (C, cols)
        return cols


class _PlacedVar(Var):
    """The placed input on the tape, over the input variable z.  ``C @ x``
    records one product with ``C[:, coords]``; every other use reads one
    ``scatter`` node, emitted at the first such use."""

    __slots__ = ("at", "z", "_dense")

    def __init__(self, at, z):
        self.tape = z.tape
        self.at = at
        self.z = z
        self._dense = None

    def _densify(self):
        if self._dense is None:
            self._dense = self.tape.emit("scatter", self.z.idx, -1, self.at.coords, None,
                                         self.at.dense(self.z.val))
        return self._dense

    @property
    def idx(self):
        return self._densify().idx

    @property
    def val(self):
        return self._densify().val

    def __rmatmul__(self, other):
        cols = self.at.columns(other)
        return super().__rmatmul__(other) if cols is None else self.z.__rmatmul__(cols)


def _derived_restriction(program, p, scale, coords):
    at = _Placement(coords, p)

    def placed(z):
        return program(_PlacedVar(at, z))

    return _program_oracle(placed, len(coords), scale)


def _zero_padded(oracle, coords):
    # the restriction of an oracle built from opaque functions
    at = _Placement(coords, oracle.dim)

    def value_and_grad(z):
        f, g = oracle.value_and_grad(at.dense(z))
        return f, g[coords]

    return ObjectiveOracle(len(coords), lambda z: oracle.value(at.dense(z)), value_and_grad,
                           scale=oracle.scale)


# -- oracle -----------------------------------------------------------------


def _integer_indices(values, what):
    # an index array is cast to int only when it holds integers: a fractional
    # index would be cut down and a boolean mask read as 0/1 indices
    given = np.asarray(values)
    if given.size and given.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers")
    return given.astype(int)


class ObjectiveOracle:
    """Value/gradient pair over R^dim; the contract every solver consumes.

    ``scale`` optionally tags the objective for the information criteria:
    ``"rss"`` for half-sum-of-squares objectives, ``"nll"`` for negative
    log-likelihoods.  ``restricted(coords)`` returns an oracle over just
    those coordinates (used to keep active-set refits cheap): the
    ``restrict`` hook's, or zero-padded evaluation without one.  Oracles
    are immutable after construction and safe to share across concurrent
    solves; each evaluation owns its own tape.
    """

    __slots__ = ("dim", "scale", "_value", "_vag", "_restrict")

    def __init__(self, dim, value_fn, value_and_grad_fn, scale=None, restrict=None):
        self.dim = int(dim)
        self.scale = scale
        self._value = value_fn
        self._vag = value_and_grad_fn
        self._restrict = restrict

    def value(self, theta):
        return self._value(self._coerce(theta))

    def gradient(self, theta):
        return self._vag(self._coerce(theta))[1]

    def value_and_grad(self, theta):
        return self._vag(self._coerce(theta))

    def restricted(self, coords):
        """Oracle over distinct in-range integer ``coords``; raises ValueError otherwise."""
        coords = _integer_indices(coords, "restricted coordinates")
        listed = coords.tolist()
        if coords.ndim != 1 or len(set(listed)) != len(listed):
            raise ValueError("restricted coordinates must be distinct, in a 1-D array")
        if listed and not 0 <= min(listed) <= max(listed) < self.dim:
            raise ValueError(f"restricted coordinates must lie in 0..{self.dim - 1}")
        if self._restrict is None:
            return _zero_padded(self, coords)
        sub = self._restrict(coords)
        if sub.dim != len(coords):
            raise ValueError("restricted oracle has the wrong dimension")
        return sub

    def _coerce(self, theta):
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dim,):
            raise ValueError(f"expected a parameter vector of shape ({self.dim},), got {theta.shape}")
        return theta

    def __repr__(self):
        tag = f", scale={self.scale!r}" if self.scale else ""
        return f"ObjectiveOracle(dim={self.dim}{tag})"


_ERRSTATE = {"divide": "raise", "invalid": "raise", "over": "raise"}


def _recorded(program, dim, grad, theta):
    # the value, and with grad the gradient, from one recorded evaluation;
    # floating-point faults surface as EvaluationError, type faults as ProgramError
    try:
        with np.errstate(**_ERRSTATE):
            return _tape_eval(program, theta, dim, grad)
    except FloatingPointError as e:
        raise EvaluationError(f"non-finite value during evaluation: {e}") from e
    except (TypeError, AttributeError) as e:
        raise ProgramError(f"unsupported operation in objective program: {e}") from e


def _program_oracle(program, dim, scale, restrict=None):
    # the one constructor of program oracles: full, derived restricted and nested
    if restrict is None:
        restrict = partial(_derived_restriction, program, dim, scale)
    return ObjectiveOracle(dim, partial(_recorded, program, dim, False),
                           partial(_recorded, program, dim, True), scale=scale,
                           restrict=restrict)


def build_objective(program, dim, *, scale=None, restrict=None, probe=True):
    """Wrap a differentiable program into an :class:`ObjectiveOracle`.

    Every evaluation records the program on a fresh tape; ``value`` skips
    the backward sweep.  So ``value`` raises :class:`EvaluationError`
    exactly where ``value_and_grad`` would, including where only the
    gradient is undefined (``sqrt`` at 0), on the full oracle and on every
    restricted one alike.  An analytic gradient is supplied by building
    ``ObjectiveOracle(dim, f, lambda th: (f(th), g(th)))`` directly.

    Parameters
    ----------
    program : callable
        Maps the parameter vector, received as a :class:`Var`, to a scalar
        using the supported operation set.
    dim : int
        Parameter dimension p.
    scale : {"rss", "nll", None}
        Objective-scale tag consumed by the information criteria.
    restrict : callable, optional
        ``restrict(coords) -> ObjectiveOracle`` building the same objective
        over a coordinate subset (others pinned to zero).  By default it is
        derived, unprobed: the program runs on z placed at ``coords`` of a
        zero vector, where ``C @ theta`` costs O(n k) on ``C[:, coords]``.
    probe : bool
        Run one recorded evaluation up front so unsupported operations
        surface as a construction error rather than at solve time.
    """
    oracle = _program_oracle(program, dim, scale, restrict)
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
