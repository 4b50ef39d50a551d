"""Tape gradients against the finite-difference oracle, domain errors,
and the algebraic properties of the engine."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import sco
from sco import autodiff, models
from sco.autodiff import (
    EvaluationError,
    ObjectiveOracle,
    ProgramError,
    Tape,
    build_objective,
    fd_gradient,
)


def _fd_close(oracle, theta, rtol=1e-6):
    ad = oracle.gradient(theta)
    fd = fd_gradient(oracle, theta)
    bound = rtol * (1.0 + np.max(np.abs(fd)))
    assert np.max(np.abs(ad - fd)) <= bound, (ad, fd)


def test_product_plus_exp_gradient():
    # f = th0*th1 + exp(th0); analytic gradient at (0, 1) is (2, 0)
    f = build_objective(lambda th: th[0] * th[1] + sco.exp(th[0]), 2)
    assert f.value([0.0, 1.0]) == pytest.approx(1.0)
    assert np.allclose(f.gradient([0.0, 1.0]), [2.0, 0.0])


def test_identity_least_squares_gradient():
    y = np.array([1.0, 2.0])
    X = np.eye(2)
    f = build_objective(lambda th: 0.5 * sco.sqnorm(y - X @ th), 2)
    assert np.allclose(f.gradient([0.0, 0.0]), [-1.0, -2.0])


def test_cumsum_norm_matches_fd():
    rng = np.random.default_rng(7)
    data = np.cumsum(rng.standard_normal(30))
    f = build_objective(lambda th: sco.norm(data - sco.cumsum(th)), 30)
    for _ in range(5):
        _fd_close(f, rng.standard_normal(30))


def test_fd_gradient_square():
    f = build_objective(lambda th: th[0] ** 2, 1)
    assert fd_gradient(f, [3.0], 1e-5)[0] == pytest.approx(6.0, abs=1e-8)


def test_fd_gradient_constant_is_zero():
    f = build_objective(lambda th: 4.25, 3)
    assert np.array_equal(fd_gradient(f, np.ones(3), 1e-6), np.zeros(3))
    assert np.array_equal(f.gradient(np.ones(3)), np.zeros(3))


def test_logistic_nll_matches_fd():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((5, 4))
    y = rng.integers(0, 2, 5).astype(float)

    def nll(th):
        t = X @ th
        return sco.vsum(sco.log1pexp(t)) - sco.dot(y, t)

    f = build_objective(nll, 4)
    theta = rng.standard_normal(4)
    ad = f.gradient(theta)
    fd = fd_gradient(f, theta)
    assert np.max(np.abs(ad - fd)) <= 1e-6 * (1.0 + np.max(np.abs(ad)))


def test_tape_replay_is_bit_identical():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((8, 5))
    y = rng.standard_normal(8)
    f = build_objective(lambda th: 0.5 * sco.sqnorm(y - X @ th), 5)
    theta = rng.standard_normal(5)
    v1, g1 = f.value_and_grad(theta)
    v2, g2 = f.value_and_grad(theta)
    assert v1 == v2
    assert np.array_equal(g1, g2)
    # value is the same recording without the backward sweep
    assert f.value(theta) == v1


def test_gradient_linearity():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((6, 4))
    y = rng.standard_normal(6)

    def f_prog(th):
        return 0.5 * sco.sqnorm(y - X @ th)

    def g_prog(th):
        return sco.vsum(sco.log1pexp(X @ th))

    a, b = 2.5, -0.75
    f = build_objective(f_prog, 4)
    g = build_objective(g_prog, 4)
    h = build_objective(lambda th: a * f_prog(th) + b * g_prog(th), 4)
    for _ in range(5):
        theta = rng.standard_normal(4)
        lhs = h.gradient(theta)
        rhs = a * f.gradient(theta) + b * g.gradient(theta)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (1.0 + np.max(np.abs(rhs)))


def test_domain_errors():
    f = build_objective(lambda th: sco.log(th[0]), 1)
    with pytest.raises(EvaluationError):
        f.value([-1.0])
    with pytest.raises(EvaluationError):
        f.gradient([0.0])
    g = build_objective(lambda th: th[0] / th[1], 2)
    with pytest.raises(EvaluationError):
        g.gradient([1.0, 0.0])
    h = build_objective(lambda th: sco.sqrt(th[0]), 1)
    with pytest.raises(EvaluationError):
        h.gradient([-2.0])


def test_finite_gradient_whose_sum_overflows():
    # every entry is finite, so this is a gradient, though its sum is not
    f = build_objective(lambda th: 1e308 * th[0] + 1e308 * th[1], 2)
    for _ in range(2):  # the recording call and a replay
        value, g = f.value_and_grad([0.1, 0.1])
        assert value == 1e308 * 0.1 + 1e308 * 0.1
        assert np.array_equal(g, [1e308, 1e308])


_CONSTANTS = [0.7, [0.25, 1.0, 3.5], np.array([0.5, 2.0, 4.0])]


@pytest.mark.parametrize("x", _CONSTANTS, ids=["float", "list", "vector"])
@pytest.mark.parametrize("fn, reference", [
    (sco.exp, np.exp),
    (sco.log, np.log),
    (sco.sqrt, np.sqrt),
    (sco.logistic, lambda t: 1.0 / (1.0 + np.exp(-t))),
    (sco.log1pexp, lambda t: np.logaddexp(0.0, t)),
], ids=["exp", "log", "sqrt", "logistic", "log1pexp"])
def test_constants_go_through_the_rules(fn, reference, x):
    # a constant's value is the value the same function records on a variable
    t = np.asarray(x, dtype=float)
    recorded = fn(Tape().input(t)).val
    assert np.array_equal(fn(x), recorded)
    if fn in (sco.exp, sco.log, sco.sqrt):
        assert np.array_equal(fn(x), reference(t))
    else:  # the stable forms round differently from the textbook ones
        assert np.allclose(fn(x), reference(t), rtol=1e-14, atol=0.0)


def _log1pexp_two_pass(x):
    # the rule's value and partial, each computing exp(-|t|) of its own
    t = np.asarray(x)
    value = np.where(t > 0.0, t, 0.0) + np.log1p(np.exp(-np.abs(t)))
    return value, _logistic_two_pass(x)[0]


def _logistic_two_pass(x):
    # the sigmoid by two divisions and a select, and its derivative
    t = np.asarray(x)
    e = np.exp(-np.abs(t))
    value = np.where(t >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    return value, value * (1.0 - value)


def test_log1pexp_rule_matches_the_two_pass_formula():
    # and the logistic rule its textbook-stable form, byte for byte, on
    # 0-d, 1-D and 2-D inputs
    edges = [0.0, -0.0, 800.0, -800.0, 1e-320, -1e-320, 745.5, -745.5]
    points = [*edges, np.float64(-3.5), np.array(2.5), np.array(edges),
              *np.random.default_rng(3).standard_normal(5) * 30.0,
              np.random.default_rng(4).standard_normal((3, 4)) * 30.0,
              np.random.default_rng(5).standard_normal((50, 20)) * 3.0]
    for rule, reference in ((autodiff._log1pexp, _log1pexp_two_pass),
                            (autodiff._logistic, _logistic_two_pass)):
        for x in points:
            value, partial, _ = rule(x, None, None)
            ref_value, ref_partial = reference(x)
            assert np.shape(value) == np.shape(partial) == np.shape(x), x
            assert np.asarray(value).tobytes() == np.asarray(ref_value).tobytes(), x
            assert np.asarray(partial).tobytes() == np.asarray(ref_partial).tobytes(), x


def test_constant_domain_errors_match_the_rules():
    for x in (0.0, [1.0, -1.0]):
        with pytest.raises(EvaluationError) as err:
            sco.log(x)
        assert err.value.op == "log"
    # the sqrt rule refuses 0 for its gradient; a constant has none
    assert sco.sqrt(0.0) == 0.0


def test_evaluation_error_carries_node():
    f = build_objective(lambda th: sco.log(th[0] - 1.0), 1)
    try:
        f.gradient([0.5])
    except EvaluationError as e:
        assert e.op == "log"
        assert e.node is not None
    else:
        pytest.fail("expected a domain error")


def test_unsupported_operation_is_construction_error():
    with pytest.raises(ProgramError):
        build_objective(lambda th: np.sin(th), 2)
    with pytest.raises(ProgramError):
        build_objective(lambda th: th[0] ** th[1], 2)
    with pytest.raises(ProgramError):
        # branching on a tape variable is not expressible
        build_objective(lambda th: th[0] if th[0] else th[1], 2)


def test_mixing_tapes_rejected():
    from sco.autodiff import Tape

    t1, t2 = Tape(), Tape()
    a = t1.input(np.ones(2))
    b = t2.input(np.ones(2))
    with pytest.raises(ProgramError):
        _ = a + b


def test_norm_gradient_zero_at_origin():
    f = build_objective(lambda th: sco.norm(th), 3)
    assert np.array_equal(f.gradient(np.zeros(3)), np.zeros(3))


def test_abs_subgradient_zero_at_zero():
    f = build_objective(lambda th: sco.vsum(abs(th)), 3)
    g = f.gradient(np.array([0.0, -2.0, 3.0]))
    assert np.array_equal(g, [0.0, -1.0, 1.0])


def test_analytic_gradient_bypass():
    # an analytic gradient is supplied as an oracle built from opaque functions
    rng = np.random.default_rng(1)
    X = rng.standard_normal((7, 3))
    y = rng.standard_normal(7)

    def value(th):
        return 0.5 * float(np.sum((y - X @ th) ** 2))

    def value_and_grad(th):
        return value(th), X.T @ (X @ th - y)

    oracle = ObjectiveOracle(3, value, value_and_grad, scale="rss")
    theta = rng.standard_normal(3)
    fd = fd_gradient(oracle, theta)
    assert np.max(np.abs(oracle.gradient(theta) - fd)) <= 1e-5
    # its restriction zero-pads: the full oracle at z embedded, the gradient on coords
    coords, z = np.array([0, 2]), rng.standard_normal(2)
    full = np.zeros(3)
    full[coords] = z
    f, g = oracle.restricted(coords).value_and_grad(z)
    f_full, g_full = oracle.value_and_grad(full)
    assert f == f_full
    assert np.array_equal(g, g_full[coords])
    with pytest.raises(TypeError):
        build_objective(lambda th: sco.sqnorm(th), 3, gradient=lambda th: 2.0 * th)


def test_value_raises_where_value_and_grad_does():
    # value records the program too, so it leaves the domain where the gradient does
    f = build_objective(lambda th: sco.sqrt(th @ th), 3)
    for oracle, dim in ((f, 3), (f.restricted([0, 2]), 2)):
        for evaluate in (oracle.value, oracle.value_and_grad):
            with pytest.raises(EvaluationError):
                evaluate(np.zeros(dim))


def test_scalar_vector_broadcast():
    # scalar Var times a vector Var; gradient must fold the broadcast back
    def prog(th):
        return sco.vsum(th[0] * th[1:])

    f = build_objective(prog, 4)
    theta = np.array([2.0, 1.0, -3.0, 5.0])
    _fd_close(f, theta)


def test_power_and_division_rules():
    f = build_objective(lambda th: sco.vsum(th ** 3.0) + sco.vsum(1.0 / th), 3)
    theta = np.array([1.5, -2.0, 0.5])
    _fd_close(f, theta)


_IDX2 = np.array([[0, 1], [2, 0], [1, 1]])  # a 3 x 2 gather from a 3-vector


@pytest.mark.parametrize("program, op", [
    (lambda th: sco.sqnorm(th[_IDX2]), "sqnorm"),
    (lambda th: sco.norm(th[_IDX2]), "norm"),
    (lambda th: sco.vsum(sco.cumsum(th[_IDX2])), "cumsum"),
    (lambda th: th[_IDX2] @ np.ones(2), "@"),
    (lambda th: sco.vsum(th[_IDX2] @ np.ones((2, 2))), "@"),
    (lambda th: np.ones(3) @ th[_IDX2], "@"),
    (lambda th: sco.vsum(np.ones((2, 2)) @ th[0]), "@"),
    (lambda th: sco.vsum(th[_IDX2][_IDX2 > 0]), "boolean mask"),
    (lambda th: th[_IDX2][0, 1], "indexing"),
], ids=["sqnorm", "norm", "cumsum", "matrix@vector", "matrix@matrix", "vector@matrix",
        "matrix@scalar", "bool-mask", "tuple-index"])
def test_unsupported_shapes_raise_program_error(program, op):
    # matrix values reach every op; the vector-only ones must say so
    with pytest.raises(ProgramError, match=op):
        build_objective(program, 3)
    oracle = build_objective(program, 3, probe=False)
    with pytest.raises(ProgramError, match=op) as full:
        oracle.value_and_grad(np.array([0.3, -0.2, 0.7]))
    # a restricted oracle that records its oracle raises the same error
    with pytest.raises(ProgramError) as restricted:
        oracle.restricted([2, 0, 1]).restricted([1, 2, 0]).value(np.array([0.3, -0.2, 0.7]))
    assert str(restricted.value) == str(full.value)


def test_matrix_gather_and_constant_product():
    # the Ising field: vsum(log1pexp(W * (Z @ (theta[slot] * mask))))
    rng = np.random.default_rng(4)
    Z = rng.choice([-1.0, 1.0], size=(7, 3))
    slot = np.array([[0, 0, 1], [0, 0, 2], [1, 2, 0]])
    mask = 1.0 - np.eye(3)
    f = build_objective(lambda th: sco.vsum(sco.log1pexp(-2.0 * Z * (Z @ (th[slot] * mask)))), 3)
    theta = rng.standard_normal(3)
    J = theta[slot] * mask
    t = -2.0 * Z * (Z @ J)
    value, grad = f.value_and_grad(theta)
    assert value == pytest.approx(np.sum(np.logaddexp(0.0, t)), rel=1e-14)
    _fd_close(f, theta)


def _columns_product_case(n, p, nnz, seed=0):
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((n, p))
    x = np.zeros(p)
    x[rng.choice(p, nnz, replace=False)] = rng.standard_normal(nnz)
    return C, x


def test_sparse_point_reads_only_its_columns():
    # a 10-sparse a2-sized point: C @ x is C[:, nz] @ x[nz], which rounds
    # differently from the dense product, and the gradient is still C.T @ a
    C, theta = _columns_product_case(500, 1000, 10)
    y = np.random.default_rng(1).standard_normal(500)
    f = build_objective(lambda th: 0.5 * sco.sqnorm(y - C @ th), 1000)
    f.value(np.ones(1000))  # recorded at a dense point
    nz = np.flatnonzero(theta)
    assert autodiff._matvec(theta, None, C)[0].tobytes() == (C[:, nz] @ theta[nz]).tobytes()
    value, grad = f.value_and_grad(theta)
    r = y - C @ theta
    assert value == pytest.approx(0.5 * (r @ r), rel=1e-14, abs=0.0)
    assert np.max(np.abs(grad + C.T @ r)) <= 1e-14 * np.max(np.abs(C.T @ r))
    assert f.value(theta) == value
    # x @ D records the view D.T, whose column slice is a row slice of D
    D = np.ascontiguousarray(C.T)
    g = build_objective(lambda th: 0.5 * sco.sqnorm(y - th @ D), 1000)
    assert g.value_and_grad(theta)[0] == pytest.approx(value, rel=1e-14, abs=0.0)
    # the skipped columns are not read: an infinite one leaves the product finite
    C[:, np.flatnonzero(theta == 0.0)[0]] = np.inf
    assert np.isfinite(autodiff._matvec(theta, None, C)[0]).all()


@pytest.mark.parametrize("n, p, nnz, operand", [
    (500, 1000, 40, "vector"),  # more than one nonzero in 32
    (100, 200, 3, "vector"),  # a matrix too small for the gather to pay
    (400, 400, 2, "matrix"),  # a 2-D operand
], ids=["dense-point", "small-matrix", "matrix-operand"])
def test_dense_product_where_the_columns_would_not_pay(n, p, nnz, operand):
    # an infinite column where x is zero tells the paths apart: the dense
    # product reads it (0 * inf is NaN), the column product skips it
    C, x = _columns_product_case(n, p, nnz)
    C[:, np.flatnonzero((x == 0.0) & (np.roll(x, 1) == 0.0))[0]] = np.inf
    if operand == "matrix":
        x = np.stack([x, np.roll(x, 1)], axis=1)
    with np.errstate(invalid="ignore"):
        value = autodiff._matvec(x, None, C)[0]
        assert value.tobytes() == (C @ x).tobytes()
    assert np.isnan(value).all()


def test_restricted_oracle_takes_the_dense_product():
    # z is dense on the coordinates it lives on, so a restriction wide enough
    # for the column gather to pay still multiplies C[:, coords] @ z
    C, _ = _columns_product_case(400, 600, 1)
    y = np.random.default_rng(2).standard_normal(400)
    f = build_objective(lambda th: 0.5 * sco.sqnorm(y - C @ th), 600)
    coords = np.sort(np.random.default_rng(3).choice(600, 400, replace=False))
    z = np.random.default_rng(4).standard_normal(400)
    value, grad = f.restricted(coords).value_and_grad(z)
    sub = C[:, coords]
    assert sub.size >= autodiff._SPARSE_SIZE
    r = y - sub @ z
    assert value == 0.5 * float(np.dot(r, r))
    assert grad.tobytes() == (sub.T @ -(0.5 * (2.0 * r))).tobytes()


def test_broadcast_operands_fold_back():
    # a vector times a matrix of variables, and a matrix plus a scalar variable
    idx = np.array([[0, 1, 2], [2, 2, 0]])
    f = build_objective(lambda th: sco.vsum(sco.exp(th[idx] * th) + th[0]), 3)
    _fd_close(f, np.array([0.4, -0.3, 0.8]))
    _fd_close(f, np.array([-1.1, 0.2, 0.5]))


_UNARY = {"exp": sco.exp, "log1pexp": sco.log1pexp, "logistic": sco.logistic}


_DIVISORS = st.one_of(st.floats(-2.0, -0.5), st.floats(0.5, 2.0))


@st.composite
def _random_programs(draw, project=False):
    # chains added or subtracted; each starts with a 1-D or 2-D gather from
    # theta (with ``project``, or with a constant-matrix product C @ theta)
    # and applies elementwise functions, negation, constant scalings, shifts
    # and divisions, constant-matrix products and row-broadcast products
    # with another gather.  A shift or division takes a scalar, an array of
    # the chain's shape or, on a vector, a two-row matrix the chain is
    # broadcast up to
    p = draw(st.integers(1, 5))
    unit = st.floats(-1.0, 1.0)
    chains = []
    for _ in range(draw(st.integers(1, 3))):
        if project and draw(st.booleans()):
            shape = (draw(st.integers(1, 4)),)
            cell = st.floats(-1.0 / p, 1.0 / p)
            steps = [("project", draw(hnp.arrays(float, (shape[0], p), elements=cell)))]
        else:
            shape = draw(st.sampled_from([(1,), (3,), (4, 2), (2, 3), (1, 4)]))
            steps = [("gather", draw(hnp.arrays(int, shape, elements=st.integers(0, p - 1))))]
        for _ in range(draw(st.integers(0, 4))):
            op = draw(st.sampled_from(["unary", "neg", "scale", "scale-array", "sub", "rsub",
                                       "div", "matmul", "row"]))
            if op == "unary":
                steps.append((op, _UNARY[draw(st.sampled_from(sorted(_UNARY)))]))
            elif op == "neg":
                steps.append((op, None))
            elif op == "scale":
                steps.append((op, draw(unit)))
            elif op == "scale-array":
                steps.append(("scale", draw(hnp.arrays(float, shape, elements=unit))))
            elif op in ("sub", "rsub", "div"):
                cells = _DIVISORS if op == "div" else unit
                const = draw(st.sampled_from(["scalar", "array", "lift"]))
                if const == "scalar":
                    steps.append((op, draw(cells)))
                else:
                    if const == "lift" and len(shape) == 1:
                        shape = (2,) + shape
                    steps.append((op, draw(hnp.arrays(float, shape, elements=cells))))
            elif op == "matmul":
                rows = draw(st.integers(1, 4))
                cell = st.floats(-1.0 / shape[0], 1.0 / shape[0])  # keeps values bounded
                steps.append((op, draw(hnp.arrays(float, (rows, shape[0]), elements=cell))))
                shape = (rows,) + shape[1:]
            elif len(shape) == 2:
                steps.append((op, draw(hnp.arrays(int, shape[1:],
                                                  elements=st.integers(0, p - 1)))))
        chains.append((draw(st.sampled_from("+-")), steps))
    theta = draw(hnp.arrays(float, (p,), elements=unit))
    return p, chains, theta


def _run_chain(steps, th):
    start, arg = steps[0]
    x = th[arg] if start == "gather" else arg @ th
    for op, arg in steps[1:]:
        if op == "unary":
            x = arg(x)
        elif op == "neg":
            x = -x
        elif op == "scale":
            x = x * arg
        elif op == "sub":
            x = x - arg
        elif op == "rsub":
            x = arg - x
        elif op == "div":
            x = x / arg
        elif op == "matmul":
            x = arg @ x
        else:
            x = x * th[arg]
    return sco.vsum(x)


def _program(chains):
    def program(th):
        out = _run_chain(chains[0][1], th)
        for sign, steps in chains[1:]:
            x = _run_chain(steps, th)
            out = out + x if sign == "+" else out - x
        return out

    return program


@settings(max_examples=200, deadline=None)
@given(case=_random_programs())
def test_tape_matches_fd_on_random_programs(case):
    p, chains, theta = case
    oracle = build_objective(_program(chains), p)
    value, grad = oracle.value_and_grad(theta)
    assert oracle.value(theta) == value  # the same recording without the backward sweep
    fd = fd_gradient(oracle, theta)
    assert np.max(np.abs(grad - fd)) <= 1e-6 * (1.0 + np.max(np.abs(fd))), (grad, fd)


@settings(max_examples=200, deadline=None)
@given(case=_random_programs(project=True), data=st.data())
def test_derived_restriction_matches_zero_padding_on_random_programs(case, data):
    # C @ theta reads the columns C[:, coords]; every other use the scattered vector
    p, chains, theta = case
    oracle = build_objective(_program(chains), p)
    coords = np.sort(data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=p,
                                        unique=True), label="coords"))
    z = theta[coords]
    full = np.zeros(p)
    full[coords] = z
    sub = oracle.restricted(coords)
    value, grad = sub.value_and_grad(z)
    assert sub.value(z) == value  # value is the same recording without the backward sweep
    f, g = oracle.value_and_grad(full)
    assert abs(value - f) <= 1e-12 * max(1.0, abs(f)), (value, f)
    assert np.max(np.abs(grad - g[coords])) <= 1e-9 * (1.0 + np.max(np.abs(g))), (grad, g)


_C = np.arange(12.0).reshape(3, 4) / 10.0
_RAW_USES = {  # each program applies one operation straight to its input, or to it twice
    "add": lambda th: sco.sqnorm(th + 1.0),
    "radd": lambda th: sco.sqnorm(1.0 + th),
    "sub": lambda th: sco.sqnorm(th - 0.5),
    "rsub": lambda th: sco.sqnorm(np.ones(4) - th),
    "mul": lambda th: sco.vsum(th * np.arange(4.0)),
    "rmul": lambda th: sco.vsum(2.0 * th),
    "truediv": lambda th: sco.vsum(th / 2.0),
    "pow": lambda th: sco.vsum(th ** 2.0),
    "neg": lambda th: sco.sqnorm(-th),
    "abs": lambda th: sco.vsum(abs(th)),
    "vector@matrix": lambda th: sco.vsum(th @ _C.T),
    "vector@vector": lambda th: th @ np.ones(4),
    "vector-constant@": lambda th: np.ones(4) @ th,
    "matrix@": lambda th: sco.sqnorm(_C @ th),
    "gather": lambda th: sco.vsum(th[[0, 3, 3]]),
    "exp": lambda th: sco.vsum(sco.exp(th)),
    "log1pexp": lambda th: sco.vsum(sco.log1pexp(th)),
    "logistic": lambda th: sco.vsum(sco.logistic(th)),
    "cumsum": lambda th: sco.norm(sco.cumsum(th)),
    "vsum": lambda th: sco.vsum(th),
    "dot": lambda th: sco.dot(np.arange(4.0), th),
    "norm": lambda th: sco.norm(th),
    "input@input": lambda th: th @ th,
    "input*input": lambda th: sco.vsum(th * th),
    "input+input": lambda th: sco.sqnorm(th + th),
    "input-input": lambda th: sco.sqnorm(th - th) + sco.vsum(th),
    "input/input": lambda th: sco.vsum((th + 3.0) / (th * th + 1.0)),
}


@pytest.mark.parametrize("name", sorted(_RAW_USES))
def test_derived_restriction_supports_each_use_of_the_input(name):
    oracle = build_objective(_RAW_USES[name], 4)
    coords, z = np.array([1, 3]), np.array([0.7, -1.3])
    full = np.zeros(4)
    full[coords] = z
    sub = oracle.restricted(coords)
    value, grad = sub.value_and_grad(z)
    assert sub.value(z) == value
    f, g = oracle.value_and_grad(full)
    assert value == pytest.approx(f, rel=1e-12, abs=1e-15)
    assert np.allclose(grad, g[coords], rtol=1e-12, atol=1e-15)


# -- record once, replay after ------------------------------------------------


def _counting(program, calls):
    def counted(th):
        calls.append(1)
        return program(th)

    return counted


def test_oracle_calls_its_program_once():
    # the first call records the program; the other nine replay the recording
    rng = np.random.default_rng(8)
    X = rng.standard_normal((12, 6))
    y = rng.standard_normal(12)
    calls = []
    oracle = build_objective(_counting(lambda th: 0.5 * sco.sqnorm(y - X @ th), calls), 6)
    assert len(calls) == 1  # the construction probe records
    sub = oracle.restricted([1, 4])
    assert len(calls) == 1
    for _ in range(5):
        oracle.value(rng.standard_normal(6))
        oracle.value_and_grad(rng.standard_normal(6))
    assert len(calls) == 1
    for _ in range(5):
        sub.value(rng.standard_normal(2))
        sub.value_and_grad(rng.standard_normal(2))
    assert len(calls) == 1  # the restricted oracle re-binds the oracle's recording
    # so do nine more, and restrictions of a restricted oracle
    for coords in ([0], [], [5, 2], [0, 1, 2, 3, 4, 5], [3, 4], [2], [4, 0, 1], [1, 4], [5]):
        sub = oracle.restricted(coords)
        for evaluated, inner in ((sub, np.arange(len(coords))),
                                 (sub.restricted(np.arange(len(coords))[::-2]),
                                  np.arange(len(coords))[::-2])):
            z = rng.standard_normal(len(inner))
            full = np.zeros(6)
            full[np.asarray(coords, dtype=int)[inner]] = z
            assert evaluated.value(z) == pytest.approx(oracle.value(full), rel=1e-12)
            evaluated.value_and_grad(z)
    assert len(calls) == 1

    # the Ising objective restricts through its own hook, as models.objective builds it
    ds = models.generate(models.ModelSpec("ising", 30, 10, 3, 0.4, seed=0))
    program_for = models._ising_objective(ds.X)
    hooked = []
    ising = build_objective(program_for(None), ds.p, scale="nll", probe=False,
                            restrict=lambda coords: build_objective(
                                _counting(program_for(coords), hooked), len(coords),
                                scale="nll", probe=False))
    sub = ising.restricted([0, 3, 7])
    for _ in range(5):
        sub.value(0.3 * rng.standard_normal(3))
        sub.value_and_grad(0.3 * rng.standard_normal(3))
    assert len(hooked) == 1


def _outcome(evaluate, theta):
    # what one evaluation returns, or the error it raises with its op and node
    try:
        return evaluate(theta)
    except EvaluationError as e:
        return ("EvaluationError", str(e), e.op, e.node)


def _same_outcome(replayed, fresh):
    if isinstance(fresh, tuple) and isinstance(fresh[1], np.ndarray):
        assert replayed[0] == fresh[0]
        assert np.array_equal(replayed[1], fresh[1])
    else:
        assert replayed == fresh


@settings(max_examples=150, deadline=None)
@given(project=st.booleans(), data=st.data())
def test_replay_matches_a_fresh_recording_on_random_programs(project, data):
    p, chains, theta = data.draw(_random_programs(project=project), label="case")
    program = _program(chains)
    points = [theta] + [data.draw(hnp.arrays(float, (p,), elements=st.floats(-2.0, 2.0)),
                                  label="theta") for _ in range(3)]
    coords = np.sort(data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=p,
                                        unique=True), label="coords"))
    # every restricted oracle re-binds its oracle's recording, and so does a
    # restriction of a restricted oracle; a fresh unprobed oracle records
    # through its first restriction instead
    def subsets(size, label):
        return [np.array(data.draw(st.lists(st.integers(0, size - 1), max_size=size,
                                            unique=True), label=label), dtype=int)
                for _ in range(2)] + [np.array([], dtype=int)]

    others, nested = subsets(p, "other coords"), subsets(len(coords), "nested coords")
    oracle = build_objective(program, p)
    sub = oracle.restricted(coords)
    for point in points:
        for replaying, fresh_oracle, x in (
                (oracle, lambda probe: build_objective(program, p, probe=probe), point),
                (sub, lambda probe: build_objective(program, p, probe=probe).restricted(coords),
                 point[coords])):
            for method in ("value", "value_and_grad"):
                for probe in (True, False):
                    fresh = _outcome(getattr(fresh_oracle(probe), method), x)
                    _same_outcome(_outcome(getattr(replaying, method), x), fresh)

    def check(rebound, fresh_oracle, pick):
        for point in points:
            for method in ("value", "value_and_grad"):
                for probe in (True, False):
                    _same_outcome(_outcome(getattr(rebound, method), point[pick]),
                                  _outcome(getattr(fresh_oracle(probe), method), point[pick]))

    for other in others:
        check(oracle.restricted(other),
              lambda probe, other=other: build_objective(program, p, probe=probe)
              .restricted(other), other)
    for inner in nested:
        check(sub.restricted(inner),
              lambda probe, inner=inner: build_objective(program, p, probe=probe)
              .restricted(coords).restricted(inner), coords[inner])


_DOMAIN_ERRORS = [
    # node is the operand the failing operation checks: log's argument, the divisor
    (lambda th: sco.sqnorm(th) + sco.log(th[0] - 1.0), [2.0, 1.0], [0.5, 1.0], "log", 3),
    (lambda th: sco.vsum(th * th) + th[0] / (th[1] - 1.0), [2.0, 3.0], [2.0, 1.0], "div", 5),
    (lambda th: sco.vsum(3.0 / th), [2.0, 3.0], [2.0, 0.0], "div", 0),
    (lambda th: sco.sqrt(th @ th) + sco.vsum((th + 1.0) ** 0.5), [2.0, 3.0], [-4.0, 3.0],
     "pow", 3),
]
_DOMAIN_IDS = ["log", "div", "rdiv", "pow"]


@pytest.mark.parametrize("program, valid, invalid, op, node", _DOMAIN_ERRORS, ids=_DOMAIN_IDS)
def test_replay_raises_the_recorded_domain_error(program, valid, invalid, op, node):
    oracle = build_objective(program, 2, probe=False)
    oracle.value_and_grad(np.array(valid))
    for method in ("value", "value_and_grad"):
        fresh = build_objective(program, 2, probe=False)
        with pytest.raises(EvaluationError) as expected:
            getattr(fresh, method)(np.array(invalid))
        with pytest.raises(EvaluationError) as replayed:
            getattr(oracle, method)(np.array(invalid))
        assert (expected.value.op, expected.value.node) == (op, node)
        assert (replayed.value.op, replayed.value.node) == (op, node)
        assert str(replayed.value) == str(expected.value)


_C2 = np.array([[1.0, 0.0], [0.5, 1.0], [1.0, 1.0]])


@pytest.mark.parametrize("program, valid, invalid", [case[:3] for case in _DOMAIN_ERRORS] + [
    (lambda th: sco.vsum(sco.log(_C2 @ th)), [2.0, 3.0], [-1.0, 0.5])],
    ids=_DOMAIN_IDS + ["log-matvec"])
def test_restricted_errors_name_the_programs_node(program, valid, invalid):
    # a restricted oracle's error names the node of the program's own
    # recording, at any depth, whether it records its oracle or re-binds
    valid, invalid = np.array(valid), np.array(invalid)
    expected = _outcome(build_objective(program, 2, probe=False).value_and_grad, invalid)
    assert expected[0] == "EvaluationError"
    for probe in (True, False):
        oracle = build_objective(program, 2, probe=probe)
        for warm in (False, True):
            if warm:
                oracle.restricted([0, 1]).value_and_grad(valid)  # records the oracle
            for sub, pick in ((oracle.restricted([1, 0]), [1, 0]),
                              (oracle.restricted([1, 0]).restricted([1, 0]), [0, 1])):
                for method in ("value", "value_and_grad"):
                    assert _outcome(getattr(sub, method), invalid[pick]) == expected


def test_failed_first_call_keeps_no_recording():
    calls = []
    oracle = build_objective(_counting(lambda th: sco.log(th[0]) + sco.sqnorm(th), calls), 2,
                             probe=False)
    with pytest.raises(EvaluationError):
        oracle.value_and_grad(np.array([-1.0, 1.0]))  # stops at log, before sqnorm
    value, grad = oracle.value_and_grad(np.array([2.0, 1.0]))
    assert value == np.log(2.0) + 5.0
    assert np.array_equal(grad, [0.5 + 4.0, 2.0])
    oracle.value(np.array([3.0, 1.0]))
    assert len(calls) == 2


def test_failed_first_restricted_call_keeps_no_recording():
    # an unrecorded oracle is recorded at the placed point by the first
    # restricted call that succeeds; every restricted oracle then re-binds it
    calls = []
    oracle = build_objective(_counting(lambda th: sco.log(th[0]) + sco.sqnorm(th), calls), 3,
                             probe=False)
    failed = oracle.restricted([0, 2])
    with pytest.raises(EvaluationError):
        failed.value_and_grad(np.array([-1.0, 1.0]))
    assert len(calls) == 1
    first = oracle.restricted([0, 1])  # no recording yet: the oracle records
    assert first.value(np.array([2.0, 1.0])) == np.log(2.0) + 5.0
    assert len(calls) == 2
    failed.value(np.array([2.0, 1.0]))  # made before the recording existed: it re-binds
    assert len(calls) == 2
    value, grad = oracle.restricted([2, 0]).value_and_grad(np.array([1.0, 2.0]))
    assert value == np.log(2.0) + 5.0 and np.array_equal(grad, [2.0, 0.5 + 4.0])
    assert len(calls) == 2


def test_concurrent_first_calls_agree():
    # several threads record one fresh oracle, and restricted oracles derived
    # from it, at once; each gets the serial result
    rng = np.random.default_rng(12)
    X = rng.standard_normal((30, 8))
    y = rng.standard_normal(30)

    def program(th):
        t = X @ th
        out = sco.vsum(sco.log1pexp(t)) - sco.dot(y, t)
        for w in np.linspace(0.1, 1.0, 40):
            out = out + w * sco.sqnorm(th - w)
        return out

    theta = 0.2 * rng.standard_normal(8)
    serial = build_objective(program, 8, probe=False).value_and_grad(theta)
    # each thread also restricts the shared oracle to coordinates of its own
    supports = ([0, 3], [7, 1, 2], [], [5])
    serial_subs = [build_objective(program, 8, probe=False).restricted(coords)
                   .value_and_grad(theta[coords]) for coords in supports]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            oracle = build_objective(program, 8, probe=False)
            barrier = threading.Barrier(4)
            results = [None] * 4

            def first_call(slot, oracle=oracle, barrier=barrier, results=results):
                barrier.wait(timeout=10)
                coords = supports[slot]
                results[slot] = [oracle.value_and_grad(theta) for _ in range(3)] + [
                    oracle.restricted(coords).value_and_grad(theta[coords]) for _ in range(3)]

            threads = [threading.Thread(target=first_call, args=(slot,)) for slot in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            for slot, calls in enumerate(results):
                assert calls is not None
                for i, (value, grad) in enumerate(calls):
                    expected = serial if i < 3 else serial_subs[slot]
                    assert value == expected[0]
                    assert np.array_equal(grad, expected[1])
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("program", [
    lambda th: 0.5 * sco.sqnorm(np.arange(4.0) - np.ones((4, 3)) @ th),
    lambda th: sco.vsum(th + 1.0),
    lambda th: sco.sqnorm(th) - sco.vsum(th),
    lambda th: sco.vsum(th[[0, 2, 2]]),
    lambda th: np.arange(3.0) @ th,
    lambda th: sco.norm(sco.cumsum(th)),
], ids=["least-squares", "vsum-shift", "sqnorm-vsum", "repeated-gather", "constant-dot",
        "cumsum"])
def test_returned_gradients_own_their_memory(program):
    # a caller may overwrite a gradient in place; later calls must not see it.
    # Gradients are contiguous too, so BLAS sums products with them as usual
    oracle = build_objective(program, 3)
    for evaluated, x in ((oracle, np.array([0.3, -0.7, 1.1])),
                         (oracle.restricted([0, 2]), np.array([0.3, 1.1]))):
        value, grad = evaluated.value_and_grad(x)
        assert grad.flags.c_contiguous
        expected = grad.copy()
        grad[:] = np.nan
        evaluated.gradient(x)[:] = np.nan
        again = evaluated.value_and_grad(x)
        assert again[0] == value
        assert np.array_equal(again[1], expected)


def test_an_adjoint_passed_to_two_operands_is_not_added_into():
    # s = v + u hands one adjoint array to both v and u; exp(v), recorded
    # before s, then adds to v's adjoint while u's is still to be read
    def program(th):
        u, v = th * 2.0, th * 3.0
        e = sco.exp(v)
        return sco.vsum(v + u) + sco.vsum(e)

    theta = np.array([0.2, -0.4, 0.1])
    grad = build_objective(program, 3).gradient(theta)
    assert np.allclose(grad, 5.0 + 3.0 * np.exp(3.0 * theta), rtol=1e-14)
