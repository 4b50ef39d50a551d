"""Generator determinism, objective values at reference points, gradient
checks against finite differences, and the dataset CSV round trip."""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sco
from sco import autodiff, models
from sco.autodiff import ObjectiveOracle, build_objective, fd_gradient
from sco.problem import ScoProblem

SMALL = {
    "linear": models.ModelSpec("linear", 40, 25, 5, 5.0, seed=0),
    "logistic": models.ModelSpec("logistic", 40, 25, 5, 1.0, seed=0),
    "trend": models.ModelSpec("trend", 60, 60, 4, 10.0, seed=0),
    "ising": models.ModelSpec("ising", 50, 15, 5, 0.4, seed=0),
}

_LIN, _LOGIT, _TREND = (models.generate(SMALL[k]) for k in ("linear", "logistic", "trend"))
_EVEN = np.arange(0, _LIN.p, 2)
_X_EVEN = _LIN.X[:, _EVEN]

# objectives written without a restrict hook: name -> (program, p, scale)
USER_PROGRAMS = {
    "user-norm": (lambda th: sco.norm(_LIN.y - _LIN.X @ th), _LIN.p, None),  # the README's
    "user-sqnorm": (lambda th: 0.5 * sco.sqnorm(_LIN.y - _LIN.X @ th), _LIN.p, "rss"),
    "user-logistic": (lambda th: sco.vsum(sco.log1pexp(_LOGIT.X @ th))
                      - sco.dot(_LOGIT.y, _LOGIT.X @ th), _LOGIT.p, "nll"),
    "user-cumsum-trend": (lambda th: 0.5 * sco.sqnorm(_TREND.y - sco.cumsum(th)), _TREND.p,
                          "rss"),
    "user-gather": (lambda th: 0.5 * sco.sqnorm(_LIN.y - _X_EVEN @ th[_EVEN])
                    + 0.1 * sco.sqnorm(th), _LIN.p, "rss"),
}


def user_oracle(name):
    program, p, scale = USER_PROGRAMS[name]
    return build_objective(program, p, scale=scale)


def _opaque_oracle():
    # built from opaque functions, so it restricts by zero-padded evaluation
    full = models.objective(_LIN)
    return ObjectiveOracle(full.dim, full.value, full.value_and_grad, scale=full.scale)


@pytest.mark.parametrize("kind", models.KINDS)
def test_generators_deterministic(kind):
    a = models.generate(SMALL[kind])
    b = models.generate(SMALL[kind])
    assert np.array_equal(a.X, b.X)
    if a.y is not None:
        assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.theta_true, b.theta_true)
    assert np.array_equal(a.support_true, b.support_true)
    assert len(a.support_true) == SMALL[kind].s_true
    off = np.setdiff1d(np.arange(a.p), a.support_true)
    assert np.all(a.theta_true[off] == 0.0)


def test_linear_noiseless_is_exact():
    spec = models.ModelSpec("linear", 100, 10, 3, float("inf"), seed=1)
    ds = models.generate(spec)
    assert np.array_equal(ds.y, ds.X @ ds.theta_true)
    oracle = models.objective(ds)
    assert oracle.value(ds.theta_true) == pytest.approx(0.0, abs=1e-18)


def test_linear_snr_definition():
    spec = models.ModelSpec("linear", 20000, 10, 3, 5.0, seed=2)
    ds = models.generate(spec)
    noise = ds.y - ds.X @ ds.theta_true
    snr = np.var(ds.X @ ds.theta_true) / np.var(noise)
    assert snr == pytest.approx(5.0, rel=0.1)


def test_linear_objective_reference_points():
    ds = models.generate(SMALL["linear"])
    oracle = models.objective(ds)
    assert oracle.scale == "rss"
    assert oracle.value(np.zeros(ds.p)) == pytest.approx(0.5 * float(ds.y @ ds.y))


def test_logistic_objective_at_zero():
    ds = models.generate(SMALL["logistic"])
    oracle = models.objective(ds)
    assert oracle.scale == "nll"
    assert oracle.value(np.zeros(ds.p)) == pytest.approx(ds.n * np.log(2.0))
    assert set(np.unique(ds.y)) <= {0.0, 1.0}


def test_trend_increments_reproduce_series():
    ds = models.generate(SMALL["trend"])
    oracle = models.objective(ds)
    increments = np.diff(ds.y, prepend=0.0)
    assert oracle.value(increments) <= 1e-18
    assert np.count_nonzero(increments) > ds.spec.s_true  # dense: needs the budget


def test_trend_jump_magnitudes_at_least_signal():
    ds = models.generate(SMALL["trend"])
    mags = np.abs(ds.theta_true[ds.support_true])
    assert np.all(mags >= ds.spec.signal)


def test_ising_objective_at_zero():
    ds = models.generate(SMALL["ising"])
    oracle = models.objective(ds)
    q = models.ising_spin_count(ds.p)
    assert oracle.value(np.zeros(ds.p)) == pytest.approx(ds.n * q * np.log(2.0))
    assert set(np.unique(ds.X)) <= {-1.0, 1.0}


def _ising_design(Z):
    # reference: the stacked (n q) x p per-spin design, block a maps the
    # edge weights to the field at spin a
    n, q = Z.shape
    rows, cols = np.triu_indices(q, k=1)
    p = len(rows)
    edge_of = np.zeros((q, q), dtype=int)
    edge_of[rows, cols] = np.arange(p)
    edge_of[cols, rows] = np.arange(p)
    C = np.zeros((n * q, p))
    for a in range(q):
        for b in range(q):
            if b != a:
                C[a * n:(a + 1) * n, edge_of[a, b]] = Z[:, b]
    return C


def _stacked_pseudo_likelihood(C, weight, theta):
    t = weight * (C @ theta)
    value = float(np.sum(np.logaddexp(0.0, t)))
    grad = C.T @ (weight / (1.0 + np.exp(-t)))
    return value, grad


@pytest.mark.parametrize("q", [3, 5, 8])
def test_ising_field_matches_stacked_design(q):
    # the field Z @ J gives loss(C @ theta) of the stacked design, in
    # full and on edge subsets touching every spin or only two
    p = models.ising_edge_count(q)
    ds = models.generate(models.ModelSpec("ising", 60, p, min(3, p), 0.5, seed=q))
    C = _ising_design(ds.X)
    weight = -2.0 * ds.X.T.reshape(-1)
    oracle = models.objective(ds)
    rows, cols = np.triu_indices(q, k=1)
    star = np.flatnonzero(rows == 0)  # edges (0, b): touch every spin
    assert len(np.unique(np.concatenate((rows[star], cols[star])))) == q
    rng = np.random.default_rng(q)
    subsets = [np.arange(p), star, np.array([0]), np.array([p - 1])]  # the last two touch 2
    subsets += [np.sort(rng.choice(p, size=k, replace=False)) for k in (2, p // 2 + 1)]
    for coords in subsets:
        for scale in (0.1, 1.0, 5.0):
            z = scale * rng.standard_normal(len(coords))
            theta = np.zeros(p)
            theta[coords] = z
            ref_full, ref_grad = _stacked_pseudo_likelihood(C, weight, theta)
            ref_sub, ref_sub_grad = _stacked_pseudo_likelihood(C[:, coords], weight, z)
            value, grad = oracle.value_and_grad(theta)
            assert abs(value - ref_full) <= 1e-12 * abs(ref_full)
            assert abs(oracle.value(theta) - ref_full) <= 1e-12 * abs(ref_full)
            assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * (1.0 + np.max(np.abs(ref_grad)))
            sub = oracle.restricted(coords)
            value, grad = sub.value_and_grad(z)
            assert abs(value - ref_sub) <= 1e-12 * abs(ref_sub)
            assert abs(sub.value(z) - ref_sub) <= 1e-12 * abs(ref_sub)
            assert np.max(np.abs(grad - ref_sub_grad)) <= \
                1e-12 * (1.0 + np.max(np.abs(ref_sub_grad)))


def test_ising_restriction_rejects_repeated_edges():
    # one slot per edge: a repeated edge cannot be summed like a repeated column
    oracle = models.objective(models.generate(SMALL["ising"]))
    with pytest.raises(ValueError, match="distinct"):
        oracle.restricted([3, 3])


@pytest.mark.parametrize("coords, match", [([3, 3], "distinct"), ([0, 4, 0], "distinct"),
                                           ([2, -1], "lie in"), ([0, 10**6], "lie in"),
                                           ([[0, 1]], "1-D"), ([1.5, 2], "integers"),
                                           ([1.0, 2.0], "integers"), ([True, False], "integers")])
@pytest.mark.parametrize("kind", [*models.KINDS, *USER_PROGRAMS, "opaque"])
def test_restricted_rejects_bad_coordinates(kind, coords, match):
    # a repeated column would be counted twice, an out-of-range one wrap around,
    # a fractional one be cut down and a boolean mask be read as 0/1 indices
    oracle = _ORACLES[kind]
    with pytest.raises(ValueError, match=match):
        oracle.restricted(coords)


def test_ising_oracle_memory_stays_small():
    # q=45 spins, p=990 edges, n=500: the stacked design would take 178 MB
    rng = np.random.default_rng(0)
    spec = models.ModelSpec("ising", 500, models.ising_edge_count(45), 5, 0.4)
    Z = rng.integers(0, 2, size=(500, 45)) * 2.0 - 1.0
    ds = models.Dataset(spec, Z, None, np.zeros(spec.p), np.arange(5))
    tracemalloc.start()
    try:
        problem = models.build_problem(ds)
        problem.oracle.value_and_grad(0.01 * rng.standard_normal(spec.p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6, peak


def test_ising_spin_count_roundtrip():
    assert models.ising_spin_count(45) == 10
    assert models.ising_edge_count(10) == 45
    with pytest.raises(ValueError):
        models.ising_spin_count(44)


@pytest.mark.parametrize("kind", models.KINDS)
def test_gradient_matches_fd(kind):
    ds = models.generate(SMALL[kind])
    oracle = models.objective(ds)
    rng = np.random.default_rng(17)
    for _ in range(5):
        theta = 0.3 * rng.standard_normal(ds.p)
        ad = oracle.gradient(theta)
        fd = fd_gradient(oracle, theta)
        assert np.max(np.abs(ad - fd)) <= 1e-6 * (1.0 + np.max(np.abs(fd))), kind


@pytest.mark.parametrize("kind", models.KINDS)
def test_restricted_oracle_agrees(kind, monkeypatch):
    ds = models.generate(SMALL[kind])
    oracle = models.objective(ds)
    rng = np.random.default_rng(23)
    coords = np.sort(rng.choice(ds.p, size=4, replace=False))
    evaluations = []
    evaluate = autodiff._Evaluator.evaluate

    def counting_evaluate(*args):
        evaluations.append(args)
        return evaluate(*args)

    monkeypatch.setattr(autodiff._Evaluator, "evaluate", counting_evaluate)
    sub = oracle.restricted(coords)
    assert sub is not None and sub.dim == 4
    assert evaluations == []  # restricted oracles skip the construction probe
    z = rng.standard_normal(4) * 0.3
    full = np.zeros(ds.p)
    full[coords] = z
    assert sub.value(z) == pytest.approx(oracle.value(full), rel=1e-12)
    gsub = sub.gradient(z)
    gfull = oracle.gradient(full)[coords]
    assert np.max(np.abs(gsub - gfull)) <= 1e-9 * (1.0 + np.max(np.abs(gfull)))


_ORACLES = {kind: models.objective(models.generate(spec)) for kind, spec in SMALL.items()}
_ORACLES.update({name: user_oracle(name) for name in USER_PROGRAMS}, opaque=_opaque_oracle())


@pytest.mark.parametrize("kind", [*models.KINDS, *USER_PROGRAMS, "opaque"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_restricted_oracle_agrees_on_random_sparse_points(kind, data):
    # magnitudes up to 1e3 saturate the logistic and Ising terms
    oracle = _ORACLES[kind]
    p = oracle.dim
    coords = np.sort(data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=p,
                                        unique=True), label="coords"))
    scale = data.draw(st.sampled_from([1e-3, 1.0, 30.0, 1e3]), label="scale")
    z = scale * np.asarray(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=len(coords),
                                              max_size=len(coords)), label="z"))
    full = np.zeros(p)
    full[coords] = z
    sub = oracle.restricted(coords)
    f = oracle.value(full)
    assert abs(sub.value(z) - f) <= 1e-12 * abs(f)
    gsub = sub.gradient(z)
    gfull = oracle.gradient(full)[coords]
    assert np.max(np.abs(gsub - gfull)) <= 1e-9 * (1.0 + np.max(np.abs(gfull)))


def _linear_predictor(A, loss):
    """The zoo's hand-written restriction before it was derived: coords ->
    program ``loss(A[:, coords] @ theta)``; None means every column."""

    def program_for(coords):
        sub = A if coords is None else A[:, coords]
        return lambda theta: loss(sub @ theta)

    return program_for


_LOSSES = {
    "linear": lambda y: lambda t: 0.5 * sco.sqnorm(y - t),
    "trend": lambda y: lambda t: 0.5 * sco.sqnorm(y - t),
    "logistic": lambda y: lambda t: sco.vsum(sco.log1pexp(t)) - sco.dot(y, t),
}


@pytest.mark.parametrize("kind", sorted(_LOSSES))
def test_derived_restriction_matches_reference_hook(kind):
    # the derived restriction computes A[:, coords] @ z, as the hook did: bit for bit
    ds = models.generate(SMALL[kind])
    oracle = models.objective(ds)
    program_for = _linear_predictor(ds.X, _LOSSES[kind](ds.y))
    rng = np.random.default_rng(31)
    for k in (1, 2, 5, ds.p // 2, ds.p):
        coords = np.sort(rng.choice(ds.p, size=k, replace=False))
        sub = oracle.restricted(coords)
        ref = build_objective(program_for(coords), k, probe=False)
        for scale in (1e-3, 1.0, 30.0):
            z = scale * rng.standard_normal(k)
            value, grad = sub.value_and_grad(z)
            ref_value, ref_grad = ref.value_and_grad(z)
            assert value == ref_value and sub.value(z) == ref.value(z)
            assert np.array_equal(grad, ref_grad)


@pytest.mark.parametrize("kind", models.KINDS)
def test_objective_nonnegative_for_rss(kind):
    ds = models.generate(SMALL[kind])
    oracle = models.objective(ds)
    rng = np.random.default_rng(29)
    if oracle.scale == "rss":
        for _ in range(5):
            assert oracle.value(rng.standard_normal(ds.p)) >= 0.0


@pytest.mark.parametrize("kind", models.KINDS)
def test_csv_round_trip(kind, tmp_path):
    ds = models.generate(SMALL[kind])
    path = tmp_path / f"{kind}.csv"
    ds.to_csv(path)
    X, y = models.load_csv(path)
    if kind == "trend":
        assert X is None
        assert np.array_equal(y, ds.y)
    elif kind == "ising":
        assert y is None
        assert np.array_equal(X, ds.X)
    else:
        assert np.array_equal(X, ds.X)
        assert np.array_equal(y, ds.y)


def test_ising_recovery_reference():
    # q=10 spins, 8 planted edges: splicing recovers the graph
    import sco
    from sco.bench import support_metrics

    accs = []
    for seed in range(10):
        spec = models.ModelSpec("ising", 500, 45, 8, 0.4, seed=seed)
        ds = models.generate(spec)
        sol = sco.solve("scope", models.build_problem(ds))
        accs.append(support_metrics(ds.support_true, sol.support, 45).accuracy)
    assert np.mean(accs) >= 0.9, accs


def test_subset_rows():
    rows = np.array([0, 3, 5, 7])
    for kind in models.KINDS:
        ds = models.generate(SMALL[kind])
        sub = ds.subset(rows)
        assert sub.n == 4 and sub.p == ds.p, kind
        assert np.array_equal(sub.X, ds.X[rows])
        if ds.y is None:
            assert sub.y is None
        else:
            assert np.array_equal(sub.y, ds.y[rows])
        models.build_problem(sub)  # a fold problem keeps the full parameter space


def test_trend_design_is_cumulative_indicator():
    ds = models.generate(SMALL["trend"])
    assert np.array_equal(ds.X, np.tril(np.ones((ds.n, ds.n))))
    assert np.allclose(ds.X @ ds.theta_true, np.cumsum(ds.theta_true))


@pytest.mark.parametrize("kind", [*models.KINDS, *USER_PROGRAMS])
def test_dropped_problem_leaves_no_cyclic_garbage(kind):
    # the restrict hook must not be a self-referencing closure: a cycle
    # would keep the captured design alive until a full collection
    datasets = {k: models.generate(spec) for k, spec in SMALL.items()}
    for ds in datasets.values():
        models.build_problem(ds)  # warm-up: first-call caches are not garbage
    for name in USER_PROGRAMS:
        user_oracle(name).restricted(np.arange(3)).value_and_grad(np.full(3, 0.1))
    gc.collect()
    gc.disable()
    try:
        if kind in USER_PROGRAMS:
            problem = ScoProblem(p=USER_PROGRAMS[kind][1], s=3, oracle=user_oracle(kind))
        else:
            problem = models.build_problem(datasets[kind])
        sub = problem.oracle.restricted(np.arange(3))
        problem.oracle.value_and_grad(np.full(problem.p, 0.1))
        sub.value(np.full(3, 0.1))
        sub.value_and_grad(np.full(3, 0.1))
        del problem, sub
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_spec_validation():
    with pytest.raises(ValueError):
        models.ModelSpec("linear", 10, 5, 6, 1.0)  # s_true > p
    with pytest.raises(ValueError):
        models.ModelSpec("trend", 10, 5, 2, 1.0)  # trend needs p == n
    with pytest.raises(ValueError):
        models.ModelSpec("ising", 10, 44, 2, 1.0)  # non-triangular p
    with pytest.raises(ValueError):
        models.ModelSpec("gamma", 10, 5, 2, 1.0)
    # fractional counts are refused when the spec is built, not inside generate
    for kind, n, p, s_true, name in (("linear", 40.0, 12, 3, "n"), ("linear", 40, 12.0, 3, "p"),
                                     ("linear", 40, 12, 3.0, "s_true"),
                                     ("ising", 40, 10.0, 2, "p")):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            models.ModelSpec(kind, n, p, s_true)
    spec = models.ModelSpec("linear", np.int64(40), np.int32(12), np.int64(3))
    assert models.generate(spec).X.shape == (40, 12)
