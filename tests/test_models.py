"""Generator determinism, objective values at reference points, gradient
checks against finite differences, and the dataset CSV round trip."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sco import autodiff, models
from sco.autodiff import fd_gradient

SMALL = {
    "linear": models.ModelSpec("linear", 40, 25, 5, 5.0, seed=0),
    "logistic": models.ModelSpec("logistic", 40, 25, 5, 1.0, seed=0),
    "trend": models.ModelSpec("trend", 60, 60, 4, 10.0, seed=0),
    "ising": models.ModelSpec("ising", 50, 15, 5, 0.4, seed=0),
}


@pytest.mark.parametrize("kind", models.KINDS)
def test_generators_deterministic(kind):
    a = models.generate(SMALL[kind])
    b = models.generate(SMALL[kind])
    if a.X is not None:
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
    tapes = []
    tape_eval = autodiff._tape_eval

    def counting_tape_eval(*args):
        tapes.append(args)
        return tape_eval(*args)

    monkeypatch.setattr(autodiff, "_tape_eval", counting_tape_eval)
    sub = oracle.restricted(coords)
    assert sub is not None and sub.dim == 4
    assert tapes == []  # restricted oracles skip the construction probe
    z = rng.standard_normal(4) * 0.3
    full = np.zeros(ds.p)
    full[coords] = z
    assert sub.value(z) == pytest.approx(oracle.value(full), rel=1e-12)
    gsub = sub.gradient(z)
    gfull = oracle.gradient(full)[coords]
    assert np.max(np.abs(gsub - gfull)) <= 1e-9 * (1.0 + np.max(np.abs(gfull)))


_ORACLES = {kind: models.objective(models.generate(spec)) for kind, spec in SMALL.items()}


@pytest.mark.parametrize("kind", models.KINDS)
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
    ds = models.generate(SMALL["logistic"])
    rows = np.array([0, 3, 5, 7])
    sub = ds.subset(rows)
    assert sub.n == 4
    assert np.array_equal(sub.X, ds.X[rows])
    assert np.array_equal(sub.y, ds.y[rows])


def test_spec_validation():
    with pytest.raises(ValueError):
        models.ModelSpec("linear", 10, 5, 6, 1.0)  # s_true > p
    with pytest.raises(ValueError):
        models.ModelSpec("trend", 10, 5, 2, 1.0)  # trend needs p == n
    with pytest.raises(ValueError):
        models.ModelSpec("ising", 10, 44, 2, 1.0)  # non-triangular p
    with pytest.raises(ValueError):
        models.ModelSpec("gamma", 10, 5, 2, 1.0)
