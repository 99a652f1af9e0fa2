from math import pi

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynlab.covering import construct_translations
from dynlab.errors import NoConvergence
from dynlab.ifs import GeneratorBank, newton_rows
from dynlab.maps import affine_map, check_symplectic
from dynlab.perturb import _trig_field, perturb_ifs, perturb_map, robustness_sweep
from dynlab.spaces import Box, Circle, Interval, StateSpace, unit_interval_space
from dynlab.twist import twist_map
from oracles import fd_jacobian


def test_eta_zero_returns_same_object():
    line = unit_interval_space(1)
    g = affine_map(line, [[0.5]], [0.1])
    assert perturb_map(g, 0.0, seed=1) is g


def test_value_and_derivative_bounds():
    sp = StateSpace((Interval(-1, 1), Interval(-1, 1)))
    g = affine_map(sp, np.diag([0.5, 0.4]), [0.1, -0.2])
    eta = 0.07
    gp = perturb_map(g, eta, seed=3)
    rng = np.random.default_rng(0)
    x = rng.uniform(-0.9, 0.9, (100, 2))
    assert np.max(np.abs(gp.fn(x) - g.fn(x))) <= eta * (1 + 1e-9)
    assert np.max(np.abs(gp.jacobian(x) - g.jacobian(x))) <= eta * (1 + 1e-9)


def test_perturbation_deterministic_per_seed():
    line = unit_interval_space(1)
    g = affine_map(line, [[0.5]], [0.1])
    a = perturb_map(g, 0.01, seed=7)
    b = perturb_map(g, 0.01, seed=7)
    c = perturb_map(g, 0.01, seed=8)
    x = np.linspace(0, 1, 33)[:, None]
    assert np.array_equal(a.fn(x), b.fn(x))
    assert not np.array_equal(a.fn(x), c.fn(x))


def test_analytic_jacobian_matches_fd():
    line = unit_interval_space(1)
    g = affine_map(line, [[0.5]], [0.1])
    gp = perturb_map(g, 0.05, seed=2)
    x = np.array([[0.3], [0.6]])
    fd = fd_jacobian(gp, x, 1e-5)
    assert np.max(np.abs(fd - gp.jacobian(x))) < 1e-7


def test_symplectic_branch_preserves_form():
    tw = twist_map(lambda I: I, lambda I: np.ones_like(I))
    gp = perturb_map(tw, 0.02, seed=5)
    assert gp.symplectic
    rng = np.random.default_rng(1)
    pts = np.stack([rng.uniform(0.2, 0.8, 100), rng.random(100)], -1)
    rep = check_symplectic(gp, pts, tol=1e-8)
    assert rep["pass"]
    assert np.max(np.abs(gp.fn(pts) - tw.fn(pts))) <= 0.02 * (1 + 1e-9)
    # exact inverse through the shear structure
    back = gp.inverse.fn(gp.fn(pts))
    assert np.max(np.abs(back - pts)) < 1e-12


def test_perturbed_inverse_newton_warm_start():
    line = unit_interval_space(1)
    g = affine_map(line, [[0.5]], [0.1])
    gp = perturb_map(g, 0.02, seed=9)
    y = np.linspace(0.15, 0.55, 9)[:, None]
    x = gp.invert(y)
    assert np.max(np.abs(gp.fn(x) - y)) < 1e-11


def test_perturbed_inverse_raises_when_newton_runs_out():
    line = unit_interval_space(1)
    g = affine_map(line, [[0.5]], [0.1])
    # a warm start 1e6 away: 6 Newton steps cannot close the gap
    far = g.with_meta(inverse=g.inverse.with_meta(fn=lambda y: y + 1e6))
    y = np.array([[0.2], [0.3]])
    with pytest.raises(NoConvergence, match=r"~0\.02\^-1: Newton left residual"):
        perturb_map(far, 0.02, seed=9).invert(y)
    # the map's own inverse is a warm start close enough
    gp = perturb_map(g, 0.02, seed=9)
    assert np.max(np.abs(gp.fn(gp.invert(y)) - y)) < 1e-13


def test_perturb_ifs_keeps_metadata():
    line = StateSpace((Interval(-1, 1),))
    g = affine_map(line, [[0.5]], [0.0])
    from dynlab.ifs import IFS

    ifs = IFS([g], Box(line, [-0.5], [0.5]))
    pert = perturb_ifs(ifs, 0.01, seed=0)
    assert pert.generators[0].lam == pytest.approx(0.49)
    assert pert.generators[0].lip == pytest.approx(0.51)


def test_robustness_sweep_rows():
    calls = []

    class Model:
        def as_map(self):
            return twist_map(lambda I: I, lambda I: np.ones_like(I))

    def verifier(model, G):
        calls.append(1)
        return True

    rows = robustness_sweep(Model(), verifier, [0.0, 0.01], trials=3, seed=0)
    assert [r["eta"] for r in rows] == [0.0, 0.01]
    assert all(r["pass_rate"] == 1.0 for r in rows)
    assert len(calls) == 6


# ---------------------------------------------------------------------------
# the trig field's draws and the per-row Newton inverse
# ---------------------------------------------------------------------------

def _scalar_trig_field(space, eta, rng):
    """Reference: the field drawn with n^2 scalar integer draws."""
    dim = space.dim
    extents = space.extents()
    freqs = np.zeros((dim, dim))
    phases = rng.uniform(0.0, 1.0, dim)
    amps = np.empty(dim)
    for i in range(dim):
        k = np.zeros(dim)
        for j, f in enumerate(space.factors):
            base = 1.0 / extents[j]
            k[j] = base * int(rng.integers(1, 3)) * (1 if isinstance(f, Circle) else 0.5)
        freqs[i] = k
        amps[i] = min(1.0, 1.0 / (2 * pi * np.abs(k).sum()))
    return freqs, phases, amps * eta


@pytest.mark.parametrize(
    "factors",
    [
        (Interval(-1, 1),),
        (Circle(1.0),),
        (Interval(0, 3), Circle(2.0)),
        (Circle(1.0), Interval(-1, 1), Interval(0, 0.5)),
    ],
)
def test_trig_field_draws_match_the_scalar_loop(factors):
    """One stacked call gives every seed's field, each the bytes of the
    scalar loop on its own generator, as a call for that seed alone does."""
    space = StateSpace(factors)
    seeds = list(range(50))
    stacked = _trig_field(space, 0.03, seeds)
    for seed in seeds:
        alone = _trig_field(space, 0.03, [seed])
        ref = _scalar_trig_field(space, 0.03, np.random.default_rng(seed))
        for a, b, c in zip(stacked, alone, ref):
            assert a[seed].tobytes() == b[0].tobytes() == c.tobytes(), seed


@settings(max_examples=30)
@given(
    seed=st.integers(0, 2**16),
    fast=st.floats(0.15, 0.35),
    slow=st.floats(0.45, 0.55),
)
def test_a_row_inverts_alone_as_in_a_batch_with_a_slow_row(seed, fast, slow):
    line = unit_interval_space(1)
    g = affine_map(line, [[0.5]], [0.1])
    # points above 0.4 start 0.2 from their preimage and take more steps
    start = g.inverse.fn
    late = g.with_meta(inverse=g.inverse.with_meta(fn=lambda y: start(y) + 0.2 * (y > 0.4)))
    gp = perturb_map(late, 0.02, seed=seed)
    alone = gp.invert(np.array([fast]))
    batch = gp.invert(np.array([[fast], [slow]]))
    assert batch[0].tobytes() == alone.tobytes()
    assert np.max(np.abs(gp.fn(batch) - [[fast], [slow]])) < 1e-13


@settings(max_examples=12)
@given(
    n=st.sampled_from([1, 2, 3]),
    lam=st.sampled_from([0.3, 0.5, 0.7]),
    eta=st.sampled_from([0.0, 0.01, 0.05]),
    seed=st.integers(0, 2**20),
)
def test_bank_inverse_rows_equal_their_generators(n, lam, eta, seed, closure_generator):
    space = StateSpace(tuple(Interval(-1, 1) for _ in range(n)))
    phi = affine_map(space, lam * np.eye(n), np.zeros(n), name="phi")
    ifs = perturb_ifs(construct_translations(phi, lam, 0.9 * (1 - lam) / (1 + lam)), eta * lam, seed=seed)
    bank = ifs.bank
    rng = np.random.default_rng(seed)
    rows = np.concatenate([[0], rng.integers(0, ifs.k, 47)])  # phi's own row first
    Y = bank.raw(ifs.domain_region.sample(rng, len(rows)), rows)
    got = bank.invert(Y, rows)
    for j, i in enumerate(rows):
        field = None if eta == 0.0 else (bank.freqs[i], bank.phases[i], bank.amps[i])
        ref = closure_generator(phi, bank.c[i], field)[2](Y[j])
        assert got[j].tobytes() == ref.tobytes(), (j, i)
        assert ifs.generators[i].invert(Y[j]).tobytes() == ref.tobytes(), (j, i)


def test_stacked_inverse_names_the_first_stalled_row():
    # rows 1 and 3 carry a field of size 1e6 and start near x = 99.7, whose
    # phase 2 pi x rounds by about 1e-13: the field's rounding alone keeps
    # their residual far above 1e-13 within Newton's reach of the start.
    # Rows 0 and 2 are x / 2 + c, inverted exactly by the warm start
    phi = affine_map(StateSpace((Interval(-200, 200),)), [[0.5]], [0.0], name="half")
    bank = GeneratorBank(
        phi, np.array([[0.0], [-49.5], [0.2], [-49.5]]), ("g0", "g1", "g2", "g3"), 1e6,
        freqs=np.ones((4, 1, 1)), phases=np.zeros((4, 1)), amps=np.array([[0.0], [1e6], [0.0], [1e6]]),
    )
    Y = np.full((3, 1), 0.37)
    with pytest.raises(NoConvergence, match=r"^g3\^-1: Newton left residual"):
        bank.invert(Y, np.array([3, 1, 0]))
    with pytest.raises(NoConvergence, match=r"^g1\^-1: Newton left residual"):
        bank.invert(Y, np.array([0, 1, 3]))
    with pytest.raises(NoConvergence, match=r"^g1\^-1: Newton left residual"):
        bank.views()[1].inverse.fn(Y)
    calm = np.array([0, 2])
    x = bank.invert(Y[:2], calm)
    assert np.max(np.abs(bank.raw(x, calm) - Y[:2])) < 1e-13


def test_newton_rows_stops_a_row_whose_residual_is_not_finite():
    # the row whose raw is NaN stops before jac ever sees it, with its warm
    # start and a non-finite residual; every other row gets the bytes it
    # gets in the batch without that row
    plane = StateSpace((Interval(-1, 1), Interval(-1, 1)))
    ifs = perturb_ifs(construct_translations(affine_map(plane, 0.5 * np.eye(2), [0.0, 0.0]), 0.5, 0.3), 0.02, 5)
    bank = ifs.bank
    rng = np.random.default_rng(5)
    rows = rng.integers(0, ifs.k, 12)
    X = ifs.domain_region.sample(rng, len(rows))
    Y = bank.raw(X, rows)
    start = X + rng.uniform(-0.01, 0.01, X.shape)
    seen = []

    def raw(x, live):
        out = bank.raw(x, rows[live])
        out[live == 4] = np.nan
        return out

    def jac(x, live):
        seen.extend(live.tolist())
        return bank.jac(x, rows[live])

    x, res = newton_rows(raw, jac, Y, start)
    assert seen and 4 not in seen
    assert np.isnan(res[4]) and x[4].tobytes() == start[4].tobytes()
    keep = np.delete(np.arange(len(rows)), 4)
    x2, res2 = newton_rows(lambda x, live: bank.raw(x, rows[keep][live]),
                           lambda x, live: bank.jac(x, rows[keep][live]), Y[keep], start[keep])
    assert x[keep].tobytes() == x2.tobytes() and res[keep].tobytes() == res2.tobytes()
    assert (res2 < 1e-13).all()


# ---------------------------------------------------------------------------
# one evaluation path: a batch evaluates as its rows
# ---------------------------------------------------------------------------

_PLANE = StateSpace((Interval(-1, 1), Interval(-1, 1)))
_SHEAR = affine_map(_PLANE, [[0.5, 0.1], [0.0, 0.5]], [0.0, 0.0], name="shear")
_BANKED = {
    "diagonal-3": construct_translations(
        affine_map(StateSpace(tuple(Interval(-1, 1) for _ in range(3))), 0.7 * np.eye(3), np.zeros(3), name="phi"),
        0.7, 0.15,
    ),
    "sheared-2": construct_translations(_SHEAR, 0.4, 0.2),
}


def _assert_batch_is_its_rows(g, X):
    """fn, jacobian and invert of the map on the batch X equal, bit for bit,
    the same calls on its rows one at a time."""
    Y = g.fn(X)
    for call, points in ((g.fn, X), (g.jacobian, X), (g.invert, Y)):
        single = np.array([call(p) for p in points])
        assert call(points).tobytes() == single.tobytes(), (g.name, call)


@settings(max_examples=8)
@given(
    family=st.sampled_from(sorted(_BANKED)),
    eta=st.sampled_from([0.0, 0.005, 0.02]),
    seed=st.integers(0, 2**20),
)
def test_banked_views_evaluate_a_batch_as_its_rows(family, eta, seed):
    ifs = perturb_ifs(_BANKED[family], eta, seed=seed)
    rng = np.random.default_rng(seed)
    X = ifs.domain_region.sample(rng, 24)
    for i in rng.integers(0, ifs.k, 4):
        _assert_batch_is_its_rows(ifs.generators[i], X)


@settings(max_examples=16)
@given(
    A=st.sampled_from([[[0.5, 0.1], [0.0, 0.5]], [[0.5, 0.1], [0.2, 0.4]], [[0.6, 0.0], [0.0, 0.3]]]),
    eta=st.sampled_from([0.005, 0.02]),
    seed=st.integers(0, 2**20),
)
def test_perturbed_maps_evaluate_a_batch_as_their_rows(A, eta, seed):
    g = perturb_map(affine_map(_PLANE, A, [0.05, -0.02]), eta, seed)
    X = np.random.default_rng(seed).uniform(-0.5, 0.5, (24, 2))
    _assert_batch_is_its_rows(g, X)
