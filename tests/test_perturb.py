import numpy as np
import pytest

from dynlab.errors import NoConvergence
from dynlab.maps import affine_map, check_symplectic, jacobian
from dynlab.perturb import perturb_ifs, perturb_map, robustness_sweep
from dynlab.spaces import Box, Interval, StateSpace, unit_interval_space
from dynlab.twist import twist_map


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
    fd = jacobian(gp.with_meta(jac=None), x)
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
