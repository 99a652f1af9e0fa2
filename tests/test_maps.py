import numpy as np
import pytest

from dynlab.errors import NoMetadata, NotInvertible, OddDimension, PointOutsideDomain, SingularJacobian
from dynlab.maps import (
    SmoothMap,
    affine_map,
    check_symplectic,
    compose,
    identity_map,
    jacobian,
    pair_shear,
)
from dynlab.perturb import perturb_map
from dynlab.spaces import Circle, Interval, StateSpace, annulus, torus, unit_interval_space
from dynlab.twist import conjugating_shear, flow_h_epsilon, twist_map
from oracles import fd_jacobian


def make_twist():
    return twist_map(lambda I: I, lambda I: np.ones_like(I))


def test_twist_wraps_angle():
    tw = make_twist()
    out = tw(np.array([0.5, 0.9]))
    assert out == pytest.approx([0.5, 0.4])


def test_identity_returns_input():
    sp = unit_interval_space(2)
    ident = identity_map(sp)
    x = np.array([0.3, 0.7])
    assert np.array_equal(ident(x), x)


def test_affine_evaluation():
    line = unit_interval_space(1)
    g = affine_map(line, [[0.5]], [0.0])
    assert g(np.array([0.8]))[0] == pytest.approx(0.4)


def test_outside_domain_raises():
    line = unit_interval_space(1)
    g = affine_map(line, [[0.5]], [0.0])
    with pytest.raises(PointOutsideDomain):
        g(np.array([1.5]))


def test_bare_map_declares_no_jacobian_or_inverse():
    # a map with neither jac, affine part nor inverse is never differenced
    # or Newton-solved
    sp = StateSpace((Interval(-5, 5), Interval(-5, 5)))
    m = SmoothMap(sp, sp, fn=lambda x: x * np.array([2.0, 0.5]), name="diag")
    with pytest.raises(NoMetadata, match="diag"):
        jacobian(m, np.array([0.3, -0.2]))
    with pytest.raises(NoMetadata, match="diag"):
        m.jacobian(np.array([[0.3, -0.2]]))
    with pytest.raises(NotInvertible, match="diag"):
        m.invert(np.array([0.6, -0.1]))


def test_jacobian_of_a_declared_inverse_is_inverted():
    # D(f^-1)(y) = Df(f^-1(y))^-1, and a singular Df raises SingularJacobian
    sp = StateSpace((Interval(-5, 5), Interval(-5, 5)))
    g = affine_map(sp, [[2.0, 1.0], [0.0, 0.5]], [0.1, 0.2], name="g")
    bare_inv = SmoothMap(sp, sp, fn=g.inverse.fn, name="g^-1", inverse=g)
    Y = np.array([[0.3, -0.2], [1.0, 2.0]])
    assert np.allclose(jacobian(bare_inv, Y), np.linalg.inv(g.affine[0]), atol=1e-15)
    flat = SmoothMap(sp, sp, fn=lambda x: x * [1.0, 0.0], name="flat", affine=(np.diag([1.0, 0.0]), np.zeros(2)))
    with pytest.raises(SingularJacobian, match="flat"):
        jacobian(SmoothMap(sp, sp, fn=lambda y: y, name="up", inverse=flat), Y)


def test_jacobian_shear_constant():
    tw = make_twist()
    x = np.array([0.5, 0.3])
    assert np.allclose(fd_jacobian(tw, x, 1e-5), [[1.0, 0.0], [1.0, 1.0]], atol=1e-8)
    assert np.allclose(jacobian(tw, x), [[1.0, 0.0], [1.0, 1.0]], atol=1e-12)


def test_jacobian_action_shear_analytic_vs_fd():
    # phi(I, theta) = (I + eps cos(2 pi theta), theta): the angle derivative
    # of the action is -2 pi eps sin(2 pi theta)
    eps = 0.1
    sp = StateSpace((Interval(-1, 2), Circle(1.0)))
    sh = conjugating_shear(eps, space=sp)
    x = np.array([0.3, 0.25])
    expected = np.array([[1.0, -eps * np.sin(2 * np.pi * 0.25) * 2 * np.pi], [0.0, 1.0]])
    assert np.allclose(sh.jacobian(x), expected, atol=1e-12)
    assert np.allclose(fd_jacobian(sh, x, 1e-5), expected, atol=1e-6)


def test_check_symplectic_twist_passes():
    tw = make_twist()
    rng = np.random.default_rng(0)
    pts = np.stack([rng.uniform(0, 1, 100), rng.random(100)], axis=-1)
    rep = check_symplectic(tw, pts, tol=1e-10)
    assert rep["pass"] and rep["max_residual"] < 1e-10


def test_check_symplectic_dilation_fails():
    sp = annulus()
    m = SmoothMap(
        sp, sp, fn=lambda x: np.stack([2 * x[..., 0], x[..., 1]], -1),
        jac=lambda x: np.broadcast_to(np.diag([2.0, 1.0]), np.shape(x) + (2,)).copy(), name="dilate",
    )
    rep = check_symplectic(m, np.array([[0.4, 0.3]]), tol=1e-8)
    assert not rep["pass"]
    assert rep["max_residual"] == pytest.approx(1.0, abs=1e-6)


def test_check_symplectic_action_shear():
    sh = conjugating_shear(0.1, space=StateSpace((Interval(-1, 2), Circle(1.0))))
    rng = np.random.default_rng(1)
    pts = np.stack([rng.uniform(0, 1, 50), rng.random(50)], axis=-1)
    assert check_symplectic(sh, pts, tol=1e-8)["pass"]


def test_check_symplectic_odd_dimension():
    line = unit_interval_space(1)
    with pytest.raises(OddDimension):
        check_symplectic(affine_map(line, [[0.5]], [0.0]), np.array([[0.2]]))


def test_compose_jacobian_is_product():
    sp = StateSpace((Interval(-2, 2), Circle(1.0)))
    f = twist_map(lambda I: I**2, lambda I: 2 * I, space=sp)
    g = conjugating_shear(0.05, space=sp)
    h = compose(f, g)
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = np.array([rng.uniform(0, 1), rng.random()])
        J_prod = f.jacobian(g(x)) @ g.jacobian(x)
        J_fd = fd_jacobian(h, x, 1e-5)
        assert np.allclose(J_fd, J_prod, atol=1e-6)


def test_symplectic_catalog_passes_at_1e8():
    # every declared-symplectic analytic map in the library
    sp = StateSpace((Interval(-1, 2), Circle(1.0)))
    catalog = [
        twist_map(lambda I: I, lambda I: np.ones_like(I), space=sp),
        twist_map(lambda I: 0.3 + 0.5 * I, lambda I: 0.5 * np.ones_like(I), space=sp),
        conjugating_shear(0.1, space=sp),
        conjugating_shear(0.05, space=sp, phase=0.37),
        identity_map(sp),
    ]
    rng = np.random.default_rng(3)
    pts = np.stack([rng.uniform(0, 1, 100), rng.random(100)], axis=-1)
    for m in catalog:
        assert m.symplectic
        rep = check_symplectic(m, pts, tol=1e-10)  # closed-form maps
        assert rep["pass"], (m.name, rep)


def test_inverse_consistency():
    sh = conjugating_shear(0.1, space=StateSpace((Interval(-1, 2), Circle(1.0))))
    rng = np.random.default_rng(4)
    pts = np.stack([rng.uniform(0, 1, 40), rng.random(40)], axis=-1)
    back = sh.inverse(sh(pts))
    assert np.max(np.abs(sh.domain.diff(back, pts))) < 1e-14


def four_d_shear():
    """The b1 coordinate shears a1 and a2 shears b2, on the 4-torus."""
    return pair_shear(
        torus(4), [1, 2], [0, 3],
        lambda xs: np.array([0.1, 0.2]) * np.sin(2 * np.pi * xs),
        lambda xs: np.array([0.1, 0.2]) * 2 * np.pi * np.cos(2 * np.pi * xs),
        "shear4",
    )


def test_four_d_pair_shear_is_symplectic():
    sh = four_d_shear()
    pts = np.random.default_rng(5).random((100, 4))
    for m in (sh, sh.inverse):
        rep = check_symplectic(m, pts, tol=1e-12)
        assert m.symplectic and rep["pass"], rep
    assert np.max(np.abs(sh.inverse.fn(sh.fn(pts)) - pts)) < 1e-15


def test_declared_bounds_are_true_bounds():
    """Every lam or lip that a symplectic constructor declares, for a map
    and its inverse, bounds the max-metric Jacobian norms of 200 samples:
    lip >= max ||J||_inf and lam <= min 1 / ||J^-1||_inf."""
    rng = np.random.default_rng(6)
    sp = StateSpace((Interval(-1, 2), Circle(1.0)))
    tw = twist_map(lambda I: I, lambda I: np.ones_like(I), space=sp)
    cases = [
        (tw, rng.uniform([0.0, 0.0], [1.0, 1.0], (200, 2))),
        (perturb_map(tw, 0.02, seed=5), rng.uniform([0.0, 0.0], [1.0, 1.0], (200, 2))),
        (conjugating_shear(0.1, space=sp), rng.uniform([0.0, 0.0], [1.0, 1.0], (200, 2))),
        (four_d_shear(), rng.random((200, 4))),
        (flow_h_epsilon(0.3, 1.0), rng.uniform([-0.5, 0.0], [1.2, 1.0], (200, 2))),
    ]
    # an affine map flagged symplectic declares lam and lip, so its
    # perturbation must scale them by the shears' (1 + eta/2)^2
    cat = affine_map(torus(2), [[2, 1], [1, 1]], [0.1, 0.2])
    cat.symplectic = True
    cases.append((perturb_map(cat, 0.1, seed=0), rng.random((200, 2))))
    for m, pts in cases:
        for g in (m, m.inverse):
            J = g.jacobian(pts)
            norms = np.abs(J).sum(axis=-1).max(axis=-1)
            inv_norms = np.abs(np.linalg.inv(J)).sum(axis=-1).max(axis=-1)
            assert g.lip is None or g.lip >= norms.max(), (g.name, g.lip)
            assert g.lam is None or g.lam <= (1.0 / inv_norms).min(), (g.name, g.lam)
