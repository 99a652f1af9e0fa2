import numpy as np
import pytest

from dynlab.errors import NotHyperbolic
from dynlab.fixed_points import FixedPointRecord, check_weak_hyperbolic, find_fixed_point
from dynlab.maps import SmoothMap, affine_map, identity_map
from dynlab.spaces import Interval, StateSpace, unit_interval_space


def test_contraction_fixed_point():
    line = unit_interval_space(1)
    g = affine_map(line, [[0.5]], [0.3])  # z = 0.6
    rec = find_fixed_point(g, [0.1])
    assert rec.point[0] == pytest.approx(0.6, abs=1e-10)
    assert rec.eigen_moduli == pytest.approx([0.5])
    assert rec.classification == "attracting"
    assert rec.residual < 1e-12


def test_saddle_classification_and_weakness():
    sp = StateSpace((Interval(-1, 1), Interval(-1, 1)))
    m = affine_map(sp, np.diag([1 / 0.9, 0.9]), [0.0, 0.0])
    rec = find_fixed_point(m, [0.2, 0.2])
    assert np.allclose(rec.point, 0.0, atol=1e-9)
    assert rec.classification == "saddle"
    assert check_weak_hyperbolic(rec, 0.15) is True
    assert check_weak_hyperbolic(rec, 0.05) is False


def test_identity_map_degenerate():
    sp = unit_interval_space(2)
    rec = find_fixed_point(identity_map(sp), [0.4, 0.6])
    assert rec.classification == "degenerate"
    assert rec.residual == 0.0


def test_weak_hyperbolic_examples():
    rec = FixedPointRecord(
        point=np.zeros(2), map=None, eigen_moduli=[0.9, 1 / 0.9],
        classification="saddle", residual=0.0,
    )
    assert check_weak_hyperbolic(rec, 0.2) is True
    rec2 = FixedPointRecord(
        point=np.zeros(2), map=None, eigen_moduli=[0.7, 1 / 0.7],
        classification="saddle", residual=0.0,
    )
    assert check_weak_hyperbolic(rec2, 0.2) is False
    rec3 = FixedPointRecord(
        point=np.zeros(2), map=None, eigen_moduli=[1.0, 1.0],
        classification="elliptic-like", residual=0.0,
    )
    with pytest.raises(NotHyperbolic):
        check_weak_hyperbolic(rec3, 0.2)


def test_delta_weak_field_set_on_request():
    sp = StateSpace((Interval(-1, 1), Interval(-1, 1)))
    m = affine_map(sp, np.diag([1 / 0.9, 0.9]), [0.0, 0.0])
    rec = find_fixed_point(m, [0.1, 0.1], delta=0.15)
    assert rec.delta_weak == 0.15
    rec2 = find_fixed_point(m, [0.1, 0.1], delta=0.05)
    assert rec2.delta_weak is None


def test_same_point_from_random_guesses():
    line = unit_interval_space(1)
    g = affine_map(line, [[0.5]], [0.25])  # z = 0.5
    rng = np.random.default_rng(5)
    pts = [find_fixed_point(g, [rng.random()], tol=1e-12).point[0] for _ in range(10)]
    assert max(pts) - min(pts) < 2e-12


def test_newton_on_nonlinear_saddle():
    sp = StateSpace((Interval(-2, 2), Interval(-2, 2)))

    def fn(x):
        return np.stack([2.0 * x[..., 0] + 0.1 * x[..., 1] ** 2, 0.5 * x[..., 1]], -1)

    def jac(x):
        x = np.asarray(x, dtype=float)
        J = np.zeros(x.shape[:-1] + (2, 2))
        J[..., 0, 0], J[..., 1, 1] = 2.0, 0.5
        J[..., 0, 1] = 0.2 * x[..., 1]
        return J

    m = SmoothMap(sp, sp, fn, jac=jac, name="nl-saddle")
    rec = find_fixed_point(m, [0.3, 0.3])
    assert np.allclose(rec.point, 0.0, atol=1e-8)
    assert rec.classification == "saddle"
