from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dynlab.errors import PointOutsideDomain
from dynlab.spaces import Box, Circle, Interval, StateSpace, annulus, torus, unit_interval_space


def test_dim_matches_factors():
    sp = StateSpace((Interval(0, 1), Circle(1.0), Interval(-1, 1)))
    assert sp.dim == 3


def test_invalid_factors_rejected():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Circle(0.0)


def test_circle_wraparound_distance():
    sp = StateSpace((Circle(1.0),))
    assert sp.distance([0.05], [0.95]) == pytest.approx(0.1)
    assert sp.distance([0.0], [0.5]) == pytest.approx(0.5)


def test_distance_symmetry_and_triangle_exact_on_rationals():
    # max metric: both properties hold exactly, including across the seam
    sp = StateSpace((Interval(0, 1), Circle(1.0)))
    triples = [
        ([Fraction(1, 4), Fraction(1, 8)], [Fraction(3, 4), Fraction(7, 8)], [Fraction(1, 2), Fraction(1, 2)]),
        ([Fraction(0), Fraction(0)], [Fraction(1), Fraction(1, 2)], [Fraction(1, 2), Fraction(3, 4)]),
        ([Fraction(1, 3), Fraction(2, 3)], [Fraction(2, 3), Fraction(1, 3)], [Fraction(1, 6), Fraction(5, 6)]),
    ]
    for x, y, z in triples:
        x, y, z = (np.array([float(v) for v in p]) for p in (x, y, z))
        assert sp.distance(x, y) == sp.distance(y, x)
        assert sp.distance(x, z) <= sp.distance(x, y) + sp.distance(y, z) + 1e-15


def test_canonicalize_and_domain_check():
    sp = annulus()
    p = sp.canonicalize(np.array([0.5, 1.4]))
    assert p[1] == pytest.approx(0.4)
    with pytest.raises(PointOutsideDomain):
        sp.check_inside(np.array([1.5, 0.2]))


def test_check_inside_names_the_first_offending_coordinate():
    sp = StateSpace((Circle(1.0), Interval(-1, 1), Interval(0, 2), Circle(1.0), Interval(0, 1)))
    sp.check_inside(np.array([[7.5, 1.0 + 1e-10, -1e-10, -3.0, 0.5]]))
    with pytest.raises(PointOutsideDomain, match=r"^coordinate 2 outside \[0, 2\]: 2.5$"):
        sp.check_inside(np.array([9.0, 0.0, 2.5, 0.0, 1.5]))
    batch = np.array([[0.0, 0.0, 1.0, 0.0, 1.5], [0.0, -1.5, 1.0, 0.0, 0.5]])
    with pytest.raises(PointOutsideDomain, match=r"^coordinate 1 outside \[-1, 1\]$"):
        sp.check_inside(batch)
    with pytest.raises(PointOutsideDomain, match=r"^coordinate 4 outside \[0, 1\]$"):
        sp.check_inside(batch[:1])
    assert not sp.contains(batch) and sp.contains(np.array([0.0, 0.0, 1.0, 0.0, 0.5]))


@example(x=-1e-20, period=1.0)
@given(st.floats(-1e6, 1e6), st.sampled_from([1.0, 0.5, 2.0 * np.pi]))
def test_canonicalize_lands_in_the_period_and_is_idempotent(x, period):
    # np.mod(-1e-20, 1.0) rounds to 1.0 itself; canonical points never equal
    # the period, and canonicalizing them again changes no bit
    mixed = StateSpace((Circle(period), Interval(-1e7, 1e7), Circle(period)))
    for sp, p in ((mixed, [x, x, -x]), (torus(1, period), [x])):
        c = sp.canonicalize(np.array(p))
        circles = c[[i for i, f in enumerate(sp.factors) if isinstance(f, Circle)]]
        assert np.all((0.0 <= circles) & (circles < period))
        assert np.array_equal(sp.canonicalize(c), c)
    assert mixed.canonicalize(np.array([x, x, -x]))[1] == x


def test_canonicalize_is_np_mod_bit_for_bit():
    # period 1 wraps by x - floor(x), other periods by np.mod; both must give
    # np.mod's bits, with the rounded-up period written as 0
    rng = np.random.default_rng(4)
    edge = [-0.0, 0.0, 5e-324, -5e-324, 1 - 2**-53, -(1 - 2**-53), 1.0, -1.0, 3.0, -3.0, -1e-20, 1e-20,
            0.5, -0.5, 2.0**52 + 0.5, -(2.0**52) - 0.5, 2.0**53, 1e300, -1e300]
    x = np.concatenate([edge, rng.normal(0, 10, 2000), rng.integers(-50, 50, 200) / 4])
    for period in (1.0, 2.0, 0.5):
        want = np.mod(x, period)
        want[want == period] = 0.0
        for sp in (torus(2, period), StateSpace((Circle(period), Interval(-1e301, 1e301)))):
            got = sp.canonicalize(np.stack([x, x], axis=-1))[:, 0]
            assert got.tobytes() == want.tobytes()


def test_cell_index_wraps_on_circles():
    sp = torus(1)
    eps = 1 / 8
    assert sp.cell_index(np.array([0.999]), eps)[0] == 7
    assert sp.cell_index(np.array([1.001]), eps)[0] == 0
    assert sp.total_cells(eps) == 8


def test_box_grid_and_cells_cover():
    sp = unit_interval_space(2)
    box = Box(sp, [0.0, 0.0], [1.0, 0.5])
    counts, sides = box.grid_axes(0.25)
    assert counts.tolist() == [4, 2] and sides.tolist() == [0.25, 0.25]
    centers = box.grid(0.25)
    assert len(centers) == 8
    for c in centers:
        assert box.contains(c)


def test_ball_is_box_in_max_metric():
    sp = unit_interval_space(2)
    b = Box.ball(sp, [0.5, 0.5], 0.25)
    assert b.contains([0.7, 0.3])
    assert not b.contains([0.8, 0.5])
    assert b.radius == pytest.approx(0.25)
    assert b.clearance([0.5, 0.5]) == pytest.approx(0.25)


@given(
    st.integers(-(2**20), 2**20),
    st.integers(-(2**20), 2**20),
    st.integers(-3, 3),
    st.sampled_from([1.0, 0.5, 4.0]),
    st.integers(1, 10),
)
def test_cell_index_is_periodic_on_circle_factors(i, j, m, period, k):
    # dyadic coordinates and periods keep x + m * period exact in floating
    # point; where the sum rounds, the shifted point can sit in the next cell
    sp = StateSpace((Circle(period), Interval(-1.0, 1.0), Circle(period)))
    eps = 2.0**-k
    x = np.array([i * 2.0**-18, 0.25, j * 2.0**-18])
    shifted = x + np.array([m * period, 0.0, -m * period])
    np.testing.assert_array_equal(sp.cell_index(shifted, eps), sp.cell_index(x, eps))


@given(
    st.sampled_from([1.0, 0.5, 2.0 * np.pi]),
    st.lists(st.tuples(st.floats(-0.25, 0.25), st.floats(0.0, 1.0)), min_size=3, max_size=3),
    st.booleans(),
)
def test_distance_triangle_inequality_across_the_seam(period, coords, canonical):
    # circle coordinates within a quarter turn of the seam, on either side,
    # raw or canonicalized: the wrap-aware max metric stays a metric
    sp = StateSpace((Circle(period), Interval(0.0, 1.0)))
    x, y, z = (np.array([a * period, b]) for a, b in coords)
    if canonical:
        x, y, z = (sp.canonicalize(p) for p in (x, y, z))
    d = sp.distance
    assert d(x, z) <= d(x, y) + d(y, z) + 1e-15 * period
    assert d(x, y) == pytest.approx(d(y, x), abs=1e-15 * period)
    assert 0.0 <= d(x, y) <= sp.diameter()
