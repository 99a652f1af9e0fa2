"""The stacked cutoff kernel of bumps.py against per-axis references: the
axis profiles against the degree-7 step written out on one axis at a time,
and BoxBump's chi, gradient and Hessian against products of the per-axis
AxisRamp profiles, byte for byte, on the core and outer bounds and outside
the support."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dynlab.bumps import AxisRamp, BoxBump


def _step(t):
    t = np.clip(t, 0.0, 1.0)
    return t**4 * (35.0 - 84.0 * t + 70.0 * t**2 - 20.0 * t**3)


def _step_d1(t):
    inside = (t > 0.0) & (t < 1.0)
    t = np.clip(t, 0.0, 1.0)
    return np.where(inside, 140.0 * t**3 - 420.0 * t**4 + 420.0 * t**5 - 140.0 * t**6, 0.0)


def _step_d2(t):
    inside = (t > 0.0) & (t < 1.0)
    t = np.clip(t, 0.0, 1.0)
    return np.where(inside, 420.0 * t**2 - 1680.0 * t**3 + 2100.0 * t**4 - 840.0 * t**5, 0.0)


def _axis_reference(x, lo, clo, chi, hi):
    """Profile, first and second derivative on one axis, up and down ramps
    evaluated separately."""
    wl, wr = clo - lo, hi - chi
    up, down = (x - lo) / wl, (hi - x) / wr
    value = np.minimum(_step(up), _step(down))
    d1 = np.where(x < clo, _step_d1(up) / wl, np.where(x > chi, -_step_d1(down) / wr, 0.0))
    d2 = np.where(x < clo, _step_d2(up) / wl**2, np.where(x > chi, _step_d2(down) / wr**2, 0.0))
    return value, d1, d2


def _product(factors):
    out = factors[0]
    for f in factors[1:]:
        out = out * f
    return out


@st.composite
def bumps_and_points(draw):
    n = draw(st.integers(1, 4))
    width = st.floats(1e-3, 2.0)
    bounds = []
    for _ in range(n):
        lo = draw(st.floats(-3.0, 3.0))
        clo = lo + draw(width)
        chi = clo + draw(width)
        bounds.append((lo, clo, chi, chi + draw(width)))
    rows = draw(st.integers(1, 10))
    pts = [
        [
            draw(st.one_of(st.sampled_from(b), st.floats(b[0] - 1.0, b[3] + 1.0)))
            for b in bounds
        ]
        for _ in range(rows)
    ]
    return np.array(bounds), np.array(pts, dtype=float)


@settings(max_examples=150)
@given(bumps_and_points())
def test_stacked_chi_matches_the_per_axis_products(case):
    bounds, x = case
    n = len(bounds)
    ramps = [AxisRamp(*b) for b in bounds]
    per_axis = [r.terms(x[:, i], 2) for i, r in enumerate(ramps)]
    for i, (value, d1, d2) in enumerate(per_axis):
        ref = _axis_reference(x[:, i], *bounds[i])
        assert all(a.tobytes() == b.tobytes() for a, b in zip((value, d1, d2), ref))
        assert value.tobytes() == np.asarray(ramps[i].value(x[:, i])).tobytes()
    v = [t[0] for t in per_axis]
    d1 = [t[1] for t in per_axis]
    d2 = [t[2] for t in per_axis]
    one = np.ones(len(x))
    chi_ref = _product(v)
    grad_ref = np.stack(
        [d1[i] * _product([v[j] if j != i else one for j in range(n)]) for i in range(n)], axis=-1
    )
    hess_ref = np.empty((len(x), n, n))
    for i in range(n):
        for j in range(n):
            rest = _product([v[k] if k not in (i, j) else one for k in range(n)])
            hess_ref[:, i, j] = (d2[i] if i == j else d1[i] * d1[j]) * rest

    bump = BoxBump(bounds.T[..., None])
    for order in range(3):
        got = bump.jet(x, order)
        assert len(got) == order + 1
        for a, b in zip(got, (chi_ref, grad_ref, hess_ref)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
    # a single point is a batch of one
    for a, b in zip(bump.jet(x[0], 2), (chi_ref, grad_ref, hess_ref)):
        assert a.tobytes() == b[0].tobytes()


def test_chi_is_one_on_the_core_and_zero_off_the_support():
    bump = BoxBump(np.array([[0.0, -1.0], [0.2, -0.5], [0.4, 0.5], [1.0, 1.0]])[..., None])
    x = np.array([[0.2, -0.5], [0.4, 0.5], [0.3, 0.0], [0.0, 0.0], [1.0, 0.0], [0.3, 2.0]])
    chi, grad, hess = bump.jet(x, 2)
    assert chi.tolist() == [1.0, 1.0, 1.0, 0.0, 0.0, 0.0]
    assert not grad.any() and not hess.any()
