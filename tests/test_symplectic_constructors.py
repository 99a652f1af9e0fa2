"""The two constructors of symplectic maps, maps.pair_shear and
integrate.hamiltonian_flow, against test-side copies of the closures that
built twists, conjugating shears, the perturbation's shear pair and the
annulus Hamiltonian field before them: fn, inverse fn, Jacobian and inverse
Jacobian give the same bytes on batches of shape (n,), (m, n) and (a, b, n)."""

from math import pi

import numpy as np
import pytest

from dynlab.integrate import implicit_midpoint, implicit_midpoint_with_jacobian
from dynlab.maps import affine_map
from dynlab.perturb import _shear_pair, perturb_map
from dynlab.spaces import Circle, Interval, StateSpace, annulus, torus
from dynlab.twist import (
    bump_eta,
    bump_eta_prime,
    bump_eta_second,
    conjugating_shear,
    flow_h_epsilon,
    twist_map,
)

SHAPES = ((), (7,), (3, 4))


def _ref_twist(omega, domega):
    """fn, inverse fn, Jacobian and inverse Jacobian of the twist
    (I, theta) -> (I, theta + omega(I))."""

    def fn(x):
        return np.stack([x[..., 0], x[..., 1] + omega(x[..., 0])], axis=-1)

    def fn_inv(x):
        return np.stack([x[..., 0], x[..., 1] - omega(x[..., 0])], axis=-1)

    def jac(x):
        J = np.zeros(np.shape(x)[:-1] + (2, 2))
        J[..., 0, 0] = 1.0
        J[..., 1, 0] = domega(x[..., 0])
        J[..., 1, 1] = 1.0
        return J

    def jac_inv(x):
        J = jac(x)
        J[..., 1, 0] = -J[..., 1, 0]
        return J

    return fn, fn_inv, jac, jac_inv


def _ref_shear(eps, phase):
    """The same four of (I, theta) -> (I + eps cos(2 pi (theta + phase)), theta)."""

    def fn(x):
        return np.stack([x[..., 0] + eps * np.cos(2 * pi * (x[..., 1] + phase)), x[..., 1]], axis=-1)

    def fn_inv(x):
        return np.stack([x[..., 0] - eps * np.cos(2 * pi * (x[..., 1] + phase)), x[..., 1]], axis=-1)

    def jac(x):
        J = np.zeros(np.shape(x)[:-1] + (2, 2))
        J[..., 0, 0] = 1.0
        J[..., 0, 1] = -2 * pi * eps * np.sin(2 * pi * (x[..., 1] + phase))
        J[..., 1, 1] = 1.0
        return J

    def jac_inv(x):
        J = jac(x)
        J[..., 0, 1] = -J[..., 0, 1]
        return J

    return fn, fn_inv, jac, jac_inv


def _ref_shear_pair(space, eta, rng):
    """The same four of each shear of the pair, drawn from rng in the same
    order: per shear, the frequencies, then the phases."""
    dim = space.dim
    half = eta / 2.0
    extents = space.extents()

    def make(shift_odd):
        freqs = np.array([int(rng.integers(1, 3)) / extents[i] for i in range(dim)])
        phases = rng.uniform(0.0, 1.0, dim)
        amp = min(1.0, 1.0 / (2 * pi * np.max(freqs))) * half
        src = slice(0, None, 2) if shift_odd else slice(1, None, 2)
        dst = slice(1, None, 2) if shift_odd else slice(0, None, 2)

        def fn(x):
            x = x.copy()
            s = np.sin(2 * pi * (x[..., src] * freqs[src] + phases[src]))
            x[..., dst] = x[..., dst] + amp * s
            return x

        def fn_inv(x):
            x = x.copy()
            s = np.sin(2 * pi * (x[..., src] * freqs[src] + phases[src]))
            x[..., dst] = x[..., dst] - amp * s
            return x

        def jac(x):
            J = np.broadcast_to(np.eye(dim), x.shape[:-1] + (dim, dim)).copy()
            c = np.cos(2 * pi * (x[..., src] * freqs[src] + phases[src]))
            sidx = list(np.arange(dim)[src])
            for a, b in zip(np.arange(dim)[dst], sidx):
                J[..., a, b] = J[..., a, b] + amp * 2 * pi * freqs[b] * c[..., sidx.index(b)]
            return J

        def jac_inv(x):
            J = jac(x)
            for a, b in zip(np.arange(dim)[dst], np.arange(dim)[src]):
                J[..., a, b] = -J[..., a, b]
            return J

        return fn, fn_inv, jac, jac_inv

    return make(True), make(False)


def _ref_annulus_field(eps):
    """The symplectic gradient (dh/dtheta, -dh/dr) of the bump Hamiltonian
    and its derivative, written out."""
    m = 2 * pi

    def field(x):
        r = x[..., 0]
        th = 2 * pi * x[..., 1]
        A, Ap = bump_eta(r), bump_eta_prime(r)
        D = 1.0 + eps * A
        Dp = eps * Ap
        s, c = np.sin(th), np.cos(th)
        out = np.empty_like(x)
        out[..., 0] = 2 * pi * A * r**2 * (c / D - s * D)
        out[..., 1] = -((Ap * r**2 + 2 * A * r) * (s / D + c * D) + A * r**2 * Dp * (c - s / D**2))
        return out

    def dfield(x):
        r = x[..., 0]
        th = m * x[..., 1]
        A, Ap, App = bump_eta(r), bump_eta_prime(r), bump_eta_second(r)
        D = 1.0 + eps * A
        Dp, Dpp = eps * Ap, eps * App
        s, c = np.sin(th), np.cos(th)
        P = s / D + c * D
        P_r = Dp * (c - s / D**2)
        P_rr = Dpp * (c - s / D**2) + 2.0 * s * Dp**2 / D**3
        B = Ap * r**2 + 2.0 * A * r
        h_thth = -(m**2) * A * r**2 * P
        h_thr = m * (B * (c / D - s * D) + A * r**2 * (-c * Dp / D**2 - s * Dp))
        h_rr = (App * r**2 + 4.0 * Ap * r + 2.0 * A) * P + 2.0 * B * P_r + A * r**2 * P_rr
        J = np.empty(np.shape(r) + (2, 2))
        J[..., 0, 0] = h_thr
        J[..., 0, 1] = h_thth
        J[..., 1, 0] = -h_rr
        J[..., 1, 1] = -h_thr
        return J

    return field, dfield


def _batches(space, seed):
    """A point, a batch and a batch of batches of the space's box."""
    rng = np.random.default_rng(seed)
    lo = np.array([getattr(f, "lo", 0.0) for f in space.factors])
    hi = np.array([getattr(f, "hi", 1.0) for f in space.factors])
    return [rng.uniform(lo, hi, shape + (space.dim,)) for shape in SHAPES]


def _assert_same_bytes(m, ref):
    fn, fn_inv, jac, jac_inv = ref
    for x in _batches(m.domain, 0):
        for got, want in (
            (m.fn(x), fn(x)),
            (m.inverse.fn(x), fn_inv(x)),
            (m.jacobian(x), jac(x)),
            (m.inverse.jacobian(x), jac_inv(x)),
        ):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


OMEGAS = (
    (lambda I: I, lambda I: np.ones_like(I)),
    (lambda I: 0.3 + 0.5 * I, lambda I: 0.5 * np.ones_like(I)),
    (lambda I: I**2, lambda I: 2 * I),
)


@pytest.mark.parametrize("space", [annulus(), torus(2)], ids=["annulus", "torus"])
@pytest.mark.parametrize("k", range(len(OMEGAS)))
def test_twist_matches_its_closures(space, k):
    omega, domega = OMEGAS[k]
    _assert_same_bytes(twist_map(omega, domega, space=space), _ref_twist(omega, domega))


@pytest.mark.parametrize("eps, phase", [(0.1, 0.0), (0.05, 0.37), (0.13, 0.81)])
def test_conjugating_shear_matches_its_closures(eps, phase):
    space = StateSpace((Interval(-1, 2), Circle(1.0)))
    _assert_same_bytes(conjugating_shear(eps, space=space, phase=phase), _ref_shear(eps, phase))


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("seed", range(5))
def test_shear_pair_matches_its_closures(n, seed):
    space = StateSpace(tuple(Interval(-1.0, 1.5) if i % 2 else Circle(1.0) for i in range(n)))
    got = _shear_pair(space, 0.07, np.random.default_rng(seed))
    want = _ref_shear_pair(space, 0.07, np.random.default_rng(seed))
    for m, ref in zip(got, want):
        _assert_same_bytes(m, ref)


def test_perturbed_symplectic_map_composes_its_shears():
    """perturb_map of a symplectic map is G, then the pair; its inverse
    undoes the pair, then G."""
    space = torus(2)
    G = affine_map(space, [[2.0, 1.0], [1.0, 1.0]], [0.1, 0.2]).with_meta(symplectic=True)
    Gp = perturb_map(G, 0.05, seed=4)
    (f1, f1i, j1, _), (f2, f2i, j2, _) = _ref_shear_pair(space, 0.05, np.random.default_rng(4))
    for x in _batches(space, 1):
        y = G.fn(x)
        assert Gp.fn(x).tobytes() == f2(f1(y)).tobytes()
        assert Gp.jacobian(x).tobytes() == (j2(f1(y)) @ j1(y) @ G.jacobian(x)).tobytes()
        assert Gp.inverse.fn(x).tobytes() == G.inverse.fn(f1i(f2i(x))).tobytes()


@pytest.mark.parametrize("eps", [0.0, 0.3, 1.0])
def test_annulus_flow_matches_its_field(eps):
    """flow_h_epsilon is implicit midpoint on the written-out field, for both
    time directions, with the tangent map from the field's derivative."""
    tau, steps = 0.25, 64
    field, dfield = _ref_annulus_field(eps)
    ref = (
        lambda x: implicit_midpoint(field, x, tau, steps),
        lambda x: implicit_midpoint(field, x, -tau, steps),
        lambda x: implicit_midpoint_with_jacobian(field, dfield, x, tau, steps)[1],
        lambda x: implicit_midpoint_with_jacobian(field, dfield, x, -tau, steps)[1],
    )
    _assert_same_bytes(flow_h_epsilon(eps, tau, steps=steps), ref)
