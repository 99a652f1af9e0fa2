"""Compactly supported Hamiltonian translations on paired coordinates.

The time-1 flow of chi(x) * (u . b - v . a) translates by (u, v) where the
cutoff chi is 1 and is the identity where chi vanishes. chi is a product of
per-axis degree-7 polynomial steps (three vanishing derivatives at the
joins), so the field is analytic in the collar and the flow integrates
cleanly with implicit midpoint; inside the core and outside the support the
map is evaluated in closed form, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import VectorTooLarge
from .integrate import hamiltonian_flow
from .maps import SmoothMap
from .spaces import Box

_COLLAR_STEPS = 128  # implicit-midpoint steps of a bump translation's collar flow


def _ramp_terms(x, outer_lo, core_lo, core_hi, outer_hi, order: int) -> list[np.ndarray]:
    """Profiles at the points x and their first `order` derivatives,
    [value, d1, d2][: order + 1], each shaped like x (bounds broadcast
    against x).

    The profile is the lesser of an up ramp over [outer_lo, core_lo] and a
    down ramp over [core_hi, outer_hi], each the degree-7 step
    t^4 (35 - 84 t + 70 t^2 - 20 t^3) on [0, 1]. The up and down arguments
    are stacked into one (2, ...) array and clipped once, so the step and
    each derivative are evaluated once; a derivative is taken from the up
    ramp below the core, from the down ramp above it, and is 0 where the
    argument is outside (0, 1).
    """
    wl = core_lo - outer_lo
    wr = outer_hi - core_hi
    t = np.stack([(x - outer_lo) / wl, (outer_hi - x) / wr])
    inside = (t > 0.0) & (t < 1.0)
    t = np.minimum(np.maximum(t, 0.0), 1.0)
    t2, t3, t4 = t**2, t**3, t**4
    step = t4 * (35.0 - 84.0 * t + 70.0 * t2 - 20.0 * t3)
    out = [np.minimum(step[0], step[1])]
    if order < 1:
        return out
    below, above = x < core_lo, x > core_hi
    t5 = t**5
    d = np.where(inside, 140.0 * t3 - 420.0 * t4 + 420.0 * t5 - 140.0 * t**6, 0.0)
    out.append(np.where(below, d[0] / wl, np.where(above, -d[1] / wr, 0.0)))
    if order < 2:
        return out
    d = np.where(inside, 420.0 * t2 - 1680.0 * t3 + 2100.0 * t4 - 840.0 * t5, 0.0)
    out.append(np.where(below, d[0] / wl**2, np.where(above, d[1] / wr**2, 0.0)))
    return out


@dataclass(eq=False)
class AxisRamp:
    """Per-axis profile: 0 outside [outer_lo, outer_hi], 1 on [core_lo, core_hi]."""

    outer_lo: float
    core_lo: float
    core_hi: float
    outer_hi: float

    def terms(self, x, order: int) -> list[np.ndarray]:
        """The profile at x and its first `order` derivatives (_ramp_terms)."""
        x = np.asarray(x, dtype=float)
        return _ramp_terms(x, self.outer_lo, self.core_lo, self.core_hi, self.outer_hi, order)

    def value(self, x):
        return self.terms(x, 0)[0]


@dataclass(eq=False)
class BoxBump:
    """Product cutoff: 1 on the core box, 0 outside the outer box.

    The per-axis bounds are (n, 1) columns, so the axis profiles are
    evaluated axis-first, on (n, batch) arrays, in one _ramp_terms call.
    """

    bounds: np.ndarray  # (4, n, 1): outer_lo, core_lo, core_hi, outer_hi

    @classmethod
    def between(cls, core: Box, outer: Box) -> "BoxBump":
        room = np.minimum(core.lo - outer.lo, outer.hi - core.hi)
        tight = np.flatnonzero(room < 1e-12)
        if tight.size:
            raise VectorTooLarge(
                f"no collar room on axis {tight[0]}: core must sit strictly inside"
            )
        return cls(np.stack([outer.lo, core.lo, core.hi, outer.hi])[..., None])

    def jet(self, x, order: int) -> list[np.ndarray]:
        """chi at the points x (..., n) and its first `order` derivatives
        (gradient (..., n), Hessian (..., n, n)), all from one evaluation of
        the axis profiles.

        Each product runs over the axes in order, with 1.0 standing in for
        the axes it leaves out.
        """
        x = np.asarray(x, dtype=float)
        batch = x.shape[:-1]
        cols = np.ascontiguousarray(x.reshape(-1, x.shape[-1]).T)
        v, *d = _ramp_terms(cols, *self.bounds, order)
        eye = np.eye(len(v), dtype=bool)[..., None]
        out = [np.multiply.reduce(v, axis=0).reshape(batch)]
        if order >= 1:
            others = np.multiply.reduce(np.where(eye, 1.0, v[None]), axis=1)
            out.append((d[0] * others).T.reshape(x.shape))
        if order >= 2:
            # rest[i, j]: the product of the profiles off axes i and j
            off = eye[:, None] | eye[None, :]
            rest = np.multiply.reduce(np.where(off, 1.0, v[None, None]), axis=2)
            pairs = np.where(eye, d[1][:, None], d[0][:, None] * d[0][None, :])
            out.append(np.moveaxis(pairs * rest, (0, 1), (-2, -1)).reshape(x.shape + x.shape[-1:]))
        return out


def hamiltonian_bump_translation(
    u_vec,
    v_vec,
    U: Box,
    U_tilde: Box,
    time_scale: float = 1.0,
) -> SmoothMap:
    """Symplectic map translating U by (u, v), identity outside U_tilde.

    Coordinates pair as (a_1, b_1, a_2, b_2, ...); the displacement applies
    u to the a's and v to the b's, scaled by time_scale. The cutoff core
    covers the swept hull of U so the translation is exact there; the collar
    is the time-1 map of integrate.hamiltonian_flow, _COLLAR_STEPS
    implicit-midpoint steps.
    """
    space = U.space
    if space.dim % 2 != 0:
        raise VectorTooLarge("paired coordinates needed")
    u_vec = np.asarray(u_vec, dtype=float)
    v_vec = np.asarray(v_vec, dtype=float)
    delta = np.empty(space.dim)
    delta[0::2] = u_vec
    delta[1::2] = v_vec
    delta = delta * time_scale

    shifted = Box(space, U.lo + delta, U.hi + delta)
    core = Box(space, np.minimum(U.lo, shifted.lo), np.maximum(U.hi, shifted.hi))
    pad = 0.05 * (U_tilde.hi - U_tilde.lo)
    core = Box(space, core.lo - pad, core.hi + pad)
    if np.any(core.lo <= U_tilde.lo) or np.any(core.hi >= U_tilde.hi):
        raise VectorTooLarge("translation sweeps out of the support box")
    chi = BoxBump.between(core, U_tilde)

    # H = chi * L with L = sum(u_i b_i - v_i a_i); flow is +delta where chi = 1
    L_grad = np.empty(space.dim)
    L_grad[0::2] = -v_vec * time_scale
    L_grad[1::2] = u_vec * time_scale

    def grad(x):
        x = np.asarray(x, dtype=float)
        vchi, gchi = chi.jet(x, 1)
        return gchi * (x @ L_grad)[..., None] + vchi[..., None] * L_grad

    def hess(x):
        # hess(chi) L + grad(chi) gradL^T + gradL grad(chi)^T
        x = np.asarray(x, dtype=float)
        _, gchi, hchi = chi.jet(x, 2)
        return (
            hchi * (x @ L_grad)[..., None, None]
            + gchi[..., :, None] * L_grad[None, :]
            + L_grad[:, None] * gchi[..., None, :]
        )

    name = f"bump-translate({np.round(delta, 6)})"
    collar_flow = hamiltonian_flow(space, grad, hess, 1.0, _COLLAR_STEPS, name)

    def pieces(x, sign):
        """Rows of x, their exact translates by sign * delta, and the rows
        translated exactly (source in U, target in the core) or flowed
        through the collar; the rest, outside U_tilde, stay put."""
        pts = x.reshape(-1, space.dim)
        moved = pts + sign * delta
        src, dst = (pts, moved) if sign > 0 else (moved, pts)
        inside = U.contains(src) & core.contains(dst)
        collar = ~inside & U_tilde.contains(pts, tol=0.0)
        return pts, moved, inside, collar

    def flow(x, sign):
        x = np.asarray(x, dtype=float)
        pts, moved, inside, collar = pieces(x, sign)
        out = pts.copy()
        out[inside] = moved[inside]
        if np.any(collar):
            out[collar] = (collar_flow if sign > 0 else collar_flow.inverse).fn(pts[collar])
        return out.reshape(x.shape)

    def jac(x):
        x = np.asarray(x, dtype=float)
        pts, _, _, collar = pieces(x, 1)
        J = np.broadcast_to(np.eye(space.dim), pts.shape + (space.dim,)).copy()
        if np.any(collar):
            J[collar] = collar_flow.jac(pts[collar])
        return J.reshape(x.shape + (space.dim,))

    fwd = SmoothMap(space, space, lambda x: flow(x, 1), jac=jac, name=name, symplectic=True)
    fwd.inverse = SmoothMap(
        space, space, lambda x: flow(x, -1), name=name + "^-1", symplectic=True, inverse=fwd
    )
    return fwd
