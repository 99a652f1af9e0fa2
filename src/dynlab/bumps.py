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


def smoothstep7(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return t**4 * (35.0 - 84.0 * t + 70.0 * t**2 - 20.0 * t**3)


def smoothstep7_d1(t: np.ndarray) -> np.ndarray:
    inside = (t > 0.0) & (t < 1.0)
    t = np.clip(t, 0.0, 1.0)
    return np.where(inside, 140.0 * t**3 - 420.0 * t**4 + 420.0 * t**5 - 140.0 * t**6, 0.0)


def smoothstep7_d2(t: np.ndarray) -> np.ndarray:
    inside = (t > 0.0) & (t < 1.0)
    t = np.clip(t, 0.0, 1.0)
    return np.where(
        inside, 420.0 * t**2 - 1680.0 * t**3 + 2100.0 * t**4 - 840.0 * t**5, 0.0
    )


@dataclass(eq=False)
class AxisRamp:
    """Per-axis profile: 0 outside [outer_lo, outer_hi], 1 on [core_lo, core_hi]."""

    outer_lo: float
    core_lo: float
    core_hi: float
    outer_hi: float

    def value(self, x):
        x = np.asarray(x, dtype=float)
        up = smoothstep7((x - self.outer_lo) / (self.core_lo - self.outer_lo))
        down = smoothstep7((self.outer_hi - x) / (self.outer_hi - self.core_hi))
        return np.minimum(up, down)

    def d1(self, x):
        x = np.asarray(x, dtype=float)
        wl = self.core_lo - self.outer_lo
        wr = self.outer_hi - self.core_hi
        up = smoothstep7_d1((x - self.outer_lo) / wl) / wl
        down = -smoothstep7_d1((self.outer_hi - x) / wr) / wr
        return np.where(x < self.core_lo, up, np.where(x > self.core_hi, down, 0.0))

    def d2(self, x):
        x = np.asarray(x, dtype=float)
        wl = self.core_lo - self.outer_lo
        wr = self.outer_hi - self.core_hi
        up = smoothstep7_d2((x - self.outer_lo) / wl) / wl**2
        down = smoothstep7_d2((self.outer_hi - x) / wr) / wr**2
        return np.where(x < self.core_lo, up, np.where(x > self.core_hi, down, 0.0))


@dataclass(eq=False)
class BoxBump:
    """Product cutoff: 1 on the core box, 0 outside the outer box."""

    ramps: list[AxisRamp]

    @classmethod
    def between(cls, core: Box, outer: Box) -> "BoxBump":
        ramps = []
        for i in range(core.space.dim):
            if core.lo[i] - outer.lo[i] < 1e-12 or outer.hi[i] - core.hi[i] < 1e-12:
                raise VectorTooLarge(
                    f"no collar room on axis {i}: core must sit strictly inside"
                )
            ramps.append(
                AxisRamp(outer.lo[i], core.lo[i], core.hi[i], outer.hi[i])
            )
        return cls(ramps)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = np.ones(x.shape[:-1])
        for i, r in enumerate(self.ramps):
            out = out * r.value(x[..., i])
        return out

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        vals = np.stack([r.value(x[..., i]) for i, r in enumerate(self.ramps)], axis=-1)
        g = np.empty_like(vals)
        for i, r in enumerate(self.ramps):
            others = np.prod(np.delete(vals, i, axis=-1), axis=-1)
            g[..., i] = r.d1(x[..., i]) * others
        return g

    def hess(self, x):
        x = np.asarray(x, dtype=float)
        n = len(self.ramps)
        vals = np.stack([r.value(x[..., i]) for i, r in enumerate(self.ramps)], axis=-1)
        d1 = np.stack([r.d1(x[..., i]) for i, r in enumerate(self.ramps)], axis=-1)
        d2 = np.stack([r.d2(x[..., i]) for i, r in enumerate(self.ramps)], axis=-1)
        H = np.empty(x.shape[:-1] + (n, n))
        for i in range(n):
            for j in range(n):
                mask = np.ones(n, dtype=bool)
                mask[i] = False
                mask[j] = False
                rest = np.prod(vals[..., mask], axis=-1)
                if i == j:
                    H[..., i, i] = d2[..., i] * rest
                else:
                    H[..., i, j] = d1[..., i] * d1[..., j] * rest
        return H


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
        return chi.grad(x) * (x @ L_grad)[..., None] + chi.value(x)[..., None] * L_grad

    def hess(x):
        # hess(chi) L + grad(chi) gradL^T + gradL grad(chi)^T
        x = np.asarray(x, dtype=float)
        gchi = chi.grad(x)
        return (
            chi.hess(x) * (x @ L_grad)[..., None, None]
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
