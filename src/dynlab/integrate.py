"""Fixed-step implicit midpoint integration for Hamiltonian vector fields,
and the time-t maps of Hamiltonian flows built on it."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import IntegratorDiverged
from .maps import SmoothMap
from .spaces import StateSpace


_INNER_TOL = 1e-12  # inner fixed-point tolerance of a midpoint step
_MAX_INNER = 80  # inner iterations of a midpoint step


def _midpoint_step(field, x: np.ndarray, h: float) -> np.ndarray:
    """One implicit-midpoint step of size h from x: the fixed point y of
    y = x + h * field((x + y) / 2), iterated from the explicit Euler guess
    until successive iterates agree within _INNER_TOL, at most _MAX_INNER
    times."""
    y = x + h * field(x)
    d = np.inf
    for _ in range(_MAX_INNER):
        y_new = x + h * field(0.5 * (x + y))
        d = np.max(np.abs(y_new - y))
        y = y_new
        if d < _INNER_TOL:
            break
    # the iterates can plateau at rounding level above _INNER_TOL; accept
    # that, reject genuine stalls
    if d >= 1000 * _INNER_TOL:
        raise IntegratorDiverged("implicit midpoint inner iteration stalled")
    return y


def implicit_midpoint(
    field: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    t: float,
    steps: int,
) -> np.ndarray:
    """Time-t map of the field by fixed-step implicit midpoint.

    The inner fixed-point solve contracts for step * Lip(field) < 1; the
    step count is fixed, so results are deterministic. Works on batches of
    shape (..., dim).
    """
    x = np.asarray(x0, dtype=float).copy()
    if steps <= 0:
        raise ValueError("steps must be positive")
    if t == 0.0:
        return x
    h = t / steps
    for _ in range(steps):
        x = _midpoint_step(field, x, h)
    return x


def implicit_midpoint_with_jacobian(
    field: Callable[[np.ndarray], np.ndarray],
    dfield: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    t: float,
    steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Flow and its exact tangent map along the trajectory.

    Each implicit-midpoint step has derivative (I - h/2 M)^-1 (I + h/2 M)
    with M the field derivative at the midpoint (a Cayley transform, exactly
    symplectic when M is an infinitesimally symplectic matrix)."""
    x = np.asarray(x0, dtype=float).copy()
    dim = x.shape[-1]
    eye = np.eye(dim)
    J = np.broadcast_to(eye, x.shape[:-1] + (dim, dim)).copy()
    if t == 0.0:
        return x, J
    h = t / steps
    for _ in range(steps):
        y = _midpoint_step(field, x, h)
        M = dfield(0.5 * (x + y))
        step_jac = np.linalg.solve(eye - 0.5 * h * M, eye + 0.5 * h * M)
        J = step_jac @ J
        x = y
    return x, J


def hamiltonian_flow(
    space: StateSpace,
    grad: Callable[[np.ndarray], np.ndarray],
    hess: Callable[[np.ndarray], np.ndarray],
    t: float,
    steps: int,
    name: str,
) -> SmoothMap:
    """Time-t map of the Hamiltonian H on paired coordinates, by steps
    implicit-midpoint steps, with its inverse (the time -t map).

    grad and hess give the gradient and the Hessian of H on (..., dim)
    points. The field is J grad H, (a, b)' = (dH/db, -dH/da) on each pair,
    and its derivative J Hess H gives both maps' exact tangent maps.
    """

    def field(x):
        g = grad(x)
        out = np.empty_like(g)
        out[..., 0::2] = g[..., 1::2]
        out[..., 1::2] = -g[..., 0::2]
        return out

    def dfield(x):
        H = hess(x)
        out = np.empty_like(H)
        out[..., 0::2, :] = H[..., 1::2, :]
        out[..., 1::2, :] = -H[..., 0::2, :]
        return out

    def flow(s, nm):
        return SmoothMap(
            space, space, lambda x: implicit_midpoint(field, x, s, steps),
            jac=lambda x: implicit_midpoint_with_jacobian(field, dfield, x, s, steps)[1],
            name=nm, symplectic=True,
        )

    fwd = flow(t, name)
    fwd.inverse = flow(-t, name + "^-1")
    fwd.inverse.inverse = fwd
    return fwd
