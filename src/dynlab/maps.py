"""Evaluable maps with derivative access and contraction/symplectic metadata.

A SmoothMap wraps a vectorized point function f together with an optional
analytic Jacobian, an optional inverse, and numeric metadata used by the
certificate machinery:

    lam        lower contraction bound:  lam * d(x,y) <= d(f x, f y)
    lip        Lipschitz bound:          d(f x, f y) <= lip * d(x,y)
    symplectic flag, coordinates paired (a_i, b_i) in order

Evaluation accepts arrays of shape (..., dim) and is pure; maps are safe to
share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    NoConvergence,
    OddDimension,
    PointOutsideDomain,
    SingularJacobian,
    StepTooLarge,
)
from .spaces import StateSpace

# Default finite-difference step, as a fraction of the domain diameter.
FD_STEP_FRACTION = 1e-5


@dataclass(eq=False)
class SmoothMap:
    domain: StateSpace
    codomain: StateSpace
    fn: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = "map"
    lam: float | None = None  # contraction lower bound
    lip: float | None = None  # Lipschitz upper bound
    symplectic: bool = False
    inverse: "SmoothMap | None" = None
    affine: tuple[np.ndarray, np.ndarray] | None = None  # (A, b) when f(x) = A x + b

    @property
    def is_contracting(self) -> bool:
        return self.lip is not None and self.lip < 1.0

    def __call__(self, x) -> np.ndarray:
        return evaluate(self, x)

    def raw(self, x) -> np.ndarray:
        """Evaluate without domain checks or canonicalization."""
        return self.fn(np.asarray(x, dtype=float))

    def jacobian(self, x, h: float | None = None) -> np.ndarray:
        return jacobian(self, x, h)

    def invert(self, y, tol: float = 1e-12, max_iter: int = 80) -> np.ndarray:
        """Preimage of y, via the attached inverse or a Newton solve (batched)."""
        if self.inverse is not None:
            return self.inverse(y)
        y = np.asarray(y, dtype=float)
        x = y.copy()
        for _ in range(max_iter):
            r = self.codomain.diff(self.raw(x), y)
            if np.max(np.abs(r)) < tol:
                return self.domain.canonicalize(x)
            J = self.jacobian(x)
            try:
                step = np.linalg.solve(J, r[..., None])[..., 0]
            except np.linalg.LinAlgError as e:
                raise SingularJacobian(f"{self.name}: singular Jacobian in invert") from e
            x = x - step
        raise NoConvergence(f"{self.name}: invert did not converge")

    def with_meta(self, **kw) -> "SmoothMap":
        out = SmoothMap(**{**self.__dict__, **kw})
        return out


def evaluate(m: SmoothMap, x) -> np.ndarray:
    """Apply the map: canonicalize circles, check interval bounds, evaluate.

    The checked entry point for raw points; on a canonical point it equals
    canonicalize(raw(x)), the path of the orbit engine. Raises
    PointOutsideDomain when an interval coordinate exits its range by more
    than tolerance.
    """
    x = np.asarray(x, dtype=float)
    x = m.domain.canonicalize(x)
    m.domain.check_inside(x)
    return m.codomain.canonicalize(m.fn(x))


def fd_step(space: StateSpace, h: float | None) -> float:
    if h is not None:
        if h <= 0:
            raise ValueError("finite-difference step must be positive")
        return h
    return FD_STEP_FRACTION * max(space.diameter(), 1.0)


def jacobian(m: SmoothMap, x, h: float | None = None) -> np.ndarray:
    """Analytic Jacobian when available, else central differences.

    The stencil must stay inside interval factors (StepTooLarge otherwise);
    circle factors wrap. Output displacements use the shortest circle
    representative, so derivatives are correct across the seam.
    """
    x = np.asarray(x, dtype=float)
    if m.jac is not None:
        return m.jac(x)
    if m.affine is not None:
        A = m.affine[0]
        return np.broadcast_to(A, x.shape + (A.shape[-1],)).copy()
    step = fd_step(m.domain, h)
    dim = m.domain.dim
    single = x.ndim == 1
    pts = x[None, :] if single else x
    for i, f in enumerate(m.domain.factors):
        if hasattr(f, "lo"):  # interval factor
            if np.any(pts[..., i] - step < f.lo - 1e-15) or np.any(
                pts[..., i] + step > f.hi + 1e-15
            ):
                raise StepTooLarge(
                    f"{m.name}: stencil of width {step} exits interval factor {i}"
                )
    cols = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = step
        fp = m.fn(m.domain.canonicalize(pts + e))
        fm = m.fn(m.domain.canonicalize(pts - e))
        cols.append(m.codomain.diff(fp, fm) / (2.0 * step))
    J = np.stack(cols, axis=-1)
    return J[0] if single else J


def compose(
    outer: SmoothMap,
    inner: SmoothMap,
    name: str | None = None,
    _with_inverse: bool = True,
) -> SmoothMap:
    """outer o inner, with chained Jacobians and multiplied bounds."""
    if inner.codomain.dim != outer.domain.dim:
        raise ValueError("composition dimension mismatch")

    def fn(x):
        return outer.fn(outer.domain.canonicalize(inner.fn(x)))

    def jac_fn(x):  # chain rule; each factor may fall back to FD
        xi = np.asarray(x, dtype=float)
        mid = outer.domain.canonicalize(inner.fn(xi))
        Ji = jacobian(inner, xi)
        Jo = jacobian(outer, mid)
        return Jo @ Ji

    affine = None
    if outer.affine is not None and inner.affine is not None:
        Ao, bo = outer.affine
        Ai, bi = inner.affine
        affine = (Ao @ Ai, Ao @ bi + bo)

    inv = None
    if _with_inverse and outer.inverse is not None and inner.inverse is not None:
        inv = compose(inner.inverse, outer.inverse, _with_inverse=False)

    out = SmoothMap(
        domain=inner.domain,
        codomain=outer.codomain,
        fn=fn,
        jac=jac_fn,
        name=name or f"{outer.name}*{inner.name}",
        lam=None
        if (outer.lam is None or inner.lam is None)
        else outer.lam * inner.lam,
        lip=None
        if (outer.lip is None or inner.lip is None)
        else outer.lip * inner.lip,
        symplectic=outer.symplectic and inner.symplectic,
        inverse=inv,
        affine=affine,
    )
    if inv is not None:
        inv.inverse = out
    return out


def identity_map(space: StateSpace) -> SmoothMap:
    dim = space.dim
    m = SmoothMap(
        domain=space,
        codomain=space,
        fn=lambda x: np.asarray(x, dtype=float).copy(),
        jac=lambda x: np.broadcast_to(np.eye(dim), np.shape(x)[:-1] + (dim, dim)).copy(),
        name="id",
        lam=1.0,
        lip=1.0,
        symplectic=True,
        affine=(np.eye(dim), np.zeros(dim)),
    )
    m.inverse = m
    return m


def affine_map(
    space: StateSpace,
    A,
    b,
    name: str = "affine",
    codomain: StateSpace | None = None,
) -> SmoothMap:
    """Affine map x -> A x + b with exact metadata derived from A."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    sv = np.linalg.svd(A, compute_uv=False)
    out = SmoothMap(
        domain=space,
        codomain=codomain or space,
        fn=lambda x: x @ A.T + b,
        jac=lambda x: np.broadcast_to(A, np.shape(x)[:-1] + A.shape).copy(),
        name=name,
        lam=float(sv.min()),
        lip=float(sv.max()),
        affine=(A, b),
    )
    if abs(np.linalg.det(A)) > 1e-300:
        Ainv = np.linalg.inv(A)
        out.inverse = SmoothMap(
            domain=out.codomain,
            codomain=space,
            fn=lambda y: (y - b) @ Ainv.T,
            jac=lambda y: np.broadcast_to(Ainv, np.shape(y)[:-1] + Ainv.shape).copy(),
            name=name + "^-1",
            lam=1.0 / float(sv.max()),
            lip=1.0 / float(sv.min()),
            affine=(Ainv, -Ainv @ b),
            inverse=out,
        )
    return out


def standard_form_matrix(dim: int) -> np.ndarray:
    """Block skew matrix for coordinates ordered in pairs (a_1, b_1, a_2, b_2, ...)."""
    if dim % 2 != 0:
        raise OddDimension(f"symplectic form needs even dimension, got {dim}")
    omega = np.zeros((dim, dim))
    for i in range(0, dim, 2):
        omega[i, i + 1] = 1.0
        omega[i + 1, i] = -1.0
    return omega


def check_symplectic(m: SmoothMap, samples, tol: float = 1e-8) -> dict:
    """Max over samples of ||J^T Omega J - Omega||_inf, pass iff below tol."""
    omega = standard_form_matrix(m.domain.dim)
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[None, :]
    J = jacobian(m, samples)
    res = np.einsum("...ji,jk,...kl->...il", J, omega, J) - omega
    worst = float(np.max(np.abs(res)))
    return {"max_residual": worst, "pass": bool(worst < tol), "tol": tol, "n": len(samples)}
