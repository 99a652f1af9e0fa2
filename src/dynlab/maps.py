"""Evaluable maps with derivative access and contraction/symplectic metadata.

A SmoothMap wraps a vectorized point function f together with an optional
analytic Jacobian, an optional inverse, and numeric metadata used by the
certificate machinery (a Jacobian or inverse comes only from what the map
declares; nothing is differenced or solved generically):

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

from .errors import NoMetadata, NotInvertible, OddDimension, SingularJacobian
from .spaces import StateSpace


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

    def jacobian(self, x) -> np.ndarray:
        return jacobian(self, x)

    def invert(self, y) -> np.ndarray:
        """Preimage of y under the attached inverse; NotInvertible without one."""
        if self.inverse is None:
            raise NotInvertible(f"{self.name} has no inverse")
        return self.inverse(y)

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


def by_index(maps: list[SmoothMap], idx: np.ndarray, x: np.ndarray, method: str) -> np.ndarray:
    """maps[r].method on the rows of x whose index is r, one call per index
    present; "jacobian" rows come out as (n, n) matrices."""
    present = np.flatnonzero(np.bincount(idx, minlength=len(maps))).tolist()
    if len(present) == 1:
        return getattr(maps[present[0]], method)(x)
    out = np.empty((len(x),) + x.shape[-1:] * (2 if method == "jacobian" else 1))
    for r in present:
        rows = idx == r
        out[rows] = getattr(maps[r], method)(x[rows])
    return out


def jacobian(m: SmoothMap, x) -> np.ndarray:
    """The Jacobian the map declares: its jac, else its affine part, else,
    when its inverse declares one, the inverse-function rule
    D(f^-1)(y) = Df(f^-1(y))^-1. NoMetadata when it declares none,
    SingularJacobian when the inverse's Jacobian is singular."""
    x = np.asarray(x, dtype=float)
    if m.jac is not None:
        return m.jac(x)
    if m.affine is not None:
        A = m.affine[0]
        return np.broadcast_to(A, x.shape + (A.shape[-1],)).copy()
    inv = m.inverse
    if inv is not None and (inv.jac is not None or inv.affine is not None):
        try:
            return np.linalg.inv(jacobian(inv, m.fn(x)))
        except np.linalg.LinAlgError as e:
            raise SingularJacobian(f"{m.name}: singular Jacobian of {inv.name}") from e
    raise NoMetadata(f"{m.name} declares no Jacobian")


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

    def jac_fn(x):  # chain rule through each factor's declared Jacobian
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


def affine_map(space: StateSpace, A, b, name: str = "affine") -> SmoothMap:
    """Affine map x -> A x + b with exact max-metric bounds derived from A:
    lip = ||A||_inf and lam = 1/||A^-1||_inf, swapped for the inverse.

    fn and the inverse's fn evaluate one row at a time, so a point gives the
    same bits alone as in any batch (a 2-D product of m >= 2 rows rounds
    differently from a single row).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    At = A.T
    norm = float(np.abs(A).sum(axis=1).max())
    invertible = abs(np.linalg.det(A)) > 1e-300
    Ainv = np.linalg.inv(A) if invertible else None
    inv_norm = float(np.abs(Ainv).sum(axis=1).max()) if invertible else np.inf
    out = SmoothMap(
        domain=space,
        codomain=space,
        fn=lambda x: (x[..., None, :] @ At)[..., 0, :] + b,
        jac=lambda x: np.broadcast_to(A, np.shape(x)[:-1] + A.shape).copy(),
        name=name,
        lam=1.0 / inv_norm,
        lip=norm,
        affine=(A, b),
    )
    if invertible:
        out.inverse = SmoothMap(
            domain=space,
            codomain=space,
            fn=lambda y: ((y - b)[..., None, :] @ Ainv.T)[..., 0, :],
            jac=lambda y: np.broadcast_to(Ainv, np.shape(y)[:-1] + Ainv.shape).copy(),
            name=name + "^-1",
            lam=1.0 / norm,
            lip=inv_norm,
            affine=(Ainv, -Ainv @ b),
            inverse=out,
        )
    return out


def pair_shear(space: StateSpace, src, dst, g, dg, name: str) -> SmoothMap:
    """Symplectic shear x[dst_k] -> x[dst_k] + g(x[src])_k, with the exact
    inverse x[dst_k] - g(x[src])_k.

    src and dst index the last axis: one coordinate each, or k coordinates
    as slices or lists. Each (src_k, dst_k) is one coordinate pair
    (a_i, b_i) or (b_i, a_i). g and dg take the source column(s); g_k
    depends on x[src_k] alone and dg_k is its derivative, so the Jacobian
    is the identity with dg on the (dst_k, src_k) entries (-dg for the
    inverse) and the map preserves the form.
    """
    eye = np.eye(space.dim)
    rows, cols = np.arange(space.dim)[dst], np.arange(space.dim)[src]

    def shear(op):
        def fn(x):
            x = np.asarray(x, dtype=float).copy()
            x[..., dst] = op(x[..., dst], g(x[..., src]))
            return x

        return fn

    def jac(x):
        x = np.asarray(x, dtype=float)
        J = np.empty(x.shape[:-1] + eye.shape)
        J[...] = eye
        J[..., rows, cols] = dg(x[..., src])
        return J

    def jac_inv(x):
        J = jac(x)
        J[..., rows, cols] = -J[..., rows, cols]
        return J

    fwd = SmoothMap(space, space, shear(np.add), jac=jac, name=name, symplectic=True)
    fwd.inverse = SmoothMap(
        space, space, shear(np.subtract), jac=jac_inv, name=name + "^-1", symplectic=True, inverse=fwd
    )
    return fwd


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
