"""Fixed points, eigenvalue moduli and weak-hyperbolicity classification."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotHyperbolic, SingularJacobian
from .maps import SmoothMap, jacobian
from .spaces import StateSpace

UNIT_TOL = 1e-9  # modulus this close to 1 counts as neutral


@dataclass
class FixedPointRecord:
    point: np.ndarray
    map: SmoothMap
    eigen_moduli: list[float]
    classification: str  # attracting | repelling | saddle | elliptic-like | degenerate
    residual: float
    delta_weak: float | None = None


def classify_moduli(moduli: np.ndarray, J: np.ndarray) -> str:
    neutral = np.abs(moduli - 1.0) <= UNIT_TOL
    if neutral.all():
        if np.max(np.abs(J - np.eye(J.shape[0]))) <= 1e-8:
            return "degenerate"
        return "elliptic-like"
    if neutral.any():
        return "degenerate"
    if (moduli < 1.0).all():
        return "attracting"
    if (moduli > 1.0).all():
        return "repelling"
    return "saddle"


def is_delta_weak(moduli, delta: float) -> bool:
    """All stable moduli in (1-delta, 1), all unstable in (1, 1/(1-delta))."""
    moduli = np.asarray(moduli, dtype=float)
    lo, hi = 1.0 - delta, 1.0 / (1.0 - delta)
    stable = moduli < 1.0
    ok_s = np.all(moduli[stable] > lo)
    ok_u = np.all(moduli[~stable] < hi)
    return bool(ok_s and ok_u)


def contract_rows(
    raw,
    space: StateSpace,
    x0,
    lips,
    names,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> np.ndarray:
    """Fixed points of k contractions of one space by one row-masked iteration.

    raw(X, rows) evaluates the maps of the given rows, one point each. Row i
    starts at x0[i] and, unless its residual |f_i(x) - x| is already below
    tol, iterates x <- f_i(x) until the residual drops below
    tol * max(1 - lip_i, 1e-3): the distance to the fixed point is at most
    residual/(1 - lip_i), so the point is then within tol of it. The image
    that gives the residual is the next iterate, so a step costs one
    evaluation. NoConvergence names the first row still moving after
    max_iter steps.
    """
    x = space.canonicalize(x0)
    live = np.arange(len(x))
    y = space.canonicalize(raw(x, live))
    res = np.abs(space.diff(y, x)).max(axis=-1)
    live = live[res >= tol]
    eff = tol * np.maximum(1.0 - np.asarray(lips, dtype=float), 1e-3)
    for _ in range(max_iter):
        if not len(live):
            return x
        x[live] = y[live]
        y[live] = space.canonicalize(raw(x[live], live))
        res = np.abs(space.diff(y[live], x[live])).max(axis=-1)
        live = live[~(res < eff[live])]
    if len(live):
        raise NoConvergence(f"{names[live[0]]}: contraction iteration stalled")
    return x


def find_fixed_point(
    m: SmoothMap,
    guess,
    tol: float = 1e-12,
    max_iter: int = 200,
    delta: float | None = None,
) -> FixedPointRecord:
    """Locate a fixed point from the guess.

    Contracting maps (lip < 1 metadata) use plain iteration, which converges
    from any starting point of the domain; it is contract_rows on a batch of
    one. Otherwise a damped Newton solve on f(x) - x runs, which needs the
    guess inside the Newton basin.
    """
    x = np.asarray(guess, dtype=float).copy()
    x = m.domain.canonicalize(x)

    def residual(p):
        return m.domain.diff(m.codomain.canonicalize(m.fn(p)), p)

    if m.affine is not None:
        A, b = m.affine
        eye = np.eye(m.domain.dim)
        if np.linalg.cond(eye - A) < 1e14:
            x = m.domain.canonicalize(np.linalg.solve(eye - A, b))

    if m.is_contracting:
        x = contract_rows(
            lambda X, rows: m.fn(X[0])[None], m.domain, x[None], [m.lip], [m.name],
            tol=tol, max_iter=max_iter,
        )[0]
    else:
        r = residual(x)
        if np.max(np.abs(r)) >= tol:
            for _ in range(max_iter):
                J = jacobian(m, x)
                A = J - np.eye(m.domain.dim)
                if np.linalg.cond(A) > 1e14:
                    raise SingularJacobian(f"{m.name}: Df - I numerically singular")
                step = np.linalg.solve(A, -r)
                t = 1.0
                base = np.max(np.abs(r))
                while t > 1e-8:
                    xn = m.domain.canonicalize(x + t * step)
                    rn = residual(xn)
                    if np.max(np.abs(rn)) < base:
                        x, r = xn, rn
                        break
                    t /= 2.0
                else:
                    raise NoConvergence(f"{m.name}: Newton damping exhausted")
                if np.max(np.abs(r)) < tol:
                    break
            else:
                raise NoConvergence(f"{m.name}: Newton did not converge")

    J = jacobian(m, x)
    moduli = np.sort(np.abs(np.linalg.eigvals(J)))
    rec = FixedPointRecord(
        point=x,
        map=m,
        eigen_moduli=[float(v) for v in moduli],
        classification=classify_moduli(moduli, J),
        residual=float(np.max(np.abs(residual(x)))),
    )
    if delta is not None and rec.classification == "saddle":
        rec.delta_weak = delta if is_delta_weak(moduli, delta) else None
    return rec


def check_weak_hyperbolic(rec: FixedPointRecord, delta: float) -> bool:
    """True iff every modulus m satisfies 1-delta < m < 1 or 1 < m < 1/(1-delta)."""
    moduli = np.asarray(rec.eigen_moduli, dtype=float)
    if np.any(np.abs(moduli - 1.0) <= UNIT_TOL):
        raise NotHyperbolic("some eigenvalue modulus is on the unit circle")
    return is_delta_weak(moduli, delta)
