"""Integrable building blocks: twist maps, conjugating shears, the explicit
annulus Hamiltonian flow, chains of invariant circles and their shadowing.

Angle convention: circles have period 1 and trigonometric formulas use
2*pi*theta internally. Twist maps preserve every circle {I = c} and rotate
it by omega(c); a conjugated twist preserves the sheared circles instead,
and consecutive transversal crossings between the two families form the
ladder that IFS orbits climb.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, pi, sin

import numpy as np

from .errors import DomainOverflow, HorizonExhausted, NoChain
from .integrate import implicit_midpoint, implicit_midpoint_with_jacobian
from .maps import SmoothMap, compose
from .spaces import Box, Circle, Interval, StateSpace, annulus


def twist_map(
    omega,
    domega=None,
    space: StateSpace | None = None,
    name: str = "twist",
) -> SmoothMap:
    """(I, theta) -> (I, theta + omega(I)) with analytic Jacobian."""
    space = space if space is not None else annulus()

    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.stack([x[..., 0], x[..., 1] + omega(x[..., 0])], axis=-1)

    def fn_inv(x):
        x = np.asarray(x, dtype=float)
        return np.stack([x[..., 0], x[..., 1] - omega(x[..., 0])], axis=-1)

    def jac(x):
        x = np.asarray(x, dtype=float)
        dw = (
            domega(x[..., 0])
            if domega is not None
            else (omega(x[..., 0] + 1e-6) - omega(x[..., 0] - 1e-6)) / 2e-6
        )
        J = np.zeros(np.shape(x)[:-1] + (2, 2))
        J[..., 0, 0] = 1.0
        J[..., 1, 0] = dw
        J[..., 1, 1] = 1.0
        return J

    def jac_inv(x):
        J = jac(x)
        J[..., 1, 0] = -J[..., 1, 0]
        return J

    fwd = SmoothMap(space, space, fn, jac=jac, name=name, symplectic=True, lam=1.0, lip=None)
    fwd.inverse = SmoothMap(
        space, space, fn_inv, jac=jac_inv, name=name + "^-1", symplectic=True, inverse=fwd
    )
    return fwd


def conjugating_shear(
    eps: float,
    space: StateSpace | None = None,
    phase: float = 0.0,
    check_region: Box | None = None,
    name: str | None = None,
) -> SmoothMap:
    """(I, theta) -> (I + eps cos(2 pi (theta + phase)), theta), exact inverse.

    On an interval annulus the shear moves I by up to eps, so the region of
    interest must sit at least eps inside the domain (DomainOverflow
    otherwise); on a torus there is nothing to overflow.
    """
    space = space if space is not None else annulus()
    factor = space.factors[0]
    if isinstance(factor, Interval):
        if check_region is not None:
            if (
                check_region.lo[0] - eps < factor.lo - 1e-12
                or check_region.hi[0] + eps > factor.hi + 1e-12
            ):
                raise DomainOverflow(
                    f"shear amplitude {eps} exceeds the annulus margin"
                )

    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.stack(
            [x[..., 0] + eps * np.cos(2 * pi * (x[..., 1] + phase)), x[..., 1]],
            axis=-1,
        )

    def fn_inv(x):
        x = np.asarray(x, dtype=float)
        return np.stack(
            [x[..., 0] - eps * np.cos(2 * pi * (x[..., 1] + phase)), x[..., 1]],
            axis=-1,
        )

    def jac(x):
        x = np.asarray(x, dtype=float)
        J = np.zeros(np.shape(x)[:-1] + (2, 2))
        J[..., 0, 0] = 1.0
        J[..., 0, 1] = -2 * pi * eps * np.sin(2 * pi * (x[..., 1] + phase))
        J[..., 1, 1] = 1.0
        return J

    def jac_inv(x):
        J = jac(x)
        J[..., 0, 1] = -J[..., 0, 1]
        return J

    nm = name or f"shear({eps})"
    fwd = SmoothMap(space, space, fn, jac=jac, name=nm, symplectic=True)
    fwd.inverse = SmoothMap(
        space, space, fn_inv, jac=jac_inv, name=nm + "^-1", symplectic=True, inverse=fwd
    )
    return fwd


def bump_eta(x) -> np.ndarray | float:
    """Standard bump: exp(4) * exp(-1/(x(1-x))) on (0,1), zero elsewhere.

    Scaled so the maximum (at 1/2) is 1; underflow makes the vanishing at
    the endpoints exact in double precision well before x reaches 0 or 1.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = (x > 0.0) & (x < 1.0)
    xi = x[inside]
    with np.errstate(under="ignore"):
        out[inside] = np.exp(4.0) * np.exp(-1.0 / (xi * (1.0 - xi)))
    return float(out) if out.ndim == 0 else out


def bump_eta_prime(x) -> np.ndarray | float:
    """Derivative of bump_eta (analytic, zero outside (0,1))."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = (x > 0.0) & (x < 1.0)
    xi = x[inside]
    with np.errstate(under="ignore"):
        eta = np.exp(4.0) * np.exp(-1.0 / (xi * (1.0 - xi)))
    out[inside] = eta * (1.0 - 2.0 * xi) / (xi * (1.0 - xi)) ** 2
    return float(out) if out.ndim == 0 else out


def bump_eta_second(x) -> np.ndarray | float:
    """Second derivative of bump_eta."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = (x > 0.0) & (x < 1.0)
    xi = x[inside]
    q = xi * (1.0 - xi)
    u = 1.0 - 2.0 * xi
    with np.errstate(under="ignore"):
        eta = np.exp(4.0) * np.exp(-1.0 / q)
    out[inside] = eta * (u**2 / q**4 - 2.0 / q**2 - 2.0 * u**2 / q**3)
    return float(out) if out.ndim == 0 else out


def annulus_hamiltonian_field(eps: float):
    """Analytic symplectic gradient of the bump Hamiltonian.

    Coordinates are (r, theta) with dr/dt = dH/dtheta, dtheta/dt = -dH/dr
    matching the paired-coordinate convention; analytic derivatives keep the
    integrator's inner solve clean of finite-difference noise.
    """

    def field(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        r = x[..., 0]
        th = 2 * pi * x[..., 1]
        A = bump_eta(r)
        Ap = bump_eta_prime(r)
        D = 1.0 + eps * A
        Dp = eps * Ap
        s, c = np.sin(th), np.cos(th)
        # h = A r^2 (s / D + c D)
        dh_dth = 2 * pi * A * r**2 * (c / D - s * D)
        dh_dr = (Ap * r**2 + 2 * A * r) * (s / D + c * D) + A * r**2 * Dp * (
            c - s / D**2
        )
        out = np.empty_like(x)
        out[..., 0] = dh_dth
        out[..., 1] = -dh_dr
        return out

    return field


def annulus_hamiltonian_jacobian(eps: float):
    """Derivative DX of the bump Hamiltonian field (analytic Hessian of h)."""
    m = 2 * pi

    def dfield(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        r = x[..., 0]
        th = m * x[..., 1]
        A = bump_eta(r)
        Ap = bump_eta_prime(r)
        App = bump_eta_second(r)
        D = 1.0 + eps * A
        Dp = eps * Ap
        Dpp = eps * App
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

    return dfield


def flow_h_epsilon(
    eps: float,
    tau: float,
    steps: int = 256,
    space: StateSpace | None = None,
) -> SmoothMap:
    """Time-tau map of the bump Hamiltonian on the (r, theta) annulus.

    Identity for r >= 1 exactly (the bump vanishes, so the field is zero);
    integrated by implicit midpoint inside, hence symplectic up to the
    inner-solve tolerance. steps counts the whole interval [0, tau].
    """
    if steps < 64:
        raise ValueError("use at least 64 integration steps")
    space = space if space is not None else StateSpace((Interval(-0.5, 2.0), Circle(1.0)))
    field = annulus_hamiltonian_field(eps)
    dfield = annulus_hamiltonian_jacobian(eps)

    def fn(x):
        return implicit_midpoint(field, x, tau, steps)

    def fn_inv(x):
        return implicit_midpoint(field, x, -tau, steps)

    def jac(x):
        return implicit_midpoint_with_jacobian(field, dfield, x, tau, steps)[1]

    def jac_inv(x):
        return implicit_midpoint_with_jacobian(field, dfield, x, -tau, steps)[1]

    fwd = SmoothMap(space, space, fn, jac=jac, name=f"bump-flow({eps},{tau})", symplectic=True)
    fwd.inverse = SmoothMap(
        space, space, fn_inv, jac=jac_inv,
        name=f"bump-flow({eps},{-tau})", symplectic=True, inverse=fwd,
    )
    return fwd


# ---------------------------------------------------------------------------
# chains of invariant circles
# ---------------------------------------------------------------------------

@dataclass
class ChainLink:
    map_tag: int  # 1: plain twist circles {I=c}; 2: sheared circles
    level: float
    crossing: np.ndarray | None  # transversal crossing point to the next link
    crossing_angle: float | None


@dataclass
class ToriChain:
    links: list[ChainLink]
    entry: np.ndarray  # point of link 0 meeting U
    exit: np.ndarray   # point of the last link meeting V

    def __len__(self) -> int:
        return len(self.links)


def chain_of_tori_search(
    twist: SmoothMap,
    shear: SmoothMap,
    shear_eps: float,
    shear_phase: float,
    U: Box,
    V: Box,
    level_grid: float,
) -> ToriChain:
    """Breadth-first chain through the bipartite crossing graph.

    Nodes are twist circles {I = c} and sheared circles (images of {I = c}
    under the conjugacy); two circles of different families cross
    transversally iff their levels differ by less than the shear amplitude,
    with the crossing angle bounded away from zero by a 15 % margin.
    """
    space = twist.domain
    factor = space.factors[0]
    period = factor.period if isinstance(factor, Circle) else None
    if isinstance(factor, Interval):
        levels = np.arange(factor.lo + level_grid, factor.hi, level_grid)
    else:
        levels = np.arange(0.0, factor.period, level_grid)
    reach_eps = shear_eps * (1.0 - 0.15)

    def crossing_point(c1: float, c2: float) -> tuple[np.ndarray, float] | None:
        # {I = c1} meets the sheared circle of level c2 where
        # c1 = c2 + eps cos(2 pi (theta + phase))
        if period is not None:
            delta = (c1 - c2 + period / 2) % period - period / 2
        else:
            delta = c1 - c2
        if abs(delta) >= reach_eps:
            return None
        u = delta / shear_eps
        th = np.arccos(u) / (2 * pi) - shear_phase
        angle = abs(sin(np.arccos(u)))
        return np.array([c1, th % 1.0]), float(angle)

    def meets_box(tag: int, c: float, box: Box) -> np.ndarray | None:
        if tag == 1:
            inside = box.lo[0] <= c <= box.hi[0]
            if period is not None:
                inside = inside or box.lo[0] <= c + period <= box.hi[0]
            if inside:
                return np.array([c, 0.5 * (box.lo[1] + box.hi[1]) % 1.0])
            return None
        ths = np.linspace(box.lo[1], box.hi[1], 32)
        rs = c + shear_eps * np.cos(2 * pi * (ths + shear_phase))
        ok = (rs >= box.lo[0]) & (rs <= box.hi[0])
        if np.any(ok):
            i = int(np.argmax(ok))
            return np.array([rs[i], ths[i] % 1.0])
        return None

    # bipartite BFS over (tag, level index)
    n = len(levels)
    start_nodes = []
    for tag in (1, 2):
        for i, c in enumerate(levels):
            if meets_box(tag, c, U) is not None:
                start_nodes.append((tag, i))
    prev: dict[tuple[int, int], tuple[int, int] | None] = {s: None for s in start_nodes}
    queue = list(start_nodes)
    goal = None
    while queue and goal is None:
        node = queue.pop(0)
        tag, i = node
        if meets_box(tag, levels[i], V) is not None:
            goal = node
            break
        other = 2 if tag == 1 else 1
        for j in range(n):
            nxt = (other, j)
            if nxt in prev:
                continue
            c_twist = levels[i] if tag == 1 else levels[j]
            c_shear = levels[j] if tag == 1 else levels[i]
            if crossing_point(c_twist, c_shear) is None:
                continue
            prev[nxt] = node
            queue.append(nxt)
    if goal is None:
        raise NoChain("no chain of crossing circles connects U to V on this grid")

    path = []
    node = goal
    while node is not None:
        path.append(node)
        node = prev[node]
    path.reverse()

    links = []
    for idx, (tag, i) in enumerate(path):
        crossing = None
        angle = None
        if idx + 1 < len(path):
            tag2, j = path[idx + 1]
            c_twist = levels[i] if tag == 1 else levels[j]
            c_shear = levels[j] if tag == 1 else levels[i]
            crossing, angle = crossing_point(c_twist, c_shear)
        links.append(
            ChainLink(map_tag=tag, level=float(levels[i]), crossing=crossing, crossing_angle=angle)
        )
    entry = meets_box(path[0][0], levels[path[0][1]], U)
    exit_ = meets_box(goal[0], levels[goal[1]], V)
    return ToriChain(links=links, entry=entry, exit=exit_)


def shadow_chain(
    pack: list[SmoothMap],
    chain: ToriChain,
    start,
    eps: float,
    horizon: int | None = None,
) -> tuple[int, ...]:
    """Word of generator indices whose orbit visits every transition ball.

    Along each link the orbit rotates on its own invariant circle of the
    active map, so iterating that map until the orbit enters the eps-ball of
    the stored crossing point advances the chain; the final block targets
    the chain's exit point. The horizon bounds each block's length; three
    gap lengths of the rotation plus slack suffice for irrational-like
    rotation numbers at grid precision.
    """
    horizon = horizon if horizon is not None else int(ceil(3.0 / eps)) + 200
    p = np.asarray(start, dtype=float).copy()
    word: list[int] = []
    space = pack[0].domain
    targets = [l.crossing for l in chain.links[:-1]] + [chain.exit]
    for link, target in zip(chain.links, targets):
        g = pack[link.map_tag - 1]
        n = 0
        while space.distance(p, target) >= eps:
            p = g(p)
            word.append(link.map_tag - 1)
            n += 1
            if n > horizon:
                raise HorizonExhausted(
                    f"block on level {link.level} exceeded {horizon} iterations"
                )
    return tuple(word)


def minimal_generator_pack(
    twist: SmoothMap,
    count_mode: str = "three",
    seed: int = 0,
    amplitude: float = 0.11,
) -> list[SmoothMap]:
    """The twist together with companions built from random-phase shears.

    count_mode "paper_m" returns dim + 2 conjugate generators, "three"
    returns 3; either way the companions preserve sheared circles crossing
    the plain ones, so orbits climb between levels. count_mode "recurrent"
    instead composes the twist after each shear (the recurrent-map variant,
    which reports reachable fractions rather than demanding full coverage).
    """
    space = twist.domain
    m = space.dim + 2 if count_mode == "paper_m" else 3
    rng = np.random.default_rng(seed)
    gens = [twist]
    for j in range(m - 1):
        phase = float(rng.random())
        amp = amplitude * (1.0 + 0.3 * rng.random())
        sh = conjugating_shear(amp, space=space, phase=phase, name=f"shear{j}")
        if count_mode == "recurrent":
            g = compose(twist, sh, name=f"rec{j}")
        else:
            g = compose(sh, compose(twist, sh.inverse), name=f"conj{j}")
        g.symplectic = True
        gens.append(g)
    return gens
