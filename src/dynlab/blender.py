"""Geometric blender models: horseshoe base times contracting/expanding fibers.

The model map is F(b, y[, z]) = (f(b), phi_i(y)[, psi_j(z)]) for b in the
i-th rectangle, where the expanding fiber is indexed by the symbol one step
ahead (j = rectangle of f(b)): the double model needs the next-symbol
dependence so that stable connections are free to pick their expanding
branch. Strips are product sets (a full stable or unstable base segment
times a fiber ball); verifying that a strip meets the unstable (resp.
stable) set of the distinguished fixed point reduces to a fiber density
word plus exact base bookkeeping, and every reported witness is certified
by replaying the word through the actual map, perturbed or not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .covering import (
    CoveringCertificate,
    certify_densities,
    compute_d,
    density_step_bound,
    verify_covering,
    verify_well_distributed,
)
from .errors import (
    DepthExhausted,
    DominationViolated,
    NotInvertible,
    RectanglesOverlap,
    StepLimit,
    Uncovered,
)
from .fixed_points import find_fixed_point
from .horseshoe import HorseshoeBase
from .ifs import _NEWTON_TOL, IFS, Word, apply_words, newton_rows
from .maps import SmoothMap, by_index
from .spaces import Box, StateSpace


@dataclass(eq=False)
class GeometricBlenderModel:
    base: HorseshoeBase
    fibers_cs: list[SmoothMap]
    region_cs: Box
    fibers_cu: list[SmoothMap] | None = None
    region_cu: Box | None = None
    symplectic: bool = False
    anchor: int = 0  # rectangle of the distinguished fixed point
    _map: SmoothMap | None = field(default=None, init=False, repr=False)
    _ifs_cs: IFS | None = field(default=None, init=False, repr=False)
    _ifs_cu: IFS | None = field(default=None, init=False, repr=False)

    @property
    def k(self) -> int:
        return self.base.n_rect

    @property
    def ny(self) -> int:
        return self.region_cs.space.dim

    @property
    def nz(self) -> int:
        return 0 if self.region_cu is None else self.region_cu.space.dim

    @property
    def dim(self) -> int:
        return 2 + self.ny + self.nz

    def product_space(self) -> StateSpace:
        factors = tuple(self.base.ambient.factors) + tuple(self.region_cs.space.factors)
        if self.region_cu is not None:
            factors = factors + tuple(self.region_cu.space.factors)
        return StateSpace(factors)

    def split(self, p):
        """Base, cs-fiber and cu-fiber (or None) columns of p as a batch of rows."""
        rows = np.asarray(p, dtype=float).reshape(-1, self.dim)
        b = rows[:, :2]
        y = rows[:, 2 : 2 + self.ny]
        z = rows[:, 2 + self.ny :] if self.nz else None
        return b, y, z

    def _rect_index(self, b) -> np.ndarray:
        """Rectangle index of each base row; the model is undefined in gaps."""
        i = self.base.rect_of(b)
        if np.any(i < 0):
            raise ValueError("model evaluated in a gap between rectangles")
        return i

    def eval(self, p) -> np.ndarray:
        b, y, z = self.split(p)
        i = self._rect_index(b)
        fb = self.base.apply(b, i)
        parts = [fb, by_index(self.fibers_cs, i, y, "raw")]
        if z is not None:
            j = self.base.nearest_rect(fb[:, 1])
            parts.append(by_index(self.fibers_cu, j, z, "raw"))
        return np.concatenate(parts, axis=-1).reshape(np.shape(p))

    def eval_inv(self, p) -> np.ndarray:
        b, y, z = self.split(p)
        i = self.base.col_of_s(b[:, 0])
        if np.any(i < 0):
            raise ValueError("model inverse evaluated outside image columns")
        parts = [self.base.apply_inv(b), by_index(self.fibers_cs, i, y, "invert")]
        if z is not None:
            j = self.base.nearest_rect(b[:, 1])
            parts.append(by_index(self.fibers_cu, j, z, "invert"))
        return np.concatenate(parts, axis=-1).reshape(np.shape(p))

    def jacobian(self, p) -> np.ndarray:
        """Block-diagonal Jacobian: the base rates, then each fiber's own."""
        b, y, z = self.split(p)
        i = self._rect_index(b)
        ny = self.ny
        J = np.zeros((len(b), self.dim, self.dim))
        J[:, 0, 0] = self.base.mu_ss
        J[:, 1, 1] = self.base.mu_uu
        J[:, 2 : 2 + ny, 2 : 2 + ny] = by_index(self.fibers_cs, i, y, "jacobian")
        if z is not None:
            j = self.base.nearest_rect(self.base.apply(b, i)[:, 1])
            J[:, 2 + ny :, 2 + ny :] = by_index(self.fibers_cu, j, z, "jacobian")
        return J.reshape(np.shape(p) + (self.dim,))

    def as_map(self) -> SmoothMap:
        """The model as one SmoothMap, built once per model."""
        if self._map is not None:
            return self._map
        space = self.product_space()
        fwd = SmoothMap(
            domain=space,
            codomain=space,
            fn=self.eval,
            jac=self.jacobian,
            name="blender-model",
            symplectic=self.symplectic,
        )
        fwd.inverse = SmoothMap(
            domain=space,
            codomain=space,
            fn=self.eval_inv,
            name="blender-model^-1",
            symplectic=self.symplectic,
            inverse=fwd,
        )
        self._map = fwd
        return fwd

    def fiber_ifs_cs(self) -> IFS:
        """The contracting fibers' IFS, built once per model, so its
        fixed-point records are solved once."""
        if self._ifs_cs is None:
            self._ifs_cs = IFS(list(self.fibers_cs), self.region_cs)
        return self._ifs_cs

    def fiber_ifs_cu_inverted(self) -> IFS:
        """The IFS of the expanding fibers' inverses, built once per model."""
        if self._ifs_cu is None:
            if self.fibers_cu is None:
                raise NotInvertible("model has no expanding fibers")
            for g in self.fibers_cu:
                if g.inverse is None:
                    raise NotInvertible(f"{g.name} lacks an inverse")
            self._ifs_cu = IFS([g.inverse for g in self.fibers_cu], self.region_cu)
        return self._ifs_cu

    def fixed_point(self) -> np.ndarray:
        """The anchor rectangle's fixed point: its base point and the anchor
        rows of the fiber IFSs' fixed-point records."""
        r = self.anchor
        parts = [self.base.fixed_point_base(r), self.fiber_ifs_cs().compute_fixed_points()[r].point]
        if self.fibers_cu is not None:
            parts.append(self.fiber_ifs_cu_inverted().compute_fixed_points()[r].point)
        return np.concatenate(parts)

    def region_full(self) -> Box:
        """The blender domain: all rectangles x fiber regions (u-hull)."""
        space = self.product_space()
        lo = [0.0, 0.0] + list(self.region_cs.lo)
        hi = [1.0, 1.0] + list(self.region_cs.hi)
        if self.region_cu is not None:
            lo += list(self.region_cu.lo)
            hi += list(self.region_cu.hi)
        return Box(space, np.array(lo), np.array(hi))


def build_geometric_model(
    base: HorseshoeBase,
    fibers_cs: list[SmoothMap],
    region_cs: Box,
    fibers_cu: list[SmoothMap] | None = None,
    region_cu: Box | None = None,
    symplectic: bool = False,
) -> GeometricBlenderModel:
    """Assemble and validate the product model.

    Checks rectangle disjointness and full crossing, the domination
    mu_ss < every fiber contraction bound, and (with the symplectic flag)
    that paired fibers compose to the identity.
    """
    if len(fibers_cs) != base.n_rect:
        raise ValueError("need one contracting fiber per rectangle")
    if fibers_cu is not None and len(fibers_cu) != base.n_rect:
        raise ValueError("need one expanding fiber per rectangle")
    markov = base.check_markov()
    if not markov["disjoint"]:
        raise RectanglesOverlap("rectangle closures are not pairwise disjoint")
    if not markov["full_crossing"]:
        raise RectanglesOverlap("images do not cross every rectangle fully")
    lams = [g.lam for g in fibers_cs]
    if any(v is None for v in lams):
        raise DominationViolated("fiber contraction bounds missing")
    if base.mu_ss >= min(lams) - 1e-12:
        raise DominationViolated(
            f"base contraction {base.mu_ss} is not stronger than fiber bound {min(lams)}"
        )
    if symplectic:
        if fibers_cu is None:
            raise NotInvertible("symplectic pairing needs expanding fibers")
        rng = np.random.default_rng(0)
        pts = region_cs.sample(rng, 16)
        for gs, gu in zip(fibers_cs, fibers_cu):
            if gu.inverse is None:
                raise NotInvertible(f"{gu.name} lacks an inverse")
            err = np.max(np.abs(gu.raw(gs.raw(pts)) - pts))
            if err > 1e-12:
                raise NotInvertible(
                    f"symplectic pairing violated: {gu.name} o {gs.name} != id ({err:.2e})"
                )
    return GeometricBlenderModel(
        base=base,
        fibers_cs=list(fibers_cs),
        region_cs=region_cs,
        fibers_cu=None if fibers_cu is None else list(fibers_cu),
        region_cu=region_cu,
        symplectic=symplectic,
    )


# ---------------------------------------------------------------------------
# covering conditions on the geometric model
# ---------------------------------------------------------------------------

_LEAF_SAMPLES = 200  # strong stable leaves sampled by verify_covering_geometric


def verify_covering_geometric(
    model: GeometricBlenderModel,
    grid_step: float,
) -> dict:
    """Covering and well-distribution for the model.

    The product structure reduces both conditions to the fiber IFS: a strong
    stable leaf through (b, y) meets the image of some rectangle piece iff y
    lies in some fiber image (full crossing handles the base). The reduction
    is verified directly on _LEAF_SAMPLES sampled leaves (seed 0), and the
    fiber certificates are returned for downstream use.
    """
    ifs = model.fiber_ifs_cs()
    cert = verify_covering(ifs, model.region_cs, grid_step)
    d = compute_d(ifs, model.region_cs, grid_step, cert)
    wd, witness = verify_well_distributed(ifs, model.region_cs, d)
    cert.well_distributed = wd
    cert.wd_witness = witness

    # a leaf {(s, u)} x {y} of rectangle r meets F(R_gi x D): the u-range
    # is full, the fiber goes through the image; r and u are drawn only to
    # keep the leaves' random stream
    rng = np.random.default_rng(0)
    ys = []
    for _ in range(_LEAF_SAMPLES):
        rng.integers(model.k)
        rng.random()
        ys.append(model.region_cs.sample(rng))
    y = np.array(ys)
    y_pull = by_index(model.fibers_cs, cert.assign(y), y, "invert")
    y_pull = y_pull[model.region_cs.contains(y_pull, tol=1e-9)]
    y_pull2 = by_index(model.fibers_cs, cert.assign(y_pull), y_pull, "invert")
    leaf_ok, iterate_ok = len(y_pull), int(np.count_nonzero(model.region_cs.contains(y_pull2, tol=1e-9)))

    out = {
        "fiber_cert": cert,
        "d_value": d,
        "well_distributed": wd,
        "wd_witness": witness,
        "leaf_condition_fraction": leaf_ok / _LEAF_SAMPLES,
        "iterated_condition_fraction": iterate_ok / _LEAF_SAMPLES,
        "reduction": "product structure: leaf conditions hold iff the fiber IFS covers",
        "pass": cert.valid and leaf_ok == _LEAF_SAMPLES and iterate_ok == _LEAF_SAMPLES,
    }
    if model.fibers_cu is not None:
        ifs_u = model.fiber_ifs_cu_inverted()
        cert_u = verify_covering(ifs_u, model.region_cu, grid_step)
        d_u = compute_d(ifs_u, model.region_cu, grid_step, cert_u)
        wd_u, wit_u = verify_well_distributed(ifs_u, model.region_cu, d_u)
        cert_u.well_distributed = wd_u
        cert_u.wd_witness = wit_u
        out["fiber_cert_cu"] = cert_u
        out["pass"] = out["pass"] and cert_u.valid
    return out


# ---------------------------------------------------------------------------
# strips and strip intersection
# ---------------------------------------------------------------------------

@dataclass
class Strip:
    """Product strip: a full base leaf of one rectangle times a fiber ball.

    kind "s": stable base segment {u = level} x fiber_ball in the cs factor
    (other_level pins the cu coordinate when present).
    kind "u": unstable base segment {s = level} x fiber_ball in the cu
    factor (other_level pins the cs coordinate).
    """

    kind: str
    rect: int
    level: float
    fiber_ball: Box
    other_level: np.ndarray | None = None


def sample_strips(
    model: GeometricBlenderModel,
    kind: str,
    count: int,
    min_radius: float,
    seed: int,
) -> list[Strip]:
    rng = np.random.default_rng(seed)
    strips = []
    region = model.region_cs if kind == "s" else model.region_cu
    other = model.region_cu if kind == "s" else model.region_cs
    for _ in range(count):
        r = int(rng.integers(model.k))
        if kind == "s":
            level = model.base.slab_lo[r] + rng.random() * model.base.height
        else:
            level = model.base.col_lo[r] + rng.random() * model.base.mu_ss
        radius = float(min_radius * (1.0 + rng.random()))
        pad = np.minimum(radius, (region.hi - region.lo) / 2.0)
        center = region.lo + pad + rng.random(region.space.dim) * (
            region.hi - region.lo - 2 * pad
        )
        strips.append(
            Strip(
                kind=kind,
                rect=r,
                level=level,
                fiber_ball=Box.ball(region.space, center, radius),
                other_level=None if other is None else other.sample(rng),
            )
        )
    return strips


def verify_strip_intersection(
    model: GeometricBlenderModel, strip: Strip, fiber_cert: CoveringCertificate, depth: int,
    eps: float, G: SmoothMap | None = None, fiber_cert_cu: CoveringCertificate | None = None,
) -> dict:
    """verify_strips on a batch of one strip."""
    return verify_strips(model, [strip], fiber_cert, depth, eps, G=G, fiber_cert_cu=fiber_cert_cu)[0]


def verify_strips(
    model: GeometricBlenderModel, strips: list[Strip], fiber_cert: CoveringCertificate, depth: int,
    eps: float, G: SmoothMap | None = None, fiber_cert_cu: CoveringCertificate | None = None,
) -> list[dict]:
    """Does each strip meet the invariant set's strong manifold through the
    fixed point? One result per strip: the witness word and the replay
    residuals.

    s-strips are tested against the unstable side: a fiber density word w
    with phi_w(q) inside the strip's ball is found by backward pullback,
    then the exact base point whose itinerary is w and whose u-coordinate
    lands on the strip's leaf is replayed forward through the (possibly
    perturbed) map. u-strips are tested against the stable side through the
    mirrored construction, with the word constrained to enter the strip's
    rectangle first.

    The fixed point is solved once per call, and every strip's cu-fiber
    start comes from one apply_words call through the inverse cu fibers. On
    a perturbed map every start still open is then re-shot by one stacked
    multiple-shooting Newton solve (_shoot); a strip whose orbit leaves its
    rectangles, does not verify within newton_rows' cap, or whose replay
    breaks the itinerary or misses its targets by more than 1e-5 gets the
    result "shooting found no orbit tracking the itinerary". Every start is
    replayed in one batch, each row along its own itinerary, and the replay
    decides the verdict: the maps evaluate a batch as its rows, so each row
    gets the bits it would alone.
    """
    Gmap = model.as_map() if G is None else G
    # the model's own map needs no continuation or shooting: its fixed point
    # and starts are exact
    exact = Gmap is model.as_map()
    P = model.fixed_point() if exact else find_fixed_point(Gmap, model.fixed_point()).point
    # the density words of each side's strips, in one lockstep call
    words: dict = {}  # strip index -> word or StepLimit
    sides = [("s", model.fiber_ifs_cs, P[2 : 2 + model.ny], fiber_cert)]
    if model.fibers_cu is not None and fiber_cert_cu is not None:
        sides.append(("u", model.fiber_ifs_cu_inverted, P[2 + model.ny :], fiber_cert_cu))
    for kind, ifs_of, seed, cert in sides:
        at = [n for n, strip in enumerate(strips) if strip.kind == kind]
        if at:
            balls = [strips[n].fiber_ball for n in at]
            words.update(zip(at, certify_densities(ifs_of(), seed, balls, depth, cert)))
    results: list[dict | None] = [None] * len(strips)
    opened = []  # (strip index, start without its cu-fiber columns, itinerary, cu word, cu point)
    for n, strip in enumerate(strips):
        out = _strip_start(model, P, strip, words.get(n), fiber_cert_cu, depth)
        if isinstance(out, dict):
            results[n] = out
        else:
            opened.append((n, *out))
    starts = [o[1] for o in opened]
    if opened and model.nz:
        # every start's cu-fiber columns in one call, through the inverse fibers
        Z = apply_words(model.fiber_ifs_cu_inverted().generators, [o[3] for o in opened], [o[4] for o in opened])
        starts = [np.concatenate([head, z]) for head, z in zip(starts, Z)]
    if not opened:
        return results
    lengths = np.array([len(o[2]) for o in opened])
    padded = np.full((len(opened), lengths.max()), _PAD)
    for row, o in enumerate(opened):
        padded[row, : lengths[row]] = o[2]
    starts = np.array(starts)
    free = [1, *range(2 + model.ny, model.dim)]
    targets = np.array([_target(model, P, strips[n], free) for n, *_ in opened])
    starts, verified = (starts, True) if exact else _shoot(model, Gmap, starts, padded, targets)
    steps, X = _replay(model.base, Gmap, starts, padded)
    # a shot start serves only if its forward replay follows the itinerary
    # and ends within 1e-5 of its targets
    verified = exact | (verified & (steps == lengths) & (np.abs(X[:, -1, free] - targets).max(axis=1) <= 1e-5))
    for (n, _, itinerary, _, _), start, ok, t, orbit in zip(opened, starts, verified, steps.tolist(), X):
        strip = strips[n]
        if not ok:
            results[n] = {"hit": False, "reason": "shooting found no orbit tracking the itinerary", "witness_word": itinerary}
        elif not exact and strip.kind == "u" and not strip.fiber_ball.contains(start[2 + model.ny :], tol=1e-12):
            results[n] = {"hit": False, "reason": "refined start left the strip's fiber ball", "witness_word": itinerary}
        else:
            results[n] = _strip_verdict(model, P, strip, start, itinerary, t, orbit[-1], eps)
    return results


def _strip_start(model, P, strip, word, fiber_cert_cu, depth) -> tuple | dict:
    """The strip's replay start without its cu-fiber columns, its itinerary,
    and the word of inverse cu fibers that carries the returned point to
    those columns; or its result when it is decided before any replay (no
    density word)."""
    base = model.base
    r0 = model.anchor
    ny = model.ny
    if strip.kind == "u":
        if model.fibers_cu is None:
            raise NotInvertible("u-strip test needs expanding fibers")
        if fiber_cert_cu is None:
            raise Uncovered("u-strip test needs the cu fiber certificate", None)
    if isinstance(word, StepLimit):
        # distinguish an under-budgeted search (diagnosable from the
        # contraction rate) from a genuine miss
        ifs_side = model.fiber_ifs_cs() if strip.kind == "s" else model.fiber_ifs_cu_inverted()
        region_side = model.region_cs if strip.kind == "s" else model.region_cu
        _, lip = ifs_side.contraction_bounds()
        bound = density_step_bound(max(strip.fiber_ball.radius, 1e-12), 2 * region_side.radius, lip) + 8
        if depth < bound and "outside the certified region" not in str(word):
            raise DepthExhausted(f"depth {depth} is below the analytic bound {bound}", depth_bound=bound) from word
        return {"hit": False, "reason": str(word), "witness_word": None}
    if strip.kind == "s":
        itinerary = word if word else (r0,)
        # start on the unstable set of P: s and cs-fiber at the fixed
        # point, u placed so the forward itinerary is the word and ends
        # on the strip's leaf, cu-fiber pulled back so it ends at the
        # strip's pinned level (expanding maps apply one symbol ahead,
        # ending with the strip's own rectangle, so the pullback runs the
        # inverses from that rectangle back)
        u0 = base.u_from_itinerary(itinerary, strip.level)
        head = np.array([P[0], u0, *P[2 : 2 + ny]], dtype=float)
        return head, itinerary, (strip.rect,) + tuple(reversed(itinerary[1:])), strip.other_level
    itinerary = (strip.rect,) + tuple(reversed(word))
    # start on the strip: s pinned at the strip level, u chosen so the
    # forward itinerary unwinds the word (next-symbol indexing makes the
    # expanding chain cancel it exactly) and then parks in the anchor
    # rectangle, where the cu fiber sits at the fixed point
    u0 = base.u_from_itinerary(itinerary, P[1])
    y_start = model.region_cs.center if strip.other_level is None else strip.other_level
    return np.concatenate([[strip.level, u0], np.atleast_1d(y_start)]), itinerary, word, P[2 + ny :]


def _strip_verdict(model, P, strip, start, itinerary: Word, t: int, p, eps: float) -> dict:
    """The strip's result from its replay: t itinerary steps followed,
    ending at p."""
    base = model.base
    ny = model.ny
    if t < len(itinerary):
        r = int(base.rect_of(p[:2]))
        return {
            "hit": False,
            "reason": f"itinerary broke at step {t}: rect {r} != {itinerary[t]}",
            "witness_word": itinerary,
        }

    if strip.kind == "s":
        final = p
        u_err = abs(final[1] - strip.level)
        fiber_pt = final[2 : 2 + ny]
        in_ball = strip.fiber_ball.contains(fiber_pt, tol=eps)
        excess = np.maximum(strip.fiber_ball.lo - fiber_pt, fiber_pt - strip.fiber_ball.hi)
        hit = u_err <= eps and bool(in_ball)
        residual = max(u_err, float(np.max(np.maximum(excess, 0.0))))
    else:
        # forward replay must return the cu fiber to the fixed point while
        # the start point sits on the strip; the base has already entered
        # the anchor rectangle, so the tail converges to P
        z_err = float(np.max(np.abs(p[2 + ny :] - P[2 + ny :])))
        u_err = 0.0 if int(base.rect_of(p[:2])) == model.anchor else np.inf
        on_strip = strip.fiber_ball.contains(start[2 + ny :], tol=1e-12)
        hit = z_err <= eps and u_err <= eps and bool(on_strip)
        residual = z_err

    return {
        "hit": hit,
        "witness_word": itinerary,
        "residual": float(residual),
        "depth": len(itinerary),
        "start": start,
        "final": p,
    }


_PAD = -2  # pads a word row past its end; rect_of gives -1 in gaps, never -2


def _replay(base: HorseshoeBase, Gmap: SmoothMap, P: np.ndarray, words: np.ndarray):
    """(k, X): the number of steps of its own word each row of P follows,
    and its orbit, X[r, t] the point row r holds after t steps. Row r
    follows words[r], padded with _PAD past the word's end; it stops at
    that end or at the first step whose rectangle breaks the word, before
    the map sees it, and holds its point from then on."""
    X = np.empty((len(P), words.shape[1] + 1, P.shape[-1]))
    X[:, 0] = P
    k = np.zeros(len(P), dtype=int)
    live = np.arange(len(P))
    for t in range(words.shape[1]):
        X[:, t + 1] = X[:, t]
        live = live[base.rect_of(X[live, t, :2]) == words[live, t]]
        if live.size:
            X[live, t + 1] = Gmap.raw(X[live, t])
            k[live] = t + 1
    return k, X


def _target(model, P, strip, free) -> np.ndarray:
    """The values of the free columns (u, then the cu fiber) at the end of
    the strip's orbit: its leaf and pinned cu level for an s-strip, the
    fixed point's for a u-strip."""
    if strip.kind == "u":
        return P[free]
    return np.array([strip.level, *(np.atleast_1d(strip.other_level) if model.nz else ())], dtype=float)


def _shoot(model, Gmap, starts, words, targets) -> tuple[np.ndarray, np.ndarray]:
    """Multiple shooting (Keller 1968; Stoer and Bulirsch, section 7.3): the
    starts re-shot on Gmap, and which of them verified.

    Perturbed base dynamics amplify start errors along the unstable
    directions, so each row's whole orbit x_0, ..., x_M is the unknown of
    one system, solved by newton_rows: x_{t+1} = Gmap(x_t) along its word,
    x_{t+1} = x_t past the word's end (_PAD), and x_M's u and cu-fiber
    columns equal to its targets. Only x_0's u and cu-fiber columns are
    unknowns, so its s and cs-fiber columns keep their bits. Newton starts
    from the model's own orbit of each start, and each step evaluates Gmap
    and its Jacobian once on every orbit point still on its word. A row
    with an orbit point outside its word's rectangle gets a NaN residual,
    so the map never sees that point (the model is undefined in gaps).
    """
    base, d = model.base, model.dim
    free = [1, *range(2 + model.ny, d)]
    nf = len(free)
    n, M = words.shape
    on = words >= 0
    # the Jacobian's constant entries: x_{t+1} in equation t, x_M's free
    # columns in the targets' rows; -DGmap(x_t) goes below the diagonal
    J0 = np.zeros((M * d + nf, nf + M * d))
    J0[np.arange(M * d), nf + np.arange(M * d)] = 1.0
    J0[M * d + np.arange(nf), nf + (M - 1) * d + np.array(free)] = 1.0
    t, a, b = np.ogrid[1:M, :d, :d]
    below = t * d + a, nf + (t - 1) * d + b

    def orbits(V, rows):
        X = np.empty((len(rows), M + 1, d))
        X[:, 0] = starts[rows]
        X[:, 0, free] = V[:, :nf]
        X[:, 1:] = V[:, nf:].reshape(len(rows), M, d)
        return X

    def raw(V, rows):
        X = orbits(V, rows)
        W = words[rows]
        left = (on[rows] & (base.rect_of(X[:, :-1, :2]) != W)).any(axis=1)
        step = on[rows] & ~left[:, None]
        image = X[:, :-1].copy()
        image[step] = Gmap.raw(X[:, :-1][step])
        F = np.concatenate([(X[:, 1:] - image).reshape(len(rows), -1), X[:, -1, free]], axis=1)
        F[left] = np.nan
        return F

    def jac(V, rows):
        X = orbits(V, rows)
        D = np.broadcast_to(np.eye(d), (len(rows), M, d, d)).copy()
        D[on[rows]] = Gmap.jacobian(X[:, :-1][on[rows]])
        J = np.broadcast_to(J0, (len(rows),) + J0.shape).copy()
        J[:, :d, :nf] = -D[:, 0][..., free]
        J[:, below[0], below[1]] = -D[:, 1:]
        return J

    _, X = _replay(base, model.as_map(), starts, words)
    V, res = newton_rows(
        raw, jac, np.concatenate([np.zeros((n, M * d)), targets], axis=1),
        np.concatenate([X[:, 0, free], X[:, 1:].reshape(n, -1)], axis=1),
    )
    shot = starts.copy()
    shot[:, free] = V[:, :nf]
    return shot, res < _NEWTON_TOL


def verify_double_blender(
    model: GeometricBlenderModel,
    strips_s: list[Strip],
    strips_u: list[Strip],
    fiber_cert: CoveringCertificate,
    fiber_cert_cu: CoveringCertificate,
    depth: int,
    eps: float,
    G: SmoothMap | None = None,
) -> dict:
    """Both strip directions: s-strips against the unstable side, u-strips
    against the stable side (through the inverse dynamics)."""
    results = verify_strips(model, list(strips_s) + list(strips_u), fiber_cert, depth, eps,
                            G=G, fiber_cert_cu=fiber_cert_cu)
    s_results, u_results = results[: len(strips_s)], results[len(strips_s) :]
    s_pass = all(r["hit"] for r in s_results)
    u_pass = all(r["hit"] for r in u_results)
    return {
        "pass": s_pass and u_pass,
        "s_hits": sum(r["hit"] for r in s_results),
        "u_hits": sum(r["hit"] for r in u_results),
        "s_results": s_results,
        "u_results": u_results,
    }


# ---------------------------------------------------------------------------
# cone fields
# ---------------------------------------------------------------------------

@dataclass
class ConeField:
    """Slope cones around coordinate blocks of the product space.

    Each entry maps a bundle name to (axes, aperture): the cone is the set
    of vectors v with |v_perp| <= aperture * |v_par|, par the given axes.
    """

    cones: dict[str, tuple[tuple[int, ...], float]]

    @classmethod
    def standard(cls, model: GeometricBlenderModel, aperture: float = 0.2) -> "ConeField":
        """Axis-aligned cones: ss and uu around the strongest directions, the
        center cones around the full stable (resp. unstable) sums, which is
        what derivative invariance requires."""
        ny, nz = model.ny, model.nz
        cones = {
            "ss": ((0,), aperture),
            "uu": ((1,), aperture),
            "s": ((0,) + tuple(range(2, 2 + ny)), aperture),
        }
        if nz:
            cones["u"] = ((1,) + tuple(range(2 + ny, 2 + ny + nz)), aperture)
        return cls(cones)


def verify_cone_invariance(
    model: GeometricBlenderModel,
    cones: ConeField,
    samples: int = 50,
    seed: int = 0,
    G: SmoothMap | None = None,
) -> dict:
    """Boundary rays of unstable-type cones must map strictly inside under
    DF, stable-type cones under DF^{-1}; reports the minimal margin over 8
    random rays per sample point."""
    rng = np.random.default_rng(seed)
    Gmap = model.as_map() if G is None else G
    dim = model.dim
    region = model.region_full()
    base = model.base

    def sample_point():
        while True:
            p = region.sample(rng)
            r = int(base.rect_of(p[:2]))
            if r >= 0:
                return p

    results = {}
    ok_all = True
    for name, (axes, kappa) in cones.cones.items():
        unstable_type = name in ("u", "uu")
        worst = np.inf
        perp_axes = tuple(a for a in range(dim) if a not in axes)
        for _ in range(samples):
            p = sample_point()
            J = Gmap.jacobian(p)
            if not unstable_type:
                q = Gmap.raw(p)
                if int(base.rect_of(q[:2])) < 0:
                    continue
                J = np.linalg.inv(J)
            for _ in range(8):
                v_par = rng.normal(size=len(axes))
                v_par /= max(np.max(np.abs(v_par)), 1e-300)
                v = np.zeros(dim)
                v[list(axes)] = v_par
                if perp_axes:
                    v_perp = rng.normal(size=len(perp_axes))
                    v_perp /= max(np.max(np.abs(v_perp)), 1e-300)
                    v[list(perp_axes)] = kappa * v_perp
                w = J @ v
                par = np.max(np.abs(w[list(axes)]))
                perp = np.max(np.abs(w[list(perp_axes)])) if perp_axes else 0.0
                worst = min(worst, kappa - perp / max(par, 1e-300))
        ok = worst > 0
        ok_all = ok_all and ok
        results[name] = {"margin": float(worst), "pass": bool(ok)}
    return {"pass": ok_all, "per_cone": results}
