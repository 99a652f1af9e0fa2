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
from .ifs import IFS, Word, apply_words
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

    The fixed point is solved once per call, every strip's cu-fiber start
    comes from one apply_words call through the inverse cu fibers, and
    every start still open is replayed in one batch, each row along its own
    itinerary: the maps evaluate a batch as its rows, so each row gets the
    bits it would alone.
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
    pending = []  # (strip index, start, itinerary)
    for (n, _, itinerary, _, _), start in zip(opened, starts):
        out = start if exact else _shoot_strip(model, Gmap, P, strips[n], start, itinerary)
        if isinstance(out, dict):
            results[n] = out
        else:
            pending.append((n, out, itinerary))
    if pending:
        words = np.full((len(pending), max(len(w) for _, _, w in pending)), _PAD)
        for row, (_, _, w) in enumerate(pending):
            words[row, : len(w)] = w
        steps, reached = _replay(model.base, Gmap, np.array([s for _, s, _ in pending]), words)
        for (n, start, itinerary), t, p in zip(pending, steps.tolist(), reached):
            results[n] = _strip_verdict(model, P, strips[n], start, itinerary, t, p, eps)
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


def _shoot_strip(model, Gmap, P, strip, start, itinerary) -> np.ndarray | dict:
    """The strip's start re-shot on the perturbed map Gmap, or its result
    when no shot orbit serves."""
    ny = model.ny
    # perturbed base dynamics amplify start errors along the unstable
    # direction; re-shoot the free coordinates so the replay tracks the
    # itinerary cylinders and meets its endpoint targets
    u_target = strip.level if strip.kind == "s" else P[1]
    z_target = None
    if model.nz:
        z_target = np.atleast_1d(strip.other_level) if strip.kind == "s" else P[2 + ny :]
    start = _shoot_start(model, Gmap, start, itinerary, u_target, z_target)
    if start is None:
        return {"hit": False, "reason": "shooting found no orbit tracking the itinerary", "witness_word": itinerary}
    if strip.kind == "u" and not strip.fiber_ball.contains(start[2 + ny :], tol=1e-12):
        return {"hit": False, "reason": "refined start left the strip's fiber ball", "witness_word": itinerary}
    return start


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
    """(k, Q): the number of steps of its own word each row of P follows,
    and the point it reached. Row r follows words[r], padded with _PAD past
    the word's end; it leaves the batch at that end or at the first step
    whose rectangle breaks the word, before the map sees it."""
    Q = np.array(P, dtype=float)
    k = np.zeros(len(Q), dtype=int)
    live = np.arange(len(Q))
    for t in range(words.shape[1]):
        live = live[base.rect_of(Q[live, :2]) == words[live, t]]
        if not live.size:
            break
        Q[live] = Gmap.raw(Q[live])
        k[live] = t + 1
    return k, Q


# Bisection budget of one solve, and the depth of the midpoint trees that
# spend it: one batched replay scores 2^depth - 1 nested midpoints.
_BISECT_STEPS = 90
_TREE_DEPTH = 6
_ABORT = -1  # decision code: the walk ends without a bracket


def _bisect_tree(a: float, b: float, decide):
    """Sequential bisection of [a, b], scored a tree at a time.

    decide(mids) returns one code per midpoint: 1 moves a up to it, 0
    moves b down to it, _ABORT ends the search with None. Each tree holds
    the 2^depth - 1 nested midpoints below the current bracket in heap
    order (children 2n + 1 below node n, 2n + 2 above), every one the same
    0.5 * (lo + hi) the sequential walk computes, so walking the tree by
    the decisions of its walked nodes retraces that walk exactly: it stops
    when a midpoint equals an end, after _BISECT_STEPS walked nodes in all,
    or at a walked _ABORT; codes of unwalked nodes are never read.
    """
    steps = 0
    while steps < _BISECT_STEPS:
        depth = min(_TREE_DEPTH, _BISECT_STEPS - steps)
        lo, hi = np.array([a]), np.array([b])
        levels = []
        for _ in range(depth):
            mid = 0.5 * (lo + hi)
            levels.append(mid)
            lo = np.stack([lo, mid], axis=-1).ravel()
            hi = np.stack([mid, hi], axis=-1).ravel()
        mids = np.concatenate(levels)
        codes = decide(mids)
        node = 0
        for _ in range(depth):
            mid = float(mids[node])
            if mid == a or mid == b:
                return a, b
            if codes[node] == _ABORT:
                return None
            if codes[node]:
                a, node = mid, 2 * node + 2
            else:
                b, node = mid, 2 * node + 1
        steps += depth
    return a, b


def _shoot_start(
    model: GeometricBlenderModel,
    Gmap: SmoothMap,
    guess: np.ndarray,
    itinerary: Word,
    u_target: float,
    z_target: np.ndarray | None,
) -> np.ndarray | None:
    """Adjust the u (and cu-fiber) start coordinates so the perturbed orbit
    follows the itinerary and hits its endpoint targets.

    Both coordinates enter their own constraint monotonically (expanding
    directions), so bisection inside the first cylinder converges; the
    weak cross-coupling through the perturbation is handled by up to three
    rounds of u then z. A round is a function of its input, so once one
    returns its input the later rounds would repeat it, and the loop ends.

    Each bisection runs to machine width (at most _BISECT_STEPS midpoints)
    as a bisection tree: one batched replay of the itinerary scores
    2^_TREE_DEPTH - 1 nested midpoints, and the walk through them takes
    exactly the sequential bisection's path, so the start is the same to
    the last bit at about a sixth of the replays. The bracket probes of
    each solve share one two-row replay. Returns None when no tracking
    orbit exists in the cylinder.
    """
    base = model.base
    ny = model.ny
    m = len(itinerary)
    word = np.asarray(itinerary)

    def replay_at(p0: np.ndarray, col: int, values: np.ndarray):
        """Replay copies of p0 with coordinate col set to each value."""
        P = np.repeat(p0[None], len(values), axis=0)
        P[:, col] = values
        return _replay(base, Gmap, P, np.broadcast_to(word, (len(P), m)))

    def u_scores(p0: np.ndarray, us: np.ndarray) -> np.ndarray:
        """Signed surrogates, increasing in the start u; 0 when on target.
        A row that broke the itinerary scores by its side of the center of
        the slab it missed."""
        k, Q = replay_at(p0, 1, us)
        missed = base.slab_lo[word[np.minimum(k, m - 1)]]
        center = 0.5 * (missed + (missed + base.height))
        return np.where(k < m, Q[:, 1] - center, Q[:, 1] - u_target)

    def solve_u(p0: np.ndarray) -> np.ndarray | None:
        sym = itinerary[0]
        lo, hi = base.slab_lo[sym], base.slab_lo[sym] + base.height
        # bisect to machine width: the expanding direction amplifies start
        # resolution by mu_uu per tracked step
        a, b = lo + 1e-12, hi - 1e-12
        flo, fhi = u_scores(p0, np.array([a, b]))
        if flo > 0 or fhi < 0:
            return None
        a, b = _bisect_tree(a, b, lambda us: (u_scores(p0, us) <= 0).astype(int))
        out = p0.copy()
        out[1] = 0.5 * (a + b)
        return out

    def solve_z(p0: np.ndarray) -> np.ndarray | None:
        if z_target is None or model.nz == 0:
            return p0
        # 1D cu fiber: bisect the start z against the final z target inside
        # a window around the current guess (far values derail the base
        # through the perturbation's coupling)
        z_guess = float(p0[2 + ny])

        def z_finals(zs: np.ndarray):
            """Final z offsets from the target, and which rows broke."""
            k, Q = replay_at(p0, 2 + ny, zs)
            return Q[:, 2 + ny] - z_target[0], k < m

        w = 1e-4
        bracket = None
        for _ in range(24):
            lo, hi = z_guess - w, z_guess + w
            (flo, fhi), broke = z_finals(np.array([lo, hi]))
            if not broke.any() and flo * fhi <= 0:
                bracket = (lo, hi, fhi > flo)
                break
            if broke.any():
                w *= 0.5  # window left the tracking tube
            else:
                w *= 2.0
            if w < 1e-14 or w > 10 * (model.region_cu.hi[0] - model.region_cu.lo[0]):
                break
        if bracket is None:
            f0, broke = z_finals(np.array([z_guess]))
            return p0 if not broke[0] and abs(f0[0]) < 1e-6 else None
        a, b, increasing = bracket

        def decide(zs: np.ndarray) -> np.ndarray:
            f, broke = z_finals(zs)
            return np.where(broke, _ABORT, (f <= 0) == increasing)

        ab = _bisect_tree(a, b, decide)
        if ab is None:
            return None
        out = p0.copy()
        out[2 + ny] = 0.5 * (ab[0] + ab[1])
        return out

    p0 = guess.copy()
    for _ in range(3):
        p0u = solve_u(p0)
        if p0u is None:
            return None
        p0z = solve_z(p0u)
        if p0z is None:
            return None
        if np.array_equal(p0z, p0):
            break  # a round that returns its input would repeat itself
        p0 = p0z
    k, Q = _replay(base, Gmap, p0[None], word[None])
    p = Q[0]
    if k[0] < m or abs(p[1] - u_target) > 1e-5:
        return None
    if z_target is not None and model.nz and abs(p[2 + ny] - z_target[0]) > 1e-5:
        return None
    return p0


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
