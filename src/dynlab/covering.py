"""Covering and well-distributed certificates for contracting IFSs.

Everything here works in the max metric, where balls are boxes: a cell sits
inside a generator image iff its pullback sits inside the region, which for
affine generators is decided exactly from the cell corners and for general
generators from a sampled subgrid plus Lipschitz slack. A certificate is
valid only when every cell gets a generator with strictly positive margin,
so the sampled checks cover the continuum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import LambdaOutOfRange, NoMetadata, StepLimit, Uncovered
from .ifs import IFS, GeneratorBank, Word, apply_words
from .maps import SmoothMap, by_index
from .spaces import Box

INSIDE_TOL = 1e-12


# ---------------------------------------------------------------------------
# unit-ball covering oracle
# ---------------------------------------------------------------------------

def cover_unit_ball(n: int, r: float) -> np.ndarray:
    """Centers of radius-r max-metric balls covering the closed unit ball.

    A grid of m = ceil(1/r) centers per axis, the minimal count for the max
    metric: no center can be dropped, as grid neighbours lie 2/m > r apart
    whenever m > 1. The centers and cell corners are checked to be covered.
    """
    if not 0 < r:
        raise ValueError("cover radius must be positive")
    m = max(1, int(math.ceil(1.0 / r - 1e-12)))
    side = 2.0 / m
    axis = -1.0 + side * (np.arange(m) + 0.5)
    mesh = np.meshgrid(*([axis] * n), indexing="ij")
    centers = np.stack([g.ravel() for g in mesh], axis=-1)

    # final verification: the centers and corners are all covered. Both are
    # product grids, so a probe's max-metric distance to the nearest center
    # is the largest over its axes of the distance to the nearest axis value
    probe_axis = np.concatenate([axis, -1.0 + side * np.arange(m + 1)])
    dmax = np.min(np.abs(probe_axis[:, None] - axis), axis=1)
    assert np.max(dmax) <= r + 1e-9, "cover oracle failed self-check"
    return centers


def translation_count(n: int, lam: float) -> int:
    """Generator count 2*k1 + 1 of construct_translations (phi included)."""
    return 2 * len(cover_unit_ball(n, lam / 4.0)) + 1


# ---------------------------------------------------------------------------
# image-inclusion oracle
# ---------------------------------------------------------------------------

def _diag_image_boxes(gens: list[SmoothMap], source: Box) -> tuple[np.ndarray, ...] | None:
    """Exact image boxes (lo, hi) of the source under positive-diagonal
    affine generators, followed by their diagonals a and offsets b, all
    (len(gens), n); None unless every generator is such."""
    if any(g.affine is None for g in gens):
        return None
    A = np.array([g.affine[0] for g in gens])
    b = np.array([g.affine[1] for g in gens])
    a = np.diagonal(A, axis1=1, axis2=2)
    if not (np.array_equal(A, np.where(np.eye(A.shape[-1], dtype=bool), A, 0.0)) and np.all(a > 0)):
        return None
    return source.lo * a + b, source.hi * a + b, a, b


def _slack(
    ifs: IFS, gi: np.ndarray, source: Box, lo: np.ndarray, hi: np.ndarray, bind: Box | None
) -> np.ndarray:
    """Certified slack of every box [lo[j], hi[j]] inside generator gi[j]'s
    image of the source.

    lo and hi have shape (m, n); positive slack certifies the inclusion. The
    boxes' generators are one generator, or rows of the IFS's bank, so they
    are of one kind. Positive-diagonal affine generators: exact distance to
    the image box sides; sides that reach the boundary of bind do not bind
    (the inclusion is of box-intersect-bind, per the relative-ball
    convention), and every side binds when bind is None. Other generators:
    clearance in the source of pulled-back points, exact from the 2^n
    corners for affine maps, else from a 3-per-axis subgrid minus half the
    sample gap over lam. The gap is read from the first box: boxes of one
    batch share their sides, as grid cells do. A degenerate box is its own
    single sample.
    """
    gens = ifs.generators
    use, at = np.unique(gi, return_inverse=True)
    gen = gens[use[0]]
    image = _diag_image_boxes([gens[g] for g in use], source)
    if image is not None:
        img_lo, img_hi = image[0][at], image[1][at]
        if bind is None:
            s_lo, s_hi = lo - img_lo, img_hi - hi
        else:
            s_lo = np.where(img_lo > bind.lo + INSIDE_TOL, lo - img_lo, np.inf)
            s_hi = np.where(img_hi < bind.hi - INSIDE_TOL, img_hi - hi, np.inf)
        return np.minimum(s_lo, s_hi).min(axis=-1)
    lams = [gens[g].lam for g in use]
    if gen.affine is None and None in lams:
        raise NoMetadata(f"{gen.name}: contraction bound needed for inclusion check")
    m, n = lo.shape
    per_axis = 1 if np.array_equal(lo, hi) else 2 if gen.affine is not None else 3
    axes = np.linspace(lo, hi, per_axis, axis=1)  # (m, per_axis, n)
    pick = np.indices((per_axis,) * n).reshape(n, -1).T  # subgrid, last axis fastest
    pts = axes[:, pick, np.arange(n)].reshape(-1, n)
    pre = _pull_back(ifs, np.repeat(gi, len(pick)), pts)
    clear = source.clearance(pre).reshape(m, -1).min(axis=1)
    if gen.affine is not None:
        return clear
    half_gap = float(np.max((hi[0] - lo[0]) / 2)) / 2.0
    return clear - half_gap / np.array(lams)[at]


def _stacked(ifs: IFS) -> GeneratorBank | None:
    """The IFS's bank when it can pull back rows of mixed generators in one
    call (its phi has an inverse), else None."""
    bank = ifs.bank
    return bank if bank is not None and bank.phi.inverse is not None else None


def _pull_back(ifs: IFS, gi: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """generators[gi[j]].invert(pts[j]), with the checks of maps.evaluate:
    one bank.invert call with a stacked bank, else the one generator's
    invert."""
    if _stacked(ifs) is None:
        return ifs.generators[gi[0]].invert(pts)
    space = ifs.space
    pts = space.canonicalize(pts)
    space.check_inside(pts)
    return space.canonicalize(ifs.bank.invert(pts, gi))


def _candidates(
    ifs: IFS, source: Box, lo: np.ndarray, hi: np.ndarray, bind: Box | None
) -> tuple[np.ndarray, np.ndarray]:
    """(generator, box) index pairs that may hold box j inside generator i's
    image of the source, generator-major with boxes ascending.

    Every pair, unless the IFS has a stacked bank with an enclosure (an
    affine phi, A its linear part). Then the rows whose enclosure of the
    source holds the box once widened by INSIDE_TOL (1 + ||A||_inf); an
    enclosure side that reaches bind does not bind, as in _slack. A box
    with slack above -INSIDE_TOL sticks out of the image by at most
    INSIDE_TOL (an exact side) or ||A||_inf INSIDE_TOL (a pulled-back
    corner), plus the inverse's residual below 1e-13, so no pair that
    _slack could accept is left out.
    """
    k, m = ifs.k, len(lo)
    bank = _stacked(ifs)
    enclosure = None if bank is None else bank.enclosure(source)
    if enclosure is None:
        return np.repeat(np.arange(k), m), np.tile(np.arange(m), k)
    e_lo, e_hi = enclosure
    if bind is not None:
        e_lo = np.where(e_lo > bind.lo + INSIDE_TOL, e_lo, -np.inf)
        e_hi = np.where(e_hi < bind.hi - INSIDE_TOL, e_hi, np.inf)
    widen = INSIDE_TOL * (1.0 + np.abs(bank.phi.affine[0]).sum(axis=1).max())
    e_lo, e_hi = e_lo - widen, e_hi + widen
    lo_t, hi_t = np.ascontiguousarray(lo.T), np.ascontiguousarray(hi.T)
    gi, box = [], []
    block = max(1, 2**20 // m)  # generators per block, to bound the temporaries
    for s in range(0, k, block):
        inside = ((lo_t >= e_lo[s:s + block, :, None]) & (hi_t <= e_hi[s:s + block, :, None])).all(axis=1)
        g, b = np.nonzero(inside)
        gi.append(g + s)
        box.append(b)
    return np.concatenate(gi), np.concatenate(box)


# ---------------------------------------------------------------------------
# covering certificate
# ---------------------------------------------------------------------------

@dataclass
class CoveringCertificate:
    region: Box
    grid_step: float
    axis_counts: np.ndarray
    axis_steps: np.ndarray
    assignment: np.ndarray  # generator index per cell, C-order over the axis grid
    margins: np.ndarray  # slack of each cell's assigned generator (0 for tight covers)
    lam: float
    lip: float
    d_value: float | None = None
    well_distributed: bool | None = None
    wd_witness: np.ndarray | None = None

    @property
    def margin(self) -> float:
        """Least slack of the assigned generators."""
        return float(self.margins.min())

    @property
    def valid(self) -> bool:
        return self.margin > 0

    def cell_of(self, x) -> int | np.ndarray:
        """C-order index of the grid cell holding x (clamped), per row of (m, n) points."""
        x = np.asarray(x, dtype=float)
        idx = np.floor((x - self.region.lo) / self.axis_steps).astype(int)
        idx = np.clip(idx, 0, self.axis_counts - 1)
        flat = idx[..., 0]
        for a in range(1, len(self.axis_counts)):
            flat = flat * self.axis_counts[a] + idx[..., a]
        return int(flat) if np.ndim(flat) == 0 else flat

    def assign(self, x) -> int | np.ndarray:
        """Covering generator for the cell containing x, per row of (m, n) points."""
        gi = self.assignment[self.cell_of(x)]
        return int(gi) if np.ndim(gi) == 0 else gi


def verify_covering(
    ifs: IFS, region: Box, grid_step: float, image_region: Box | None = None
) -> CoveringCertificate:
    """Certify region subset of the union of generator images.

    Images are taken of image_region (the region itself by default, matching
    the covering property; a larger box realizes the degenerate single-image
    case).

    Each grid cell is assigned the lowest generator index whose image
    contains it with positive slack; cells with only boundary-tight covers
    (slack exactly zero, exact generators only) are still assigned but drag
    the certificate margin to zero. Uncovered, with a witness cell, if some
    cell fits in no image.
    """
    src_region = image_region if image_region is not None else region
    lam, lip = ifs.contraction_bounds()
    counts, steps = region.grid_axes(grid_step)
    centers = region.grid(grid_step)
    lo, hi = centers - steps / 2.0, centers + steps / 2.0
    assignment = np.full(len(centers), -1, dtype=int)
    margins = np.full(len(centers), -np.inf)
    gi, cell = _candidates(ifs, src_region, lo, hi, bind=region)
    order = np.argsort(cell, kind="stable")  # cell-major, generators ascending
    gi, cell = gi[order], cell[order]
    affine = np.array([g.affine is not None for g in ifs.generators])
    # second pass: tight (zero-slack) covers, e.g. images that split the
    # region along a shared edge; sampled checks cannot certify those
    for tight in (False, True):
        keep = assignment[cell] < 0
        if tight:
            keep &= affine[gi]
        g_try, c_try = gi[keep], cell[keep]
        more = np.append(c_try[1:] == c_try[:-1], False)  # the cell's next pair follows
        # waves: each unassigned cell tries its next candidate, in index
        # order; without a bank a wave is one generator on every such cell
        live = np.flatnonzero(np.diff(c_try, prepend=-1))
        while len(live):
            g, c = g_try[live], c_try[live]
            slack = _slack(ifs, g, src_region, lo[c], hi[c], bind=region)
            hit = slack >= -INSIDE_TOL if tight else slack > INSIDE_TOL
            assignment[c[hit]] = g[hit]
            margins[c[hit]] = np.maximum(slack[hit], 0.0) if tight else slack[hit]
            live = live[~hit]
            live = live[more[live]] + 1

    if np.any(assignment < 0):
        bad = int(np.nonzero(assignment < 0)[0][0])
        cell = Box(region.space, lo[bad], hi[bad])
        raise Uncovered(f"cell centered at {cell.center} is in no generator image", witness=cell)
    return CoveringCertificate(
        region=region,
        grid_step=grid_step,
        axis_counts=counts,
        axis_steps=steps,
        assignment=assignment,
        margins=margins,
        lam=lam,
        lip=lip,
    )


def compute_d(
    ifs: IFS,
    region: Box,
    grid_step: float,
    cert: CoveringCertificate | None = None,
    image_region: Box | None = None,
) -> float:
    """Lower bound on max{r | every x in region has B_r(x) inside some image}.

    Grid approximation from below: each grid point is a degenerate box whose
    slack bounds its best radius over generators, then the grid gap is
    subtracted (the radius function is 1-Lipschitz in x).
    """
    src_region = image_region if image_region is not None else region
    if cert is None:
        cert = verify_covering(ifs, region, grid_step, image_region=image_region)
    pts = region.grid(grid_step)
    # image sides on the region boundary do not bind only for the region's
    # own images; every side of a larger image region's image binds
    bind = region if image_region is None else None
    best = np.zeros(len(pts))
    # a point outside a generator's candidates has rho = 0; one _slack call
    # takes a stacked bank's pairs, one per generator otherwise
    gi, box = _candidates(ifs, src_region, pts, pts, bind)
    cuts = np.flatnonzero(np.diff(gi)) + 1 if _stacked(ifs) is None else []
    for part in np.split(np.arange(len(gi)), cuts):
        if not len(part):
            continue
        g, p = gi[part], box[part]
        rho = np.maximum(_slack(ifs, g, src_region, pts[p], pts[p], bind), 0.0)
        if _diag_image_boxes([ifs.generators[g[0]]], src_region) is None:
            # inverse-Lipschitz bound: B_rho(x) sits inside gen(src_region)
            # whenever rho <= lam * clearance of the pulled-back point
            use, at = np.unique(g, return_inverse=True)
            rho = np.array([ifs.generators[i].lam for i in use])[at] * rho
        np.maximum.at(best, p, rho)

    d = float(best.min()) - grid_step / 2.0
    if d <= 0:
        raise Uncovered("no positive inner radius on the grid", witness=None)
    cert.d_value = d
    return d


def verify_well_distributed(
    ifs: IFS,
    region: Box,
    d: float,
) -> tuple[bool, np.ndarray | None]:
    """Every ball of diameter d centered at a grid point of the region must
    contain a generator fixed point. Returns (flag, witness center or None).

    The grid has step d/8. The ball diameter is d as stated, i.e.
    radius d/2 (not radius d; the two readings differ by a factor of two and
    this implementation takes the stricter one).
    """
    fps = ifs.fixed_point_array()
    if len(fps) == 0:
        return False, region.center
    axes = region.grid_coords(d / 8.0)
    shape = tuple(len(a) for a in axes)
    # the centers a with |a - f| < d/2 on an axis are a window [lo, hi) of
    # its increasing coordinates, as |a - f| is monotone on either side of
    # f; a fixed point's ball holds the box of its windows
    windows = []
    for a, f in zip(axes, fps.T):
        near = np.abs(a[None, :] - f[:, None]) < d / 2.0
        lo = np.argmax(near, axis=1)
        windows.append((lo, lo + near.sum(axis=1)))
    # union of the boxes: +-1 at every box corner (an empty window's cancel),
    # then running sums over each axis
    marks = np.zeros(tuple(k + 1 for k in shape), dtype=np.int64)
    for corner in itertools.product((0, 1), repeat=len(axes)):
        at = tuple(w[c] for w, c in zip(windows, corner))
        np.add.at(marks, at, (-1) ** sum(corner))
    for axis in range(len(axes)):
        marks = np.cumsum(marks, axis=axis)
    bad = np.flatnonzero(marks[tuple(slice(k) for k in shape)] <= 0)
    if bad.size:
        at = np.unravel_index(bad[0], shape)
        return False, np.array([a[i] for a, i in zip(axes, at)])
    return True, None


# ---------------------------------------------------------------------------
# translated-contraction construction
# ---------------------------------------------------------------------------

def construct_translations(phi: SmoothMap, lam: float, eps: float) -> IFS:
    """Translated copies of a contraction fixing 0, certified on B_eps(0).

    The first k1 translations place images so that they cover the ball; the
    second k1 are (id - phi)(z_i) for grid points z_i, so each has z_i as
    its fixed point and the fixed points sit densely enough for the ball of
    diameter d to always catch one. Both batches share one grid of spacing
    eps*lam/2, which keeps the two counts equal.
    """
    if not 0.0 < lam < 1.0:
        raise LambdaOutOfRange(f"contraction bound must be in (0,1), got {lam}")
    if phi.lam is not None and lam > phi.lam + 1e-12:
        raise ValueError(
            f"declared bound {lam} exceeds the map's contraction bound {phi.lam}"
        )
    space = phi.domain
    n = space.dim
    origin = np.zeros(n)
    if float(np.max(np.abs(phi(origin)))) > 1e-9:
        raise ValueError("construct_translations expects phi(0) = 0")
    lip = phi.lip if phi.lip is not None else lam
    if lip + eps * (1.0 + lip) > 1.0 + 1e-12:
        raise ValueError(
            f"translated images would exit the unit domain: lip={lip}, eps={eps}"
        )

    centers = eps * cover_unit_ball(n, lam / 4.0)
    k1 = len(centers)
    # fixed point of phi + c is exactly z for c = z - phi(z)
    shifts = np.concatenate([centers, [z - phi(z) for z in centers]])
    names = [f"{phi.name}+c{i}" for i in range(k1)] + [f"{phi.name}+z{i}" for i in range(k1)]
    bank = GeneratorBank(phi, np.concatenate([np.full((1, n), -0.0), shifts]), (phi.name, *names))
    out = IFS(generators=bank.views(), domain_region=Box.ball(space, origin, eps), bank=bank)
    out.info = {"k1": k1, "eps": eps, "lam": lam, "grid": centers}
    return out


# ---------------------------------------------------------------------------
# backward itineraries and density words
# ---------------------------------------------------------------------------

def backward_itinerary(
    ifs: IFS, x, steps: int, cert: CoveringCertificate
) -> Word:
    """Word sigma with every partial inverse composition staying in the region.

    Each symbol comes from the covering assignment of the current cell, so
    the pullback of the point is guaranteed back inside the region.
    """
    p = np.asarray(x, dtype=float)
    if not cert.region.contains(p, tol=1e-9):
        raise Uncovered("point outside the certified region", witness=p)
    word = []
    for _ in range(steps):
        gi = cert.assign(p)
        p = ifs.generators[gi].invert(p)
        if not cert.region.contains(p, tol=1e-9):
            raise Uncovered("pullback escaped the region", witness=p)
        word.append(gi)
    return tuple(word)


def _pullback_boxes(
    gens: list[SmoothMap], gi: np.ndarray, region: Box, lo: np.ndarray, hi: np.ndarray, diag
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lo, hi, left): for each row j, an inner box of
    gens[gi[j]]^-1([lo[j], hi[j]] intersect gens[gi[j]](region)) intersect
    region, and whether it is empty (the pullback left the region).

    diag is _diag_image_boxes(gens, region). A family of positive-diagonal
    affine generators gets the exact pullback. Any other family gets the
    inscribed ball around the pulled-back center, whose radius grows by at
    least 1/lip; each generator present inverts its rows in one call.
    """
    if diag is not None:
        img_lo, img_hi, a, b = (v[gi] for v in diag)
        lo = np.maximum((np.maximum(lo, img_lo) - b) / a, region.lo)
        hi = np.minimum((np.minimum(hi, img_hi) - b) / a, region.hi)
    else:
        c = 0.5 * (lo + hi)
        rho = (np.minimum(c - lo, hi - c).min(axis=-1) / np.array([gens[i].lip for i in gi.tolist()]))[:, None]
        pulled = by_index(gens, gi, c, "invert")
        lo, hi = np.maximum(pulled - rho, region.lo), np.minimum(pulled + rho, region.hi)
    return lo, hi, (hi < lo).any(axis=-1)


def certify_densities(
    ifs: IFS, seed, targets: list[Box], max_steps: int, cert: CoveringCertificate
) -> list[Word | StepLimit]:
    """Word carrying the seed strictly inside each target ball, or the
    StepLimit that explains why there is none.

    Backward construction: pull the target ball back through inverse
    generators chosen by the covering assignment of its center, the radius
    growing by at least 1/lip per step, until the pulled-back set either
    reaches the seed itself or surrounds a generator fixed point with room
    to spare; in the latter case a prefix of that generator contracts the
    seed into the slack. Every returned word is replay-validated.

    The targets are pulled back in lockstep, one batched step for all; each
    gets its word alone, as the seed test, capture and replay are per row
    and the maps evaluate a batch as its rows.
    """
    if cert is None:
        raise Uncovered("covering certificate required", witness=None)
    seed = np.asarray(seed, dtype=float)
    space, gens = ifs.space, ifs.generators
    region = cert.region
    fps = ifs.fixed_point_array()
    ifs.contraction_bounds()  # NoMetadata without lam/lip bounds
    center = np.array([t.center for t in targets]).reshape(len(targets), space.dim)
    radius = np.array([t.radius for t in targets])
    lo = np.maximum([t.lo for t in targets], region.lo).reshape(center.shape)
    hi = np.minimum([t.hi for t in targets], region.hi).reshape(center.shape)
    outside = (hi < lo).any(axis=-1)
    out = [StepLimit("target ball lies outside the certified region") if o else None for o in outside.tolist()]
    # the live rows: their targets, boxes, pullback symbols so far, and
    # whether they are decided
    live = np.flatnonzero(~outside)
    lo, hi = lo[live], hi[live]
    symbols = np.zeros((len(live), max_steps), dtype=np.intp)
    done = np.zeros(len(live), dtype=bool)

    def settle(rows: np.ndarray, prefixes: list[Word]) -> None:
        """A row's word is its prefix + its pullback symbols, last first, if it lands."""
        words = [w + tuple(t) for w, t in zip(prefixes, symbols[rows, :step][:, ::-1].tolist())]
        j = live[rows]
        landed = space.distance(apply_words(gens, words, seed), center[j]) < radius[j]
        for i, w in zip(j[landed].tolist(), itertools.compress(words, landed)):
            out[i] = w
        done[rows[landed]] = True

    diag = _diag_image_boxes(gens, region)
    for step in range(max_steps + 1):
        inside = np.flatnonzero(~done & ((seed >= lo - 1e-12) & (seed <= hi + 1e-12)).all(axis=-1))
        if len(inside):
            settle(inside, [()] * len(inside))
        # fixed-point capture: needs enough clearance that the seed can be
        # contracted into it by repeating that generator
        clear = np.minimum(hi[:, None] - fps, fps - lo[:, None]).min(axis=-1)
        zi, room = clear.argmax(axis=1), clear.max(axis=1)
        cap = np.flatnonzero(~done & (room > 0.25 * (0.5 * (hi - lo).max(axis=-1))))
        if len(cap):
            # the prefixes, in lockstep: row cap[i] repeats zi until the
            # seed's image is within 0.9 room of its fixed point
            p, going, prefix = np.tile(seed, (len(cap), 1)), np.arange(len(cap)), np.zeros(len(cap), dtype=int)
            for k in itertools.count():
                going = going[space.distance(p[going], fps[zi[cap[going]]]) >= 0.9 * room[cap[going]]]
                if not len(going):
                    break
                if k + step > max_steps:
                    prefix[going] = -1
                    break
                p[going] = by_index(gens, zi[cap[going]], p[going], "__call__")
                prefix[going] += 1
            ok = prefix >= 0
            settle(cap[ok], [(int(z),) * int(k) for z, k in zip(zi[cap[ok]], prefix[ok])])
        if step == max_steps or done.all():
            break
        if done.any():
            live, lo, hi, symbols = live[~done], lo[~done], hi[~done], symbols[~done]
        gi = cert.assign(0.5 * (lo + hi))
        lo, hi, done = _pullback_boxes(gens, gi, region, lo, hi, diag)
        symbols[:, step] = gi
        for j in live[done].tolist():
            out[j] = StepLimit("pullback left the certified region")
    return [StepLimit(f"no capture within {max_steps} pullback steps") if w is None else w for w in out]


def certify_density(ifs: IFS, seed, target: Box, max_steps: int, cert: CoveringCertificate) -> Word:
    """certify_densities on a batch of one target; raises its StepLimit."""
    word = certify_densities(ifs, seed, [target], max_steps, cert)[0]
    if isinstance(word, StepLimit):
        raise word
    return word


def density_step_bound(target_radius: float, region_diam: float, lip: float) -> int:
    """Analytic pullback-step bound log(diam/r)/log(1/lip), rounded up."""
    return int(math.ceil(math.log(region_diam / target_radius) / math.log(1.0 / lip))) + 1
