"""Covering and well-distributed certificates for contracting IFSs.

Everything here works in the max metric, where balls are boxes: a cell sits
inside a generator image iff its pullback sits inside the region, which for
affine generators is decided exactly from the cell corners and for general
generators from a sampled subgrid plus Lipschitz slack. A certificate is
valid only when every cell gets a generator with strictly positive margin,
so the sampled checks cover the continuum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import LambdaOutOfRange, NoMetadata, StepLimit, Uncovered
from .ifs import IFS, GeneratorBank, Word, apply_word
from .maps import SmoothMap
from .spaces import Box

INSIDE_TOL = 1e-12


# ---------------------------------------------------------------------------
# unit-ball covering oracle
# ---------------------------------------------------------------------------

def cover_unit_ball(n: int, r: float) -> np.ndarray:
    """Centers of radius-r max-metric balls covering the closed unit ball.

    Grid construction followed by a greedy drop pass: a center is removed
    when corner and center probes stay covered without it. For the max
    metric the per-axis count ceil(1/r) is already minimal, so the drop
    pass is a verification rather than an optimization.
    """
    if not 0 < r:
        raise ValueError("cover radius must be positive")
    m = max(1, int(math.ceil(1.0 / r - 1e-12)))
    side = 2.0 / m
    axis = -1.0 + side * (np.arange(m) + 0.5)
    mesh = np.meshgrid(*([axis] * n), indexing="ij")
    centers = np.stack([g.ravel() for g in mesh], axis=-1)

    corner_axis = -1.0 + side * np.arange(m + 1)
    mesh = np.meshgrid(*([corner_axis] * n), indexing="ij")
    probes = np.concatenate(
        [centers, np.stack([g.ravel() for g in mesh], axis=-1)], axis=0
    )

    if len(centers) > 1:
        tree = cKDTree(centers)
        second, _ = tree.query(centers, k=2, p=np.inf)
        if np.min(second[:, 1]) > r + INSIDE_TOL:
            pass  # every center privately covers its own point: nothing droppable
        else:
            keep = np.ones(len(centers), dtype=bool)
            for i in range(len(centers)):
                keep[i] = False
                others = centers[keep]
                if len(others) == 0:
                    keep[i] = True
                    continue
                dmax, _ = cKDTree(others).query(probes, k=1, p=np.inf)
                if np.max(dmax) > r + INSIDE_TOL:
                    keep[i] = True
            centers = centers[keep]

    # final verification: probes all covered
    tree = cKDTree(centers)
    dmax, _ = tree.query(probes, k=1, p=np.inf)
    assert np.max(dmax) <= r + 1e-9, "cover oracle failed self-check"
    return centers


def translation_count(n: int, lam: float) -> int:
    """Generator count 2*k1 + 1 of construct_translations (phi included)."""
    return 2 * len(cover_unit_ball(n, lam / 4.0)) + 1


# ---------------------------------------------------------------------------
# image-inclusion oracle
# ---------------------------------------------------------------------------

def _is_diagonal(A: np.ndarray) -> bool:
    return np.array_equal(A, np.diag(np.diag(A))) and np.all(np.diag(A) > 0)


def _diag_image_box(gen: SmoothMap, source: Box) -> tuple[np.ndarray, np.ndarray] | None:
    """Exact image box of the source under positive-diagonal affine maps."""
    if gen.affine is None:
        return None
    A, b = gen.affine
    if not _is_diagonal(A):
        return None
    a = np.diag(A)
    return source.lo * a + b, source.hi * a + b


def _slack(
    gen: SmoothMap, source: Box, lo: np.ndarray, hi: np.ndarray, bind: Box | None
) -> np.ndarray:
    """Certified slack of every box [lo[i], hi[i]] inside gen(source).

    lo and hi have shape (m, n); positive slack certifies the inclusion.
    Positive-diagonal affine generators: exact distance to the image box
    sides; sides that reach the boundary of bind do not bind (the inclusion
    is of box-intersect-bind, per the relative-ball convention), and every
    side binds when bind is None. Other generators: clearance in the source
    of pulled-back points, exact from the 2^n corners for affine maps, else
    from a 3-per-axis subgrid minus half the sample gap over lam. The gap is
    read from the first box: boxes of one batch share their sides, as grid
    cells do. A degenerate box is its own single sample.
    """
    image = _diag_image_box(gen, source)
    if image is not None:
        img_lo, img_hi = image
        if bind is None:
            s_lo, s_hi = lo - img_lo, img_hi - hi
        else:
            s_lo = np.where(img_lo > bind.lo + INSIDE_TOL, lo - img_lo, np.inf)
            s_hi = np.where(img_hi < bind.hi - INSIDE_TOL, img_hi - hi, np.inf)
        return np.minimum(s_lo, s_hi).min(axis=-1)
    if gen.affine is None and gen.lam is None:
        raise NoMetadata(f"{gen.name}: contraction bound needed for inclusion check")
    m, n = lo.shape
    per_axis = 1 if np.array_equal(lo, hi) else 2 if gen.affine is not None else 3
    axes = np.linspace(lo, hi, per_axis, axis=1)  # (m, per_axis, n)
    pick = np.indices((per_axis,) * n).reshape(n, -1).T  # subgrid, last axis fastest
    pts = axes[:, pick, np.arange(n)].reshape(-1, n)
    clear = source.clearance(gen.invert(pts)).reshape(m, -1).min(axis=1)
    if gen.affine is not None:
        return clear
    half_gap = float(np.max((hi[0] - lo[0]) / 2)) / 2.0
    return clear - half_gap / gen.lam


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
    margin: float  # least slack of the assigned generators
    lam: float
    lip: float
    d_value: float | None = None
    well_distributed: bool | None = None
    wd_witness: np.ndarray | None = None

    @property
    def valid(self) -> bool:
        return self.margin > 0

    def cell_of(self, x) -> int:
        x = np.asarray(x, dtype=float)
        idx = np.floor((x - self.region.lo) / self.axis_steps).astype(int)
        idx = np.clip(idx, 0, self.axis_counts - 1)
        flat = 0
        for a in range(len(idx)):
            flat = flat * self.axis_counts[a] + idx[a]
        return int(flat)

    def assign(self, x) -> int:
        """Covering generator for the cell containing x."""
        return int(self.assignment[self.cell_of(x)])


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
    # second pass: tight (zero-slack) covers, e.g. images that split the
    # region along a shared edge; sampled checks cannot certify those
    for tight in (False, True):
        for gi, gen in enumerate(ifs.generators):
            todo = np.nonzero(assignment < 0)[0]
            if len(todo) == 0:
                break
            if tight and gen.affine is None:
                continue
            slack = _slack(gen, src_region, lo[todo], hi[todo], bind=region)
            hit = slack >= -INSIDE_TOL if tight else slack > INSIDE_TOL
            assignment[todo[hit]] = gi
            margins[todo[hit]] = np.maximum(slack[hit], 0.0) if tight else slack[hit]

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
        margin=float(margins.min()),
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
    for gen in ifs.generators:
        rho = np.maximum(_slack(gen, src_region, pts, pts, bind), 0.0)
        if _diag_image_box(gen, src_region) is None:
            # inverse-Lipschitz bound: B_rho(x) sits inside gen(src_region)
            # whenever rho <= lam * clearance of the pulled-back point, with
            # lam the max-metric bound; for affine maps 1/||A^-1||_inf, as the
            # declared lam comes from (Euclidean) singular values
            lam = gen.lam
            if gen.affine is not None:
                lam = 1.0 / float(np.abs(np.linalg.inv(gen.affine[0])).sum(axis=1).max())
            rho = lam * rho
        best = np.maximum(best, rho)

    d = float(best.min()) - grid_step / 2.0
    if d <= 0:
        raise Uncovered("no positive inner radius on the grid", witness=None)
    cert.d_value = d
    return d


def verify_well_distributed(
    ifs: IFS,
    region: Box,
    d: float,
    refine: float = 8.0,
) -> tuple[bool, np.ndarray | None]:
    """Every ball of diameter d centered at a grid point of the region must
    contain a generator fixed point. Returns (flag, witness center or None).

    The grid is refined to d/refine. The ball diameter is d as stated, i.e.
    radius d/2 (not radius d; the two readings differ by a factor of two and
    this implementation takes the stricter one).
    """
    fps = ifs.fixed_point_array()
    if len(fps) == 0:
        return False, region.center
    centers = region.grid(d / refine)
    tree = cKDTree(fps)
    dist, _ = tree.query(centers, k=1, p=np.inf)
    bad = dist >= d / 2.0
    if np.any(bad):
        return False, centers[int(np.nonzero(bad)[0][0])]
    return True, None


# ---------------------------------------------------------------------------
# translated-contraction construction
# ---------------------------------------------------------------------------

def translate_map(phi: SmoothMap, c: np.ndarray, name: str) -> SmoothMap:
    """phi + c, inheriting bounds; inverse is y -> phi^-1(y - c)."""
    c = np.asarray(c, dtype=float)
    out = SmoothMap(
        domain=phi.domain,
        codomain=phi.codomain,
        fn=lambda x: phi.fn(x) + c,
        jac=phi.jac,
        name=name,
        lam=phi.lam,
        lip=phi.lip,
        affine=None if phi.affine is None else (phi.affine[0], phi.affine[1] + c),
    )
    if phi.inverse is not None:
        base_inv = phi.inverse
        out.inverse = SmoothMap(
            domain=phi.codomain,
            codomain=phi.domain,
            fn=lambda y: base_inv.fn(y - c),
            jac=base_inv.jac,
            name=name + "^-1",
            lam=base_inv.lam,
            lip=base_inv.lip,
            affine=None
            if base_inv.affine is None
            else (base_inv.affine[0], base_inv.affine[1] - base_inv.affine[0] @ c),
            inverse=out,
        )
    return out


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
    gens = [phi] + [translate_map(phi, c, name=nm) for c, nm in zip(shifts, names)]

    region = Box.ball(space, origin, eps)
    bank = None
    if phi.affine is not None:
        A, b = phi.affine
        k = len(gens)
        bank = GeneratorBank(
            A=np.broadcast_to(A, (k, n, n)),
            b=np.broadcast_to(b, (k, n)),
            c=np.concatenate([np.full((1, n), -0.0), shifts]),
        )
    out = IFS(generators=gens, domain_region=region, bank=bank)
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


def _pullback_box(gen: SmoothMap, region: Box, box: Box) -> Box:
    """An inner box of gen^-1(box intersect gen(region)) intersect region.

    Positive-diagonal affine generators get the exact pullback; general
    generators get the inscribed ball around the pulled-back center, whose
    radius grows by at least 1/lip.
    """
    diag = _diag_image_box(gen, region)
    if diag is not None:
        img_lo, img_hi = diag
        a = np.diag(gen.affine[0])
        b = gen.affine[1]
        lo = (np.maximum(box.lo, img_lo) - b) / a
        hi = (np.minimum(box.hi, img_hi) - b) / a
        lo = np.maximum(lo, region.lo)
        hi = np.minimum(hi, region.hi)
        if np.any(hi < lo):
            raise StepLimit("pullback left the certified region")
        return Box(region.space, lo, hi)
    c = np.asarray(box.center, dtype=float)
    clear = float(box.clearance(c))
    pulled_c = gen.invert(c)
    rho = clear / gen.lip
    return Box.ball(region.space, pulled_c, rho).intersect(region)


def certify_density(
    ifs: IFS,
    seed,
    target: Box,
    max_steps: int,
    cert: CoveringCertificate,
) -> Word:
    """Word carrying the seed strictly inside the target ball.

    Backward construction: pull the target ball back through inverse
    generators chosen by the covering assignment of its center, the radius
    growing by at least 1/lip per step, until the pulled-back set either
    reaches the seed itself or surrounds a generator fixed point with room
    to spare; in the latter case a prefix of that generator contracts the
    seed into the slack. The returned word is replay-validated.
    """
    if cert is None:
        raise Uncovered("covering certificate required", witness=None)
    seed = np.asarray(seed, dtype=float)
    space = ifs.space
    region = cert.region
    fps = ifs.fixed_point_array()
    _, lip = ifs.contraction_bounds()

    def lands(word: Word) -> bool:
        landed = apply_word(ifs.generators, word, seed)
        return space.distance(landed, target.center) < target.radius

    lo = np.maximum(target.lo, region.lo)
    hi = np.minimum(target.hi, region.hi)
    if np.any(hi < lo):
        raise StepLimit("target ball lies outside the certified region")
    B = Box(space, lo, hi)
    word_rev: list[int] = []
    for _ in range(max_steps + 1):
        if B.contains(seed, tol=1e-12):
            word = tuple(reversed(word_rev))
            if lands(word):
                return word
        # fixed-point capture: needs enough clearance that the seed can be
        # contracted into it by repeating that generator
        clear = np.minimum(B.hi - fps, fps - B.lo).min(axis=1)
        zi = int(np.argmax(clear))
        if clear[zi] > 0.25 * B.radius:
            z = fps[zi]
            g = ifs.generators[zi]
            prefix: list[int] = []
            p = seed.copy()
            ok = True
            while space.distance(p, z) >= 0.9 * clear[zi]:
                if len(prefix) + len(word_rev) > max_steps:
                    ok = False
                    break
                p = g(p)
                prefix.append(zi)
            if ok:
                word = tuple(prefix) + tuple(reversed(word_rev))
                if lands(word):
                    return word
        if len(word_rev) >= max_steps:
            break
        gi = cert.assign(B.center)
        B = _pullback_box(ifs.generators[gi], region, B)
        word_rev.append(gi)
    raise StepLimit(f"no capture within {max_steps} pullback steps")


def density_step_bound(target_radius: float, region_diam: float, lip: float) -> int:
    """Analytic pullback-step bound log(diam/r)/log(1/lip), rounded up."""
    return int(math.ceil(math.log(region_diam / target_radius) / math.log(1.0 / lip))) + 1
