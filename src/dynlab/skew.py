"""Locally constant skew products over full shifts.

The map is (x, y) -> (tau(x), phi_{x_0}(y)), optionally extended by an
expanding part (x, y, z) -> (tau(x), phi_{x_0}(y), psi_{x_1}(z)). Fiber maps
come as FiberMap objects that evaluate scalars or small vectors and, for
affine rational examples, exact Fractions; each also carries a SmoothMap
view so orbit machinery from the IFS engine applies unchanged.

Strong unstable sets of these maps enumerate exactly: the depth-n piece is
the union over words sigma of length n of local leaves whose fiber point is
obtained by pulling y back n-1 steps along the base's left tail and pushing
forward through sigma_1 ... sigma_{n-1}. The last symbol only relabels the
base.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import NotFixedPoint, NotInvertible
from .ifs import IFS, CellSet, ReachSet, Word, _explore, _root, forward_orbit
from .maps import SmoothMap, affine_map
from .shifts import ShiftPoint, insert_word
from .spaces import Box, StateSpace


@dataclass(eq=False)
class FiberMap:
    """Fiber homeomorphism with scalar/exact evaluation and a SmoothMap view."""

    smooth: SmoothMap
    apply: Callable  # y -> y, works on float or Fraction scalars/tuples
    apply_inv: Callable | None = None
    fixed: object | None = None  # known fixed point, exact when available

    @property
    def invertible(self) -> bool:
        return self.apply_inv is not None


def affine_fiber(space: StateSpace, a, b, name: str = "fiber") -> FiberMap:
    """1D affine fiber y -> a*y + b, exact on Fractions."""
    a_f, b_f = a, b

    def apply(y):
        return a_f * y + b_f

    def apply_inv(y):
        return (y - b_f) / a_f

    smooth = affine_map(space, [[float(a)]], [float(b)], name=name)
    fixed = b_f / (1 - a_f) if a_f != 1 else None
    return FiberMap(smooth=smooth, apply=apply, apply_inv=apply_inv, fixed=fixed)


def fiber_ifs(fibers: list[FiberMap], region: Box) -> IFS:
    return IFS([f.smooth for f in fibers], region)


@dataclass(eq=False)
class SkewProduct:
    """d-symbol full shift base with per-symbol fiber maps.

    contracting: phi_1..phi_d applied by the symbol at index 0.
    expanding: optional psi_1..psi_d applied by the symbol at index 1; their
    inverses must be contracting for the double model.
    """

    d: int
    fiber_space: StateSpace
    contracting: list[FiberMap]
    expanding: list[FiberMap] | None = None

    def __post_init__(self):
        if len(self.contracting) != self.d:
            raise ValueError("need one contracting fiber map per symbol")
        if self.expanding is not None and len(self.expanding) != self.d:
            raise ValueError("need one expanding fiber map per symbol")

    def fixed_point(self, symbol: int = 0, fiber_guess=0.0) -> tuple[ShiftPoint, object]:
        """Fixed point over the constant-symbol base; exact when the fiber map
        knows its own fixed point, contraction iteration otherwise."""
        x = ShiftPoint.constant(self.d, symbol)
        f = self.contracting[symbol]
        if f.fixed is not None:
            return x, f.fixed
        y = fiber_guess
        for _ in range(400):
            y_next = f.apply(y)
            if _fiber_dist(y_next, y) < 1e-15:
                y = y_next
                break
            y = y_next
        return x, y


def _fiber_dist(a, b) -> float:
    if isinstance(a, (int, float, Fraction)) and isinstance(b, (int, float, Fraction)):
        return abs(float(a) - float(b))
    return float(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))))


def _fiber_point_array(y) -> np.ndarray:
    if isinstance(y, (int, float, Fraction)):
        return np.array([float(y)])
    return np.asarray(y, dtype=float)


def iterate_skew(phi: SkewProduct, p: tuple[ShiftPoint, object], n: int):
    """n-fold skew iteration, exact composition order; n < 0 needs inverses.

    Forward: fiber map indexed by the current symbol at 0 (and at 1 for the
    expanding part), then shift. Backward: inverse shift, then the inverse
    fiber maps indexed on the shifted base.
    """
    x, y = p
    z = None
    if isinstance(y, tuple) and phi.expanding is not None and len(y) == 2:
        y, z = y
    for _ in range(abs(n)):
        if n > 0:
            s0 = x.symbol(0)
            y = phi.contracting[s0].apply(y)
            if z is not None:
                z = phi.expanding[x.symbol(1)].apply(z)
            x = x.shift()
        else:
            x = x.unshift()
            s0 = x.symbol(0)
            f = phi.contracting[s0]
            if f.apply_inv is None:
                raise NotInvertible(f"fiber map {s0} has no inverse")
            y = f.apply_inv(y)
            if z is not None:
                g = phi.expanding[x.symbol(1)]
                if g.apply_inv is None:
                    raise NotInvertible(f"expanding fiber map {x.symbol(1)} has no inverse")
                z = g.apply_inv(z)
    return (x, y) if z is None else (x, (y, z))


@dataclass
class UnstableLeaf:
    word: Word  # sigma, length n; the leaf is a depth-n piece
    fiber: object  # phi^{x,sigma}(y)
    base: ShiftPoint  # x^sigma


@dataclass
class UnstableEnumeration:
    base_point: tuple[ShiftPoint, object]
    depth: int
    leaves: list[UnstableLeaf]
    projection: ReachSet | None = None

    def leaves_at(self, n: int) -> list[UnstableLeaf]:
        return [l for l in self.leaves if len(l.word) == n]


def local_unstable(phi: SkewProduct, p: tuple[ShiftPoint, object]) -> dict:
    """Local strong unstable set: base constraint {z_i = x_i, i <= 0} x {y}."""
    x, y = p
    return {
        "base_constraint": {"agree_up_to": 0, "point": x},
        "fiber": {y} if not isinstance(y, np.ndarray) else {tuple(y)},
    }


def enumerate_unstable(
    phi: SkewProduct,
    p: tuple[ShiftPoint, object],
    depth: int,
    eps: float | None = None,
) -> UnstableEnumeration:
    """All strong-unstable leaves of word length 1..depth.

    The fiber of the leaf labeled sigma (length n) applies n-1 inverse maps
    along the base's left tail, then sigma_1 ... sigma_{n-1} forward; the
    last symbol does not touch the fiber. Leaves with distinct words have
    distinct bases by construction.
    """
    x, y = p
    for f in phi.contracting:
        if f.apply_inv is None:
            raise NotInvertible("unstable enumeration needs invertible fiber maps")
    # pullbacks of y along the left tail: pulled[m] = phi^{-1}_{x_{-m}} o ... o phi^{-1}_{x_{-1}}(y)
    pulled = [y]
    for m in range(1, depth):
        s = x.symbol(-m)
        pulled.append(phi.contracting[s].apply_inv(pulled[-1]))

    leaves: list[UnstableLeaf] = []
    for n in range(1, depth + 1):
        # forward words w of length n-1 acting on pulled[n-1]; last symbol free
        level: list[tuple[Word, object]] = [((), pulled[n - 1])]
        for _ in range(n - 1):
            level = [
                (w + (s,), phi.contracting[s].apply(v))
                for (w, v) in level
                for s in range(phi.d)
            ]
        for w, v in level:
            for last in range(phi.d):
                sigma = w + (last,)
                leaves.append(UnstableLeaf(word=sigma, fiber=v, base=insert_word(x, sigma)))

    out = UnstableEnumeration(base_point=p, depth=depth, leaves=leaves)
    if eps is not None:
        # the seed and every leaf fiber, one root row per occupied cell: the
        # leaves' words are skew words, not witnesses of the fiber system
        pts = np.array([_fiber_point_array(y)] + [_fiber_point_array(leaf.fiber) for leaf in leaves])
        keys = phi.fiber_space.cell_index(pts, eps)
        first = CellSet(phi.fiber_space, eps).add_new(keys)
        roots = np.full(len(first), -1, dtype=np.intp)
        out.projection = ReachSet(
            space=phi.fiber_space, eps=eps, seed=pts[0], keys=keys[first], reps=pts[first],
            parent=roots, symbol=roots, visited_count=len(pts),
        )
    return out


def brute_force_unstable_level(
    phi: SkewProduct, p: tuple[ShiftPoint, object], n: int
) -> list[tuple[Word, object, ShiftPoint]]:
    """Depth-n unstable piece by direct iteration: the image under n skew
    steps of the local leaf of the n-fold preimage, one entry per free word.

    Independent of the closed-form enumeration: only iterate_skew is used.
    """
    x, y = p
    back, yb = iterate_skew(phi, (x, y), -n)
    out = []
    for sigma in _words(phi.d, n):
        # a point of the local leaf of the preimage: base pinned on i <= 0,
        # free symbols sigma at 1..n, x's own right side beyond
        start = ShiftPoint(
            back.d,
            back.left_pre,
            back.left_per,
            tuple(sigma) + x.right_pre,
            x.right_per,
        )
        fx, fy = iterate_skew(phi, (start, yb), n)
        out.append((sigma, fy, fx))
    return out


def _words(d: int, n: int):
    if n == 0:
        yield ()
        return
    for w in _words(d, n - 1):
        for s in range(d):
            yield w + (s,)


def project_unstable_equals_ifs(
    phi: SkewProduct,
    p: tuple[ShiftPoint, object],
    depth: int,
    eps: float,
) -> dict:
    """At a fixed point, the fiber projection of the unstable set matches the
    IFS orbit of the fiber coordinate, cell for cell.

    The enumeration runs one level deeper than the requested depth because a
    leaf's last symbol never moves the fiber; with that alignment both sides
    realize exactly the words of length <= depth.
    """
    x, y = p
    if not x.is_fixed() or _fiber_dist(phi.contracting[x.symbol(0)].apply(y), y) > 1e-12:
        raise NotFixedPoint("projection identity requires a fixed point of the skew product")
    enum = enumerate_unstable(phi, p, depth + 1, eps=eps)
    ifs = fiber_ifs(phi.contracting, Box.ball(phi.fiber_space, _fiber_point_array(y), 1.0))
    reach = forward_orbit(ifs, _fiber_point_array(y), depth=depth, eps=eps, budget=10_000_000)
    cells_enum = enum.projection.cells()
    cells_orbit = reach.cells()
    mismatched = sorted(cells_enum ^ cells_orbit)
    return {
        "match": not mismatched,
        "mismatched_cells": mismatched,
        "enum_cells": len(cells_enum),
        "orbit_cells": len(cells_orbit),
    }


# ---------------------------------------------------------------------------
# symbolic blender verification
# ---------------------------------------------------------------------------

def sample_strip(
    phi: SkewProduct, region: Box, eps: float, rng: np.random.Generator
) -> tuple[ShiftPoint, Box]:
    """Random s-strip: a base point pinned on i >= 1 and a fiber ball in the
    region with radius at least eps."""
    word = tuple(int(s) for s in rng.integers(0, phi.d, size=12))
    base = ShiftPoint.from_words(phi.d, left=(), right=word, fill=0)
    radius = float(eps * (1.0 + rng.random()))
    pad = np.minimum(radius, (region.hi - region.lo) / 2.0)
    center = region.lo + pad + rng.random(region.space.dim) * (region.hi - region.lo - 2 * pad)
    return base, Box.ball(region.space, center, radius)


def verify_symbolic_cs_blender(
    phi: SkewProduct,
    region: Box,
    eps: float,
    strip_samples: int,
    seed: int,
    depth_max: int = 24,
) -> dict:
    """Sampled check that the unstable set of the fixed point meets every s-strip.

    The unstable set of the fixed point over symbol 0, restricted to the
    blender (branches whose fiber leaves the region have backward orbits
    outside it and are pruned), is searched depth by depth for leaves whose
    fibers land inside the strips' fiber balls; a witness base splices the
    leaf's left side with the strip's right side. One exploration of the
    orbit core (``ifs._explore``) serves each deduplication grid,
    min(eps, radius)/8, with all its strips' balls as targets. Reports the
    worst depth needed and per-strip outcomes.
    """
    rng = np.random.default_rng(seed)
    x0, y0 = phi.fixed_point(0)
    strips = [sample_strip(phi, region, eps, rng) for _ in range(strip_samples)]
    groups: dict[float, list[int]] = {}
    for i, (_, ball) in enumerate(strips):
        groups.setdefault(min(eps, ball.radius) / 8.0, []).append(i)
    words: list[Word | None] = [None] * strip_samples
    gens = [f.smooth for f in phi.contracting]
    for dedup_eps, members in groups.items():
        reach = _root(region.space, _fiber_point_array(y0), dedup_eps)
        found = _explore(gens, reach, depth_max, targets=[strips[i][1] for i in members], region=region)
        for i, word in zip(members, found):
            words[i] = word
    results = []
    for (sbase, _), word in zip(strips, words):
        if word is None:
            results.append({"hit": False, "depth": None})
            continue
        witness = insert_word(x0, word + (sbase.symbol(1),)).splice_right(sbase)
        results.append({"hit": True, "depth": len(word), "witness_ok": witness.agrees(sbase, 1, 12)})
    n_hit = sum(1 for r in results if r["hit"])
    return {
        "pass": n_hit == strip_samples,
        "worst_depth": max((r["depth"] for r in results if r["hit"]), default=0),
        "hits": n_hit,
        "samples": strip_samples,
        "per_strip": results,
    }


def verify_symbolic_double_blender(
    phi: SkewProduct,
    region_cs: Box,
    region_cu: Box,
    eps: float,
    samples: int,
    seed: int,
    depth_max: int = 24,
) -> dict:
    """cs check on the contracting part plus the same check on the inverted
    expanding part (the cu side of the inverse skew product)."""
    if phi.expanding is None:
        raise NotInvertible("double-blender verification needs the expanding part")
    cs = verify_symbolic_cs_blender(phi, region_cs, eps, samples, seed, depth_max)
    flipped = [FiberMap(f.smooth.inverse or f.smooth, f.apply_inv, f.apply) for f in phi.expanding]
    inverted = SkewProduct(d=phi.d, fiber_space=region_cu.space, contracting=flipped)
    cu = verify_symbolic_cs_blender(inverted, region_cu, eps, samples, seed + 1, depth_max)
    return {"pass": cs["pass"] and cu["pass"], "cs": cs, "cu": cu}
