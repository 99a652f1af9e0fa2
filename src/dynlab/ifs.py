"""Iterated function systems: orbit exploration on an occupancy grid.

An IFS is a finite list of generators sharing a state space. A word is a
tuple of generator indices; the first symbol is applied first, so the word
(s1, ..., sk) evaluates g_sk o ... o g_s1.

Orbits are explored breadth first and deduplicated on a resolution-eps
occupancy grid. A reach set keeps its cells in arrays, in insertion order:
the integer cell keys, one representative point per cell, and for each cell
the parent cell and the generator that carried the parent's representative
to it. Witness words are not stored; they are rebuilt on demand by walking
the parent pointers back to the seed, so memory is O(cells), not
O(cells * depth).

One search, ``_explore``, serves orbit coverage, ``fmu.word_into`` and the
symbolic blender. Each level evaluates every generator once on the whole
(canonical) frontier, canonicalizes the images once and visits them
generator-major, in frontier order; the first image in an unoccupied cell
is stored and expanded at the next level. A target box gets the word of the
first visited point inside it (the seed first, occupied cell or not); the
search ends at the image that hits the last target, without storing its
batch. Images outside a region (tol 1e-12) are dropped, neither visited nor
charged to the budget; the seed is expanded wherever it lies. Without a
region each level checks its frontier against the space's intervals.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DynlabError, NoMetadata
from .fixed_points import FixedPointRecord, contract_rows, find_fixed_point
from .maps import SmoothMap
from .spaces import Box, StateSpace

Word = tuple[int, ...]


def apply_word(generators: list[SmoothMap], word: Word, x) -> np.ndarray:
    """Evaluate the word, first symbol first."""
    y = np.asarray(x, dtype=float)
    for s in word:
        y = generators[s](y)
    return y


@dataclass(frozen=True)
class GeneratorBank:
    """Stacked parameters of a translated, optionally perturbed family.

    Row i is the generator x -> ((x A_i^T + b_i) + c_i) + B_i(x): phi's
    linear part A_i and offset b_i, the translation c_i (-0.0 on phi's own
    row, which changes no bit, not even a zero's sign) and, once perturbed,
    the trig field B_i(x) = amps_i sin(2 pi (x freqs_i^T + phases_i)).
    ``raw`` evaluates rows as the generators' own ``fn`` does on a single
    point, bit for bit: each row's products go through matmul on a (1, n)
    row, and the sums keep the generators' association.
    """

    A: np.ndarray  # (k, n, n)
    b: np.ndarray  # (k, n)
    c: np.ndarray  # (k, n)
    freqs: np.ndarray | None = None  # (k, n, n)
    phases: np.ndarray | None = None  # (k, n)
    amps: np.ndarray | None = None  # (k, n)

    def raw(self, X: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Generator rows[j] at the point X[j], shape (len(rows), n)."""
        X = np.asarray(X, dtype=float)[:, None, :]
        y = np.matmul(X, np.swapaxes(self.A[rows], 1, 2))[:, 0, :] + self.b[rows] + self.c[rows]
        if self.freqs is None:
            return y
        phase = np.matmul(X, np.swapaxes(self.freqs[rows], 1, 2))[:, 0, :] + self.phases[rows]
        return y + self.amps[rows] * np.sin(2 * math.pi * phase)


@dataclass
class IFS:
    generators: list[SmoothMap]
    domain_region: Box
    fixed_points: list[FixedPointRecord] | None = None
    info: dict = field(default_factory=dict)  # construction metadata
    bank: GeneratorBank | None = None  # the generators, stacked, when they allow it

    def __post_init__(self):
        if not self.generators:
            raise ValueError("IFS needs at least one generator")
        space = self.generators[0].domain
        for g in self.generators:
            if g.domain is not space and g.domain.factors != space.factors:
                raise ValueError("generators must share a state space")

    @property
    def space(self) -> StateSpace:
        return self.generators[0].domain

    @property
    def k(self) -> int:
        return len(self.generators)

    def contraction_bounds(self) -> tuple[float, float]:
        """(lam, lip) uniform over generators; NoMetadata if any is missing."""
        lams = [g.lam for g in self.generators]
        lips = [g.lip for g in self.generators]
        if any(v is None for v in lams) or any(v is None for v in lips):
            raise NoMetadata("generators lack lam/lip contraction metadata")
        return min(lams), max(lips)

    def compute_fixed_points(self) -> list[FixedPointRecord]:
        """One record per generator, each from find_fixed_point.

        With a bank, the contracting non-affine generators are iterated
        together by contract_rows from the region's center first, so each
        find_fixed_point starts at its converged iterate and only recomputes
        the record. Every other generator starts at the center.
        """
        if self.fixed_points is None:
            gens = self.generators
            guesses = np.tile(self.domain_region.center, (len(gens), 1))
            rows = [i for i, g in enumerate(gens) if g.affine is None and g.is_contracting]
            if self.bank is not None and rows:
                rows = np.array(rows)
                guesses[rows] = contract_rows(
                    lambda X, live: self.bank.raw(X, rows[live]), self.space, guesses[rows],
                    [gens[i].lip for i in rows], [gens[i].name for i in rows],
                )
            self.fixed_points = [find_fixed_point(g, x) for g, x in zip(gens, guesses)]
        return self.fixed_points

    def fixed_point_array(self) -> np.ndarray:
        return np.array([r.point for r in self.compute_fixed_points()])

    def apply_word(self, word: Word, x) -> np.ndarray:
        return apply_word(self.generators, word, x)


class CellSet:
    """A set of eps-cell keys of a space, with batched first-occurrence insertion.

    Each key row is packed into one int64 code by mixed radix over a box of
    keys, and the codes are kept sorted for membership by binary search. The
    box starts as the space's own grid; a key outside it, such as the cell
    of an image that left an interval factor, grows the box and the stored
    codes are packed again. Packing preserves the lexicographic order of the
    rows, so they stay sorted, and keys are kept exactly wherever they lie as
    long as the box holds fewer than 2**63 cells.
    """

    def __init__(self, space: StateSpace, eps: float):
        self.codes = np.zeros(0, dtype=np.int64)
        self._set_box(*space.cell_range(eps))

    def _set_box(self, lo: np.ndarray, hi: np.ndarray) -> None:
        radix = [int(h) - int(l) + 1 for l, h in zip(lo, hi)]
        if math.prod(radix) >= 2**63:
            raise DynlabError("cell keys span too many cells to pack into int64 codes")
        self.lo, self.hi = lo, hi
        self.strides = np.array([math.prod(radix[i + 1:]) for i in range(len(radix))], dtype=np.int64)

    def _pack(self, keys: np.ndarray) -> np.ndarray:
        return (keys - self.lo) @ self.strides

    def rows(self) -> np.ndarray:
        """The keys in the set, in increasing lexicographic order."""
        rows = np.empty((len(self.codes), len(self.lo)), dtype=np.int64)
        rem = self.codes
        for i, s in enumerate(self.strides):
            rows[:, i], rem = np.divmod(rem, s)
        return rows + self.lo

    def add_new(self, keys: np.ndarray) -> np.ndarray:
        """Insert the keys not yet in the set. Returns, in increasing order,
        the row index of the first occurrence of each newly inserted key."""
        if not len(keys):
            return np.zeros(0, dtype=np.intp)
        lo, hi = keys.min(axis=0), keys.max(axis=0)
        if (lo < self.lo).any() or (hi > self.hi).any():
            rows = self.rows()
            self._set_box(np.minimum(lo, self.lo), np.maximum(hi, self.hi))
            self.codes = self._pack(rows)
        codes = self._pack(keys)
        # a stable sort puts each code's first occurrence first in its run
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        pos = np.searchsorted(self.codes, codes)
        new = np.ones(len(codes), dtype=bool)
        if len(self.codes):
            new = self.codes[np.minimum(pos, len(self.codes) - 1)] != codes
        new[1:] &= codes[1:] != codes[:-1]
        # a stable sort merges the two sorted runs in linear time
        self.codes = np.sort(np.concatenate([self.codes, codes[new]]), kind="stable")
        return np.sort(order[new])


@dataclass(eq=False)
class ReachSet:
    """Occupancy grid of an orbit exploration, as arrays in insertion order.

    Row i holds one occupied cell: its integer key ``keys[i]``, its
    representative ``reps[i]`` (the first point to land in the cell), and
    ``parent[i]``/``symbol[i]``, the row whose representative the generator
    ``symbol[i]`` carried to ``reps[i]``. A root row (the seed's cell) has
    parent and symbol -1. Parents precede their children, and the witness
    word of a cell, rebuilt by ``words()`` from the parent pointers, applied
    to the seed reproduces its representative exactly. ``frontier`` holds
    the rows of the last level explored, so an exploration can resume at
    greater depth.
    """

    space: StateSpace
    eps: float
    seed: np.ndarray
    keys: np.ndarray
    reps: np.ndarray
    parent: np.ndarray
    symbol: np.ndarray
    visited_count: int = 0
    truncated: bool = False
    depth_reached: int = 0
    frontier: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))

    def cells(self) -> set[tuple]:
        return set(map(tuple, self.keys.tolist()))

    def points(self) -> np.ndarray:
        return self.reps.copy()

    def words(self) -> list[Word]:
        """Witness word of every cell, in insertion order."""
        out: list[Word] = []
        for p, s in zip(self.parent.tolist(), self.symbol.tolist()):
            out.append(out[p] + (s,) if p >= 0 else ())
        return out

    def word(self, row: int) -> Word:
        """Witness word of one cell."""
        out: Word = ()
        while self.parent[row] >= 0:
            out, row = (int(self.symbol[row]),) + out, self.parent[row]
        return out


def _root(space: StateSpace, seed, eps: float) -> ReachSet:
    """The reach set of the seed alone, before any level is explored."""
    seed = space.canonicalize(np.asarray(seed, dtype=float))
    return ReachSet(
        space=space,
        eps=eps,
        seed=seed,
        keys=space.cell_index(seed[None], eps),
        reps=seed[None],
        parent=np.array([-1], dtype=np.intp),
        symbol=np.array([-1], dtype=np.intp),
        visited_count=1,
        frontier=np.array([0], dtype=np.intp),
    )


def _explore(
    generators: list[SmoothMap],
    reach: ReachSet,
    extra_depth: int,
    budget: float = math.inf,
    *,
    targets: Sequence[Box] = (),
    region: Box | None = None,
) -> list[Word | None]:
    """The search of the module docstring, continued from the reach set's
    frontier for extra_depth more levels with the budget rules of
    ``extend_orbit``. Returns each target's word, None if not hit."""
    space, eps = reach.space, reach.eps
    cells = CellSet(space, eps)
    cells.add_new(reach.keys)
    keys, reps, parent, symbol = [reach.keys], [reach.reps], [reach.parent], [reach.symbol]
    n = len(reach.keys)
    visited, truncated, depth = reach.visited_count, reach.truncated, reach.depth_reached
    frontier = reach.frontier
    pts = reach.reps[frontier]
    # hits[t] = (row, tail): target t's word is row's witness word + tail;
    # open_ lists the targets not hit yet, lo and hi their corners
    lo = np.array([t.lo for t in targets]).reshape(len(targets), 1, space.dim)
    hi = np.array([t.hi for t in targets]).reshape(len(targets), 1, space.dim)
    seeded = ((reach.seed >= lo) & (reach.seed <= hi)).all(axis=-1)[:, 0]
    hits: list[tuple[int, Word] | None] = [(0, ()) if h else None for h in seeded.tolist()]
    open_, lo, hi = np.flatnonzero(~seeded), lo[~seeded], hi[~seeded]
    for level in range(depth + 1, depth + extra_depth + 1):
        if not len(frontier) or (targets and not len(open_)):
            break
        if region is None:
            space.check_inside(pts)
        level_start, level_chunk = n, len(reps)
        for gi, g in enumerate(generators):
            if truncated:
                break
            images, rows = space.canonicalize(g.raw(pts)), frontier
            if region is not None:
                kept = region.contains(images, tol=1e-12)
                images, rows = images[kept], rows[kept]
            take = max(0, min(len(images), budget - visited))
            if take < len(images):
                truncated = True
                images, rows = images[:take], rows[:take]
            visited += take
            if len(open_) and len(images):
                inside = ((images >= lo) & (images <= hi)).all(axis=-1)
                got = inside.any(axis=1)
                if got.any():
                    for t, j in zip(open_[got].tolist(), inside[got].argmax(axis=1).tolist()):
                        hits[t] = (int(rows[j]), (gi,))
                    open_, lo, hi = open_[~got], lo[~got], hi[~got]
                    if not len(open_):
                        break
            image_keys = space.cell_index(images, eps)
            new = cells.add_new(image_keys)
            keys.append(image_keys[new])
            reps.append(images[new])
            parent.append(rows[new])
            symbol.append(np.full(len(new), gi, dtype=np.intp))
            n += len(new)
        depth = level
        frontier = np.arange(level_start, n, dtype=np.intp)
        pts = np.concatenate(reps[level_chunk:]) if n > level_start else pts[:0]
        if truncated:
            break
    reach.keys = np.concatenate(keys)
    reach.reps = np.concatenate(reps)
    reach.parent = np.concatenate(parent)
    reach.symbol = np.concatenate(symbol)
    reach.visited_count, reach.truncated, reach.depth_reached = visited, truncated, depth
    reach.frontier = frontier
    return [None if h is None else reach.word(h[0]) + h[1] for h in hits]


def forward_orbit(
    ifs: IFS,
    seed,
    depth: int,
    eps: float,
    budget: int = 1_000_000,
) -> ReachSet:
    """Breadth-first orbit of the seed, deduplicated by eps-cells.

    Explores all words up to the given depth, except that a point landing in
    an already-occupied cell is not expanded again. Deterministic given
    inputs: the frontier preserves insertion order and generators apply in
    index order. When the cell-visit budget runs out the partial set is
    returned with truncated=True.
    """
    return extend_orbit(ifs, _root(ifs.space, seed, eps), depth, budget)


def extend_orbit(ifs: IFS, reach: ReachSet, extra_depth: int, budget: int = 1_000_000) -> ReachSet:
    """Continue a breadth-first exploration from its stored frontier.

    Every visit spends one unit of the budget: the image at which it runs
    out and all later ones are not visited, the level ends there and
    truncated is set. The reach set is updated only when the call returns,
    so a generator that raises leaves it as it was.
    """
    _explore(ifs.generators, reach, extra_depth, budget)
    return reach


def replay_check(ifs: IFS, reach: ReachSet, tol: float | None = None) -> bool:
    """Every witness word, applied to the seed, lands within eps/2 of its
    representative (exact up to float noise for deterministic generators)."""
    tol = reach.eps / 2.0 if tol is None else tol
    for word, rep in zip(reach.words(), reach.reps):
        got = ifs.apply_word(word, reach.seed)
        if ifs.space.distance(got, rep) > tol:
            return False
    return True


def coarsen_cells(reach: ReachSet, eps: float) -> set[tuple]:
    """Occupied eps-cells implied by a finer exploration."""
    coarse = CellSet(reach.space, eps)
    coarse.add_new(reach.space.cell_index(reach.reps, eps))
    return set(map(tuple, coarse.rows().tolist()))


def minimality_experiment(
    ifs: IFS,
    seed_grid,
    eps: float,
    budget: int = 1_000_000,
    depth: int | None = None,
    refine: int = 4,
) -> dict:
    """Fraction of eps-cells of the whole space reached from each seed.

    Exploration runs at resolution eps/refine (one representative per fine
    cell undercounts the reachable coarse cells otherwise) and coverage is
    reported on the eps-grid. The space must be compact.
    """
    seeds = np.atleast_2d(np.asarray(seed_grid, dtype=float))
    depth = depth if depth is not None else budget  # budget is the real limit
    total = ifs.space.total_cells(eps)
    per_seed = []
    reaches = []
    for s in seeds:
        r = forward_orbit(ifs, s, depth=depth, eps=eps / refine, budget=budget)
        per_seed.append(len(coarsen_cells(r, eps)) / total)
        reaches.append(r)
    return {
        "per_seed_coverage": per_seed,
        "min_coverage": min(per_seed),
        "total_cells": total,
        "truncated": any(r.truncated for r in reaches),
        "reaches": reaches,
    }


def recurrence_experiment(
    m: SmoothMap,
    samples,
    eps: float,
    horizon: int,
) -> dict:
    """Fraction of samples returning within eps of themselves, both time
    directions, within the horizon."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    space = m.domain

    def recurrent(direction_map: SmoothMap) -> np.ndarray:
        ok = np.zeros(len(samples), dtype=bool)
        x = samples.copy()
        for _ in range(horizon):
            x = direction_map(x)
            d = space.distance(x, samples)
            ok |= np.asarray(d) < eps
            if ok.all():
                break
        return ok

    fwd = recurrent(m)
    has_inverse = m.inverse is not None
    bwd = recurrent(m.inverse) if has_inverse else fwd
    both = fwd & bwd
    return {
        "recurrent_fraction": float(np.mean(both)),
        "forward_fraction": float(np.mean(fwd)),
        "backward_fraction": float(np.mean(bwd)) if has_inverse else None,
        "both_directions": has_inverse,
        "n_samples": len(samples),
    }
