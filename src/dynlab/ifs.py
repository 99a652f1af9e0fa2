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
O(cells * depth). Cells are marked on a dense boolean grid of at most
2**24 cells (``CellSet``), so a level costs time in proportion to its images.

One search, ``_explore``, serves orbit coverage, ``fmu.words_into`` and the
symbolic blender. It runs any number of roots (seeds) in lockstep, each
with its own cells, budget and targets, as if alone. Each level evaluates
every generator once on the whole (canonical) frontier of every root,
canonicalizes the images once and visits them generator-major, in frontier
order; the first image in a cell its root has not occupied is stored and
expanded at the next level. A target box gets the word of the first visited
point inside it (the seed first, occupied cell or not); a root's search ends
at the image that hits its last target, without storing its batch. Images
outside a region (tol 1e-12) are dropped, neither visited nor charged to
the budget; the seed is expanded wherever it lies. Without a region each
level checks its frontier against the space's intervals.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DynlabError, NoConvergence, NoMetadata
from .fixed_points import FixedPointRecord, contract_rows, find_fixed_point
from .maps import SmoothMap, by_index
from .spaces import Box, Interval, StateSpace

Word = tuple[int, ...]


def apply_words(maps: list[SmoothMap], words: Sequence[Word], X) -> np.ndarray:
    """Each word applied to X, first symbol first, one row per word: the one
    code that applies a word of maps to a point.

    X is one point, applied to every word, or one row per word. The words
    run in lockstep, padded past their ends; each step calls each map present
    once, on the rows whose word has that symbol there. A row gets the bits
    it would alone, as the maps evaluate a batch as its rows.
    """
    X = np.asarray(X, dtype=float)
    y = np.array(np.broadcast_to(X, (len(words), X.shape[-1])))
    padded = np.full((len(words), max(map(len, words), default=0)), -1, dtype=np.intp)
    for row, w in enumerate(words):
        padded[row, : len(w)] = w
    for t in range(padded.shape[1]):
        on = np.flatnonzero(padded[:, t] >= 0)
        y[on] = by_index(maps, padded[on, t], y[on], "__call__")
    return y


def apply_word(generators: list[SmoothMap], word: Word, x) -> np.ndarray:
    """apply_words on a batch of one: the word applied to the point x."""
    return apply_words(generators, [word], x)[0]


_NEWTON_STEPS, _NEWTON_TOL = 6, 1e-13  # cap of newton_rows: steps, and the residual a row verifies below


def newton_rows(raw, jac, y, x) -> tuple[np.ndarray, np.ndarray]:
    """Solve raw(x, rows) = y row by row by Newton steps from the warm start x.

    raw(X, rows) and jac(X, rows) evaluate the maps of the given rows and
    their Jacobians, one point each, as in fixed_points.contract_rows. Row i
    stops after the step at which its own residual |raw(x_i) - y_i| falls
    below _NEWTON_TOL, so its bits do not depend on the other rows of the
    batch; a row whose residual is not finite stops before jac sees it.
    Returns (x, res): res[i] is row i's residual at its last evaluation,
    below _NEWTON_TOL where the row verified within _NEWTON_STEPS steps.
    """
    x = np.array(x, dtype=float)
    res = np.full(len(x), np.nan)
    live = np.arange(len(x))
    for _ in range(_NEWTON_STEPS):
        if not len(live):
            return x, res
        r = raw(x[live], live) - y[live]
        res[live] = np.abs(r).max(axis=-1)
        finite = np.isfinite(res[live])
        live, r = live[finite], r[finite]
        if len(live):
            x[live] = x[live] - np.linalg.solve(jac(x[live], live), r[..., None])[..., 0]
        live = live[~(res[live] < _NEWTON_TOL)]
    if len(live):
        res[live] = np.abs(raw(x[live], live) - y[live]).max(axis=-1)
    return x, res


# The kernels of a bank's maps, on points X of shape (..., n) and parameters
# whose leading axes match X's (rows of a bank) or are absent (one view).
# A field is (freqs^T, phases, amps, 2 pi freqs), or None before
# perturbation. Products are matmul on (1, n) rows, so a point's bits do not
# depend on its batch.

def _phase(X, field) -> np.ndarray:
    """2 pi (x freqs^T + phases), before the field's sine or cosine."""
    return 2 * math.pi * ((X[..., None, :] @ field[0])[..., 0, :] + field[1])


def _raw(phi: SmoothMap, X, c, field) -> np.ndarray:
    """(phi(x) + c) + B(x)."""
    y = phi.fn(X) + c
    if field is None:
        return y
    return y + field[2] * np.sin(_phase(X, field))


def _jac(phi: SmoothMap, X, field) -> np.ndarray:
    """Jacobian of _raw."""
    J = phi.jacobian(X)
    if field is None:
        return J
    wave = field[2] * np.cos(_phase(X, field))
    return J + wave[..., :, None] * field[3]


def _invert(phi: SmoothMap, Y, c, field, raw, jac, label) -> np.ndarray:
    """Preimage under _raw: phi's inverse of y - c and, with a field,
    newton_rows from it on the rows of Y, with raw and jac as there.
    NoConvergence names the first row that does not verify, by label(i)."""
    X = phi.inverse.fn(Y - c)
    if field is None:
        return X
    Y2 = Y.reshape(-1, Y.shape[-1])
    X, res = newton_rows(raw, jac, Y2, X.reshape(Y2.shape))
    bad = np.flatnonzero(~(res < _NEWTON_TOL))
    if len(bad):
        raise NoConvergence(f"{label(bad[0])}: Newton left residual {res[bad[0]]:.2e} after {_NEWTON_STEPS} steps")
    return X.reshape(Y.shape)


@dataclass(frozen=True, eq=False)
class GeneratorBank:
    """A translated, optionally perturbed family of one base map phi, and
    the only implementation of its maps.

    Row i is the generator x -> (phi(x) + c_i) + B_i(x), named names[i]: the
    translation c_i (-0.0 where the row is phi itself, which changes no
    bit, not even a zero's sign) and, once perturbed by eta, the trig field
    B_i(x) = amps_i sin(2 pi (x freqs_i^T + phases_i)). ``views()`` hands
    out one SmoothMap per row, whose fn, Jacobian and inverse run the
    kernels above on that row's parameters, so a single point is a batch of
    one; ``raw``, ``jac`` and ``invert`` run them on rows of the bank. A row
    of a batch gives the bits of the same point alone wherever phi's fn,
    Jacobian and inverse do, as affine_map's do.

    Views keep the metadata of a translate of phi: its lam and lip, and its
    affine part (A, b + c_i) when phi is affine. Perturbed views have no
    affine part, lam - eta (at least 1e-12) and lip + eta, and their
    inverses no bounds.
    """

    phi: SmoothMap
    c: np.ndarray  # (k, n)
    names: tuple[str, ...]
    eta: float = 0.0
    freqs: np.ndarray | None = None  # (k, n, n)
    phases: np.ndarray | None = None  # (k, n)
    amps: np.ndarray | None = None  # (k, n)

    def _params(self, rows):
        """(c, field) of the rows, an index array or a single row."""
        if self.freqs is None:
            return self.c[rows], None
        freqs = self.freqs[rows]
        return self.c[rows], (np.swapaxes(freqs, -1, -2), self.phases[rows], self.amps[rows], 2 * math.pi * freqs)

    def raw(self, X: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Generator rows[j] at the point X[j], shape (len(rows), n)."""
        return _raw(self.phi, np.asarray(X, dtype=float), *self._params(rows))

    def jac(self, X: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Jacobian of generator rows[j] at X[j], shape (len(rows), n, n)."""
        return _jac(self.phi, np.asarray(X, dtype=float), self._params(rows)[1])

    def invert(self, Y: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Preimage of Y[j] under generator rows[j], shape (len(rows), n).
        NoConvergence names the row's inverse."""
        c, field = self._params(rows)
        return _invert(
            self.phi, np.asarray(Y, dtype=float), c, field,
            lambda X, live: self.raw(X, rows[live]), lambda X, live: self.jac(X, rows[live]),
            lambda j: f"{self.names[rows[j]]}^-1",
        )

    def enclosure(self, source: Box) -> tuple[np.ndarray, np.ndarray] | None:
        """(lo, hi), each (k, n): a box holding each row's image of the
        source box, phi(center) + c -+ (|A| half-widths + |amps|). It holds
        for an affine phi and uses no declared lam or lip; rounding is the
        caller's to widen for. None when phi is not affine."""
        if self.phi.affine is None:
            return None
        mid = self.phi.fn(source.center) + self.c
        rad = np.broadcast_to((source.hi - source.lo) / 2.0 @ np.abs(self.phi.affine[0]).T, self.c.shape)
        if self.amps is not None:
            rad = rad + np.abs(self.amps)
        return mid - rad, mid + rad

    def views(self) -> list[SmoothMap]:
        """One SmoothMap per row, in row order."""
        return [self._view(i) for i in range(len(self.c))]

    def _view(self, i: int) -> SmoothMap:
        phi, name = self.phi, self.names[i]
        c, field = self._params(i)
        if field is None:
            lam, lip = phi.lam, phi.lip
            affine = None if phi.affine is None else (phi.affine[0], phi.affine[1] + c)
        else:
            lam = None if phi.lam is None else max(phi.lam - self.eta, 1e-12)
            lip = None if phi.lip is None else phi.lip + self.eta
            affine = None

        def fn(x):
            return _raw(phi, x, c, field)

        def jac(x):
            return _jac(phi, x, field)

        out = SmoothMap(phi.domain, phi.codomain, fn, jac=jac, name=name, lam=lam, lip=lip, affine=affine)
        base = phi.inverse
        if base is None:
            return out

        def fn_inv(y):
            y = np.asarray(y, dtype=float)
            return _invert(phi, y, c, field, lambda X, live: fn(X), lambda X, live: jac(X), lambda j: name + "^-1")

        out.inverse = SmoothMap(phi.codomain, phi.domain, fn_inv, name=name + "^-1", inverse=out)
        if field is None:
            out.inverse.jac = lambda y: base.jacobian(y - c)
            out.inverse.lam, out.inverse.lip = base.lam, base.lip
            if base.affine is not None:
                out.inverse.affine = (base.affine[0], base.affine[1] - base.affine[0] @ c)
        return out


@dataclass
class IFS:
    generators: list[SmoothMap]
    domain_region: Box
    fixed_points: list[FixedPointRecord] | None = None
    info: dict = field(default_factory=dict)  # construction metadata
    bank: GeneratorBank | None = None  # the bank whose views the generators are, if any

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

    The set is a dense boolean grid ``seen`` over a box of keys, indexed by
    packing each key row by mixed radix, so an insertion costs time in
    proportion to its batch, not to the cells already stored. The box starts
    as the space's own grid. Keys come from ``cell_index``, whose circle keys
    are always on the grid; an interval key off it, such as the cell of an
    image that left an interval factor, grows the box. ``roots`` independent
    sets share the grid: the root index is the leading axis of the packed
    code, so the same key of two roots is two cells. A grid of more than
    2**24 cells over all roots raises DynlabError.
    """

    def __init__(self, space: StateSpace, eps: float, roots: int = 1):
        self._intervals = [i for i, f in enumerate(space.factors) if isinstance(f, Interval)]
        self.roots = roots
        self.seen = None
        self._set_box(*space.cell_range(eps))

    def _set_box(self, lo: np.ndarray, hi: np.ndarray) -> None:
        """Take the box [lo, hi] of keys, keeping the cells seen so far."""
        shape = tuple(int(h) - int(l) + 1 for l, h in zip(lo, hi))
        if self.roots * math.prod(shape) > 2**24:
            raise DynlabError(f"cell keys of {self.roots} root(s) span more than 2**24 cells: box {shape}")
        seen = np.zeros((self.roots,) + shape, dtype=bool)
        if self.seen is not None:
            at = (slice(None),) + tuple(slice(a, a + n) for a, n in zip(self.lo - lo, self.shape))
            seen[at] = self.seen.reshape((self.roots,) + self.shape)
        self.lo, self.hi, self.shape, self.seen = lo, hi, shape, seen.ravel()

    def _pack(self, keys: np.ndarray, root) -> np.ndarray:
        code = root * self.shape[0] + (keys[:, 0] - self.lo[0])
        for i in range(1, len(self.shape)):
            code = code * self.shape[i] + (keys[:, i] - self.lo[i])
        return code

    def rows(self) -> np.ndarray:
        """The keys of a one-root set, in increasing lexicographic order."""
        assert self.roots == 1, "rows() lists the keys of a one-root set"
        first = self.seen[: math.prod(self.shape)]
        return np.stack(np.unravel_index(np.flatnonzero(first), self.shape), axis=-1) + self.lo

    def add_new(self, keys: np.ndarray, root=0) -> np.ndarray:
        """Insert the keys not yet in the set, row j into root root[j] (an
        int array, or one int for every row). Returns, in increasing order,
        the row index of the first occurrence of each newly inserted cell."""
        if not len(keys):
            return np.zeros(0, dtype=np.intp)
        if any(keys[:, i].min() < self.lo[i] or keys[:, i].max() > self.hi[i] for i in self._intervals):
            self._set_box(np.minimum(keys.min(axis=0), self.lo), np.maximum(keys.max(axis=0), self.hi))
        codes = self._pack(keys, root)
        fresh = np.flatnonzero(~self.seen[codes])
        # sorted, code * m + row puts each cell's first row first: no scratch
        # array over the grid is needed
        m = len(fresh)
        order = np.sort(codes[fresh] * m + np.arange(m))
        first = np.diff(order // m, prepend=-1) != 0
        self.seen[order[first] // m] = True
        return fresh[np.sort(order[first] % m)]


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


def _roots(space: StateSpace, seeds, eps: float) -> list[ReachSet]:
    """The reach set of each seed alone, before any level is explored."""
    seeds = space.canonicalize(np.asarray(seeds, dtype=float).reshape(-1, space.dim))
    keys, root = space.cell_index(seeds, eps), np.array([-1], dtype=np.intp)
    return [
        ReachSet(space, eps, x, keys[i, None], seeds[i, None], root, root, 1, frontier=np.array([0], dtype=np.intp))
        for i, x in enumerate(seeds)
    ]


def _explore(
    generators: list[SmoothMap], reaches: list[ReachSet], extra_depth: int, budget: float,
    *, targets: Sequence[Box], region: Box | None,
) -> list[list[Word | None]]:
    """The search of the module docstring from each reach set's frontier,
    for extra_depth more levels with the budget rules of ``extend_orbit``.
    Returns, per root, each target's word (None if not hit). The roots run
    in groups whose grids start at 2**17 cells together or fewer, since a
    group holds its roots' rows until it ends. A group that raises runs
    again in halves, so the error is that of the first root that raises alone.
    """
    lo, hi = reaches[0].space.cell_range(reaches[0].eps)
    size = max(1, 2**17 // math.prod((hi - lo + 1).tolist()))
    if len(reaches) <= size:
        try:
            return _lockstep(generators, reaches, extra_depth, budget, targets, region)
        except DynlabError:
            if len(reaches) == 1:
                raise
        size = (len(reaches) + 1) // 2
    groups = [reaches[i : i + size] for i in range(0, len(reaches), size)]
    return [w for g in groups for w in _explore(generators, g, extra_depth, budget, targets=targets, region=region)]


def _lockstep(generators, reaches, extra_depth, budget, targets, region) -> list[list[Word | None]]:
    """``_explore`` of one group: one CellSet, its code led by the root index, and a frontier
    stacked root by root; a root leaves once it hits its last target or truncates."""
    space, eps = reaches[0].space, reaches[0].eps
    R, T = len(reaches), len(targets)
    n = np.array([len(r.keys) for r in reaches])  # rows per root
    # every stored row, in pieces: its root, key, representative, parent (a
    # row of its root) and symbol
    stored = [np.repeat(np.arange(R), n)], *(
        [np.concatenate([getattr(r, f) for r in reaches])] for f in ("keys", "reps", "parent", "symbol")
    )
    cells = CellSet(space, eps, R)
    cells.add_new(stored[1][0], stored[0][0])
    visited, truncated = np.array([r.visited_count for r in reaches]), np.array([r.truncated for r in reaches])
    levels = np.zeros(R, dtype=int)  # levels explored by this call
    # the frontier, stacked root by root: each point's root, row and point;
    # after a level, a root's frontier is its rows from f_start on
    f_root = np.repeat(np.arange(R), [len(r.frontier) for r in reaches])
    f_row = np.concatenate([r.frontier for r in reaches])
    pts = np.concatenate([r.reps[r.frontier] for r in reaches])
    f_start = n.copy()
    # hits[r, t] = (row, tail): target t's word from root r is the row's
    # witness word + tail; open_[r, t] marks the targets root r has not hit
    lo = np.array([t.lo for t in targets]).reshape(T, 1, space.dim)
    hi = np.array([t.hi for t in targets]).reshape(T, 1, space.dim)
    seeds = np.array([r.seed for r in reaches])
    open_ = ~((seeds >= lo) & (seeds <= hi)).all(axis=-1).T
    hits: dict[tuple[int, int], tuple[int, Word]] = {(r, t): (0, ()) for r, t in zip(*np.nonzero(~open_))}
    alive = np.ones(R, dtype=bool)
    for _ in range(extra_depth):
        alive &= (np.bincount(f_root, minlength=R) > 0) & (open_.any(axis=1) | (T == 0))
        if not alive.any():
            break
        keep = alive[f_root]
        f_root, f_row, pts = f_root[keep], f_row[keep], pts[keep]
        if region is None:
            space.check_inside(pts)
        going = alive & ~truncated
        mark = len(stored[0])  # the level's pieces start here
        for gi, g in enumerate(generators):
            if not going.any():
                break
            take = going[f_root]
            images, roots, rows = space.canonicalize(g.raw(pts[take])), f_root[take], f_row[take]
            if region is not None:
                kept = region.contains(images, tol=1e-12)
                images, roots, rows = images[kept], roots[kept], rows[kept]
            # a root visits its images until its budget runs out
            per_root = np.bincount(roots, minlength=R)
            room = np.minimum(per_root, np.maximum(budget - visited, 0)).astype(int)
            visited += room
            cut = room < per_root
            if cut.any():
                truncated |= cut
                going &= ~cut
                rank = np.arange(len(roots)) - (np.cumsum(per_root) - per_root)[roots]
                keep = rank < room[roots]
                images, roots, rows = images[keep], roots[keep], rows[keep]
            if T and len(images):
                inside = ((images >= lo) & (images <= hi)).all(axis=-1) & open_[roots].T
                t_hit, j_hit = np.nonzero(inside)
                if len(t_hit):
                    # each (target, root) pair takes its first image
                    _, first = np.unique(t_hit * R + roots[j_hit], return_index=True)
                    for t, j in zip(t_hit[first].tolist(), j_hit[first].tolist()):
                        hits[int(roots[j]), t] = (int(rows[j]), (gi,))
                        open_[roots[j], t] = False
                    # a root that hit its last target stores nothing more
                    done = ~open_.any(axis=1)
                    keep = ~done[roots]
                    if not keep.all():
                        going &= ~done
                        images, roots, rows = images[keep], roots[keep], rows[keep]
            image_keys = space.cell_index(images, eps)
            new = cells.add_new(image_keys, roots)
            for part, values in zip(stored, (roots, image_keys, images, rows, np.full(len(roots), gi))):
                part.append(values[new])
        levels += alive
        # the level's new rows, root by root, are the next frontier; they are
        # numbered after each root's earlier rows
        f_root = np.concatenate([f_root[:0], *stored[0][mark:]])
        order = np.argsort(f_root, kind="stable")
        f_root, pts = f_root[order], np.concatenate([pts[:0], *stored[2][mark:]])[order]
        per_root = np.bincount(f_root, minlength=R)
        f_row = n[f_root] + np.arange(len(f_root)) - (np.cumsum(per_root) - per_root)[f_root]
        f_start = np.where(alive, n, f_start)
        n += per_root
        alive &= ~truncated
    # each root's rows, in its own insertion order; the grid and each field's
    # pieces are dropped as soon as they are used
    order = np.argsort(np.concatenate(stored[0]), kind="stable")
    parts = list(stored[1:])
    del cells, stored
    keys, reps, parent, symbol = (np.split(np.concatenate(parts.pop(0))[order], np.cumsum(n[:-1])) for _ in range(4))
    words = []
    for r, reach in enumerate(reaches):
        reach.keys, reach.reps, reach.parent, reach.symbol = keys[r], reps[r], parent[r], symbol[r]
        reach.visited_count, reach.truncated = int(visited[r]), bool(truncated[r])
        reach.depth_reached += int(levels[r])
        if levels[r]:
            reach.frontier = np.arange(f_start[r], n[r], dtype=np.intp)
        words.append([reach.word(hits[r, t][0]) + hits[r, t][1] if (r, t) in hits else None for t in range(T)])
    return words


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
    return extend_orbit(ifs, _roots(ifs.space, seed, eps)[0], depth, budget)


def extend_orbit(ifs: IFS, reach: ReachSet, extra_depth: int, budget: int = 1_000_000) -> ReachSet:
    """Continue a breadth-first exploration from its stored frontier.

    Every visit spends one unit of the budget: the image at which it runs
    out and all later ones are not visited, the level ends there and
    truncated is set. The reach set is updated only when the call returns,
    so a generator that raises leaves it as it was.
    """
    _explore(ifs.generators, [reach], extra_depth, budget, targets=(), region=None)
    return reach


def replay_check(ifs: IFS, reach: ReachSet) -> bool:
    """Every witness word, applied to the seed, lands within eps/2 of its
    representative (exact up to float noise for deterministic generators)."""
    got = apply_words(ifs.generators, reach.words(), reach.seed)
    return not (ifs.space.distance(got, reach.reps) > reach.eps / 2.0).any()


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
    refine: int = 4,
) -> dict:
    """Fraction of eps-cells of the whole space reached from each seed.

    Exploration runs at resolution eps/refine (one representative per fine
    cell undercounts the reachable coarse cells otherwise) and coverage is
    reported on the eps-grid. The space must be compact. The depth is the
    budget, so the budget is the real limit; each seed has its own. Seeds
    are explored in lockstep, each as forward_orbit explores it alone.
    """
    total = ifs.space.total_cells(eps)
    reaches = _roots(ifs.space, seed_grid, eps / refine)
    _explore(ifs.generators, reaches, budget, budget, targets=(), region=None)
    per_seed = [len(coarsen_cells(r, eps)) / total for r in reaches]
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
