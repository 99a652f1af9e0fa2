"""Product state spaces built from interval and circle factors.

A space is an ordered product of one-dimensional factors. Points are numpy
arrays with one coordinate per factor; evaluation is batched, so any array
of shape (..., dim) is accepted. Circle coordinates are kept in [0, period)
by ``canonicalize``, which is idempotent. The metric is the max over
per-factor distances, with wrap-around distance on circle factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PointOutsideDomain


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"interval needs lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def extent(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class Circle:
    period: float = 1.0

    def __post_init__(self):
        if not self.period > 0:
            raise ValueError(f"circle period must be positive, got {self.period}")

    @property
    def extent(self) -> float:
        return self.period


Factor = Interval | Circle


@dataclass(frozen=True)
class StateSpace:
    """Ordered product of Interval and Circle factors with the max metric."""

    factors: tuple[Factor, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        # circle columns and periods (nan, equal to nothing, on intervals)
        circles = [i for i, f in enumerate(self.factors) if isinstance(f, Circle)]
        object.__setattr__(self, "_circles", circles)
        object.__setattr__(self, "_period", np.array([getattr(f, "period", np.nan) for f in self.factors]))
        object.__setattr__(self, "_unit", all(self.factors[i].period == 1.0 for i in circles))
        # interval bounds per column (unbounded on circles), for check_inside
        object.__setattr__(self, "_lo", np.array([getattr(f, "lo", -np.inf) for f in self.factors]))
        object.__setattr__(self, "_hi", np.array([getattr(f, "hi", np.inf) for f in self.factors]))

    @property
    def dim(self) -> int:
        return len(self.factors)

    def extents(self) -> np.ndarray:
        return np.array([f.extent for f in self.factors])

    def lower(self) -> np.ndarray:
        return np.array([f.lo if isinstance(f, Interval) else 0.0 for f in self.factors])

    def upper(self) -> np.ndarray:
        return np.array(
            [f.hi if isinstance(f, Interval) else f.period for f in self.factors]
        )

    def canonicalize(self, x: np.ndarray) -> np.ndarray:
        """Reduce circle coordinates into [0, period); interval coordinates
        pass through. Canonical points are fixed, so canonicalizing twice
        changes nothing."""
        x = np.asarray(x, dtype=float)
        # period 1 wraps as x - floor(x), np.mod's bits at a fraction of its
        # cost; not x - floor(x/p)*p for other p (x/2 underflows at -5e-324)
        if len(self._circles) == self.dim:
            out = x - np.floor(x) if self._unit else np.mod(x, self._period)
        else:
            out = x.copy()
            for i in self._circles:
                p = self._period[i]
                out[..., i] = x[..., i] - np.floor(x[..., i]) if p == 1.0 else np.mod(x[..., i], p)
        if self._circles:
            # np.mod rounds a tiny negative coordinate up to the period itself
            out[out == self._period] = 0.0
        return out

    def check_inside(self, x: np.ndarray, tol: float = 1e-9) -> None:
        """Raise PointOutsideDomain if an interval coordinate exits [lo, hi] by
        > tol; the message names the first such coordinate."""
        x = np.asarray(x, dtype=float)
        out = (x < self._lo - tol) | (x > self._hi + tol)
        if out.any():
            i = int(np.argmax(out.reshape(-1, self.dim).any(axis=0)))
            f = self.factors[i]
            raise PointOutsideDomain(
                f"coordinate {i} outside [{f.lo}, {f.hi}]" + (f": {float(x[i])}" if x.ndim == 1 else "")
            )

    def contains(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        try:
            self.check_inside(x, tol=tol)
        except PointOutsideDomain:
            return False
        return True

    def diff(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Signed displacement x - y, using the shortest representative on circles."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        d = x - y
        for i, f in enumerate(self.factors):
            if isinstance(f, Circle):
                p = f.period
                d[..., i] = (d[..., i] + p / 2.0) % p - p / 2.0
        return d

    def distance(self, x: np.ndarray, y: np.ndarray) -> np.ndarray | float:
        """Max metric over factors, wrap-aware on circles."""
        d = np.abs(self.diff(x, y)).max(axis=-1)
        return float(d) if d.ndim == 0 else d

    def diameter(self) -> float:
        out = 0.0
        for f in self.factors:
            out = max(out, f.extent if isinstance(f, Interval) else f.period / 2.0)
        return out

    def sample(self, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
        """Uniform samples; shape (dim,) if n is None else (n, dim)."""
        size = (self.dim,) if n is None else (n, self.dim)
        u = rng.random(size)
        return self.lower() + u * self.extents()

    # -- occupancy-grid support -------------------------------------------

    def cell_index(self, x: np.ndarray, eps: float) -> np.ndarray:
        """Integer grid key floor(coord/eps) per factor, wrapped on circles.
        Takes canonical points: a raw circle coordinate can round into the
        neighbouring cell."""
        idx = np.floor(np.asarray(x, dtype=float) / eps).astype(np.int64)
        for i, f in enumerate(self.factors):
            if isinstance(f, Circle):
                n_i = max(1, int(round(f.period / eps)))
                idx[..., i] = np.mod(idx[..., i], n_i)
        return idx

    def cell_range(self, eps: float) -> tuple[np.ndarray, np.ndarray]:
        """Least and greatest cell_index key, per factor, of points in the space."""
        lo = np.floor(self.lower() / eps).astype(np.int64)
        hi = np.floor(self.upper() / eps).astype(np.int64)
        for i, f in enumerate(self.factors):
            if isinstance(f, Circle):
                lo[i], hi[i] = 0, max(1, int(round(f.period / eps))) - 1
        return lo, hi

    def total_cells(self, eps: float) -> int:
        n = 1
        for f in self.factors:
            n *= max(1, int(np.ceil(f.extent / eps - 1e-12)))
        return n


def unit_interval_space(n: int, lo: float = 0.0, hi: float = 1.0) -> StateSpace:
    return StateSpace(tuple(Interval(lo, hi) for _ in range(n)))


def torus(n: int, period: float = 1.0) -> StateSpace:
    return StateSpace(tuple(Circle(period) for _ in range(n)))


def annulus(lo: float = 0.0, hi: float = 1.0, period: float = 1.0) -> StateSpace:
    """Interval x Circle, the standard annulus for twist maps."""
    return StateSpace((Interval(lo, hi), Circle(period)))


@dataclass(frozen=True)
class Box:
    """Axis-aligned box region inside a state space.

    Under the max metric a metric ball is a box, so boxes double as balls:
    ``Box.ball(space, center, r)`` is the closed ball of radius r. Regions
    used by the covering machinery live on interval factors.
    """

    space: StateSpace
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=float))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=float))
        if self.lo.shape != (self.space.dim,) or self.hi.shape != (self.space.dim,):
            raise ValueError("box bounds must match space dimension")
        if np.any(self.hi < self.lo):
            raise ValueError("box needs lo <= hi componentwise")

    @classmethod
    def ball(cls, space: StateSpace, center, radius: float) -> "Box":
        c = np.asarray(center, dtype=float)
        return cls(space, c - radius, c + radius)

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    @property
    def radius(self) -> float:
        """Half the largest side, i.e. the max-metric circumradius."""
        return float(0.5 * (self.hi - self.lo).max())

    @property
    def sides(self) -> np.ndarray:
        return self.hi - self.lo

    def contains(self, x, tol: float = 0.0):
        x = np.asarray(x, dtype=float)
        ok = np.all((x >= self.lo - tol) & (x <= self.hi + tol), axis=-1)
        return bool(ok) if ok.ndim == 0 else ok

    def clearance(self, x) -> np.ndarray | float:
        """Distance from x to the box boundary (negative outside)."""
        x = np.asarray(x, dtype=float)
        c = np.minimum(x - self.lo, self.hi - x).min(axis=-1)
        return float(c) if c.ndim == 0 else c

    def intersect(self, other: "Box") -> "Box":
        return Box(self.space, np.maximum(self.lo, other.lo), np.minimum(self.hi, other.hi))

    def sample(self, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
        size = (self.space.dim,) if n is None else (n, self.space.dim)
        return self.lo + rng.random(size) * self.sides

    def grid_axes(self, step: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-axis cell counts and cell sides of the grid of spacing <= step."""
        counts = np.maximum(1, np.ceil(self.sides / step - 1e-12).astype(np.int64))
        return counts, self.sides / counts

    def grid_coords(self, step: float) -> list[np.ndarray]:
        """Per-axis cell-center coordinates of the grid of spacing <= step."""
        counts, sides = self.grid_axes(step)
        return [a + h * (np.arange(k) + 0.5) for a, h, k in zip(self.lo, sides, counts)]

    def grid(self, step: float) -> np.ndarray:
        """Cell-center grid of spacing <= step covering the box, shape (m, dim),
        the product of grid_coords in row-major order."""
        mesh = np.meshgrid(*self.grid_coords(step), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)
