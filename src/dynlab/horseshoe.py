"""Piecewise-affine horseshoe base with an exact full-shift Markov structure.

The ambient box is [0,1]^2 with coordinates (s, u). Rectangles are
horizontal slabs R_i = [0,1] x [lo_i, hi_i] of equal height 1/mu_uu with
gaps between them; the map contracts s by mu_ss into the i-th column strip
and expands the slab onto the full unit u-range, so f(R_i) crosses every
R_j in the u-direction and the itineraries realize the full shift on k+1
symbols exactly. Stable leaves are horizontal segments {u = c}, unstable
leaves vertical segments; base coordinates convert to and from itineraries
by plain affine arithmetic, which keeps every certificate free of
shadowing error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RectanglesOverlap
from .spaces import Box, StateSpace, unit_interval_space


@dataclass(eq=False)
class HorseshoeBase:
    n_rect: int
    mu_ss: float
    mu_uu: float
    slab_lo: np.ndarray  # u-range of each rectangle
    col_lo: np.ndarray   # s-range of each image column
    ambient: StateSpace

    @classmethod
    def build(cls, n_rect: int, mu_ss: float, mu_uu: float | None = None) -> "HorseshoeBase":
        if mu_uu is None:
            mu_uu = 2.0 * n_rect  # leaves a gap the size of each slab
        h = 1.0 / mu_uu
        if n_rect * h >= 1.0 - 1e-12:
            raise RectanglesOverlap(
                f"{n_rect} slabs of height {h} leave no room for gaps"
            )
        if n_rect * mu_ss >= 1.0 - 1e-12:
            raise RectanglesOverlap(
                f"{n_rect} columns of width {mu_ss} leave no room for gaps"
            )
        gap_u = (1.0 - n_rect * h) / (n_rect + 1)
        gap_s = (1.0 - n_rect * mu_ss) / (n_rect + 1)
        slab_lo = gap_u + np.arange(n_rect) * (h + gap_u)
        col_lo = gap_s + np.arange(n_rect) * (mu_ss + gap_s)
        return cls(
            n_rect=n_rect,
            mu_ss=mu_ss,
            mu_uu=mu_uu,
            slab_lo=slab_lo,
            col_lo=col_lo,
            ambient=unit_interval_space(2),
        )

    @property
    def height(self) -> float:
        return 1.0 / self.mu_uu

    def rectangle(self, i: int) -> Box:
        return Box(
            self.ambient,
            np.array([0.0, self.slab_lo[i]]),
            np.array([1.0, self.slab_lo[i] + self.height]),
        )

    @staticmethod
    def _slot(lo: np.ndarray, width: float, x) -> np.ndarray:
        """Index of the interval [lo_i, lo_i + width] holding x, -1 in gaps."""
        x = np.asarray(x, dtype=float)
        # searchsorted gives -1..n-1 here, so only the lower side needs a bound
        idx = np.maximum(np.searchsorted(lo, x + 1e-15) - 1, 0)
        inside = (x >= lo[idx] - 1e-12) & (x <= lo[idx] + width + 1e-12)
        return np.where(inside, idx, -1)

    def rect_of_u(self, u) -> np.ndarray:
        """Rectangle index of the u-coordinate, -1 in gaps."""
        return self._slot(self.slab_lo, self.height, u)

    def rect_of(self, b) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        return self.rect_of_u(b[..., 1])

    def nearest_rect(self, u) -> np.ndarray:
        """Index of the slab nearest to the u-coordinate (total function)."""
        u = np.asarray(u, dtype=float)
        centers = self.slab_lo + self.height / 2.0
        idx = np.minimum(np.searchsorted(centers, u), self.n_rect - 1)
        lower = np.maximum(idx - 1, 0)
        pick_lower = np.abs(u - centers[lower]) <= np.abs(u - centers[idx])
        return np.where(pick_lower, lower, idx)

    def col_of_s(self, s) -> np.ndarray:
        """Column index of the s-coordinate (for inverse lookup), -1 in gaps."""
        return self._slot(self.col_lo, self.mu_ss, s)

    def apply(self, b, i=None) -> np.ndarray:
        """The base map; i is the rectangle index of b when the caller has it."""
        b = np.asarray(b, dtype=float)
        if i is None:
            i = self.rect_of(b)
        if np.any(i < 0):
            raise ValueError("horseshoe map evaluated in a gap between rectangles")
        s_new = self.mu_ss * b[..., 0] + self.col_lo[i]
        u_new = (b[..., 1] - self.slab_lo[i]) * self.mu_uu
        return np.stack([s_new, u_new], axis=-1)

    def apply_inv(self, b) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        i = self.col_of_s(b[..., 0])
        if np.any(i < 0):
            raise ValueError("horseshoe inverse evaluated outside the image columns")
        s_old = (b[..., 0] - self.col_lo[i]) / self.mu_ss
        u_old = b[..., 1] / self.mu_uu + self.slab_lo[i]
        return np.stack([s_old, u_old], axis=-1)

    # -- exact symbolic conjugacy -----------------------------------------

    def u_from_itinerary(self, word, u_final: float = 0.5) -> float:
        """u-coordinate whose forward itinerary starts with the word.

        u_final is the normalized coordinate handed to the tail (0.5 keeps
        the point centered in the final cylinder).
        """
        u = float(u_final)
        for s in reversed(tuple(word)):
            u = self.slab_lo[s] + u * self.height
        return u

    def s_from_itinerary(self, word, s_final: float = 0.5) -> float:
        """s-coordinate realizing the backward itinerary (word[0] = previous
        symbol, word[1] the one before, ...)."""
        s = float(s_final)
        for c in reversed(tuple(word)):
            s = self.col_lo[c] + s * self.mu_ss
        return s

    def forward_itinerary(self, b, length: int) -> tuple[int, ...]:
        b = np.asarray(b, dtype=float)
        out = []
        for _ in range(length):
            i = int(self.rect_of(b))
            if i < 0:
                break
            out.append(i)
            b = self.apply(b)
        return tuple(out)

    def fixed_point_base(self, symbol: int) -> np.ndarray:
        """Base fixed point with constant itinerary."""
        s = self.col_lo[symbol] / (1.0 - self.mu_ss)
        u = self.slab_lo[symbol] / (1.0 - self.height)
        return np.array([s, u])

    def check_markov(self) -> dict:
        """Disjoint closures and full unstable crossing, checked on corners."""
        gaps_ok = True
        for i in range(self.n_rect - 1):
            if self.slab_lo[i] + self.height >= self.slab_lo[i + 1] - 1e-12:
                gaps_ok = False
            if self.col_lo[i] + self.mu_ss >= self.col_lo[i + 1] - 1e-12:
                gaps_ok = False
        crossing_ok = True
        for i in range(self.n_rect):
            r = self.rectangle(i)
            corners = np.array(
                [
                    [r.lo[0], r.lo[1]],
                    [r.lo[0], r.hi[1]],
                    [r.hi[0], r.lo[1]],
                    [r.hi[0], r.hi[1]],
                ]
            )
            img = self.apply(corners)
            if not (
                np.isclose(img[:, 1].min(), 0.0, atol=1e-12)
                and np.isclose(img[:, 1].max(), 1.0, atol=1e-12)
            ):
                crossing_ok = False
        return {"disjoint": gaps_ok, "full_crossing": crossing_ok}

    def cylinder_block(self, i: int, j: int, inflate: float = 0.0) -> Box:
        """Box realization of the cylinder {x_0 = i, x_1 = j}: the part of
        rectangle i whose image lands in rectangle j, optionally inflated in
        the u-direction (for the enlarged supports)."""
        lo_u = self.slab_lo[i] + self.slab_lo[j] * self.height
        hi_u = lo_u + self.height * self.height
        return Box(
            self.ambient,
            np.array([0.0, lo_u - inflate]),
            np.array([1.0, hi_u + inflate]),
        )
