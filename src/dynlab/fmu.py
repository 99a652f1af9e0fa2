"""The block-scheduled perturbation family over a horseshoe times a fiber map.

F_mu conjugates the product f1 x f2 by time-eps(mu) flows of two block
Hamiltonians, eps(mu) = mu/zeta. Per cylinder block of the base the fiber
behavior reduces to closed forms: small translations near a marked fiber
point on the blender blocks, composition with integrable flows on the
minimality blocks, identity elsewhere; at mu = 0 the map is the plain
product, bit for bit. The almost-minimality experiment then asks which
fiber points reach the blender's fiber ball through words of the induced
map system, in both time directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bumps import AxisRamp, hamiltonian_bump_translation
from .errors import ScheduleTooSmall
from .horseshoe import HorseshoeBase
from .ifs import _explore, _roots
from .maps import SmoothMap, compose
from .spaces import Box, StateSpace
from .twist import conjugating_shear


def weak_hyperbolicity_budget(delta: float, k: int) -> None:
    """Feasibility of the delta-weak bookkeeping: (1-delta)^k > 1/2."""
    if not (1.0 - delta) ** k > 0.5:
        need = int(math.floor(math.log(0.5) / math.log(1.0 - delta)))
        raise ScheduleTooSmall(
            f"(1-delta)^k <= 1/2 for k={k}; delta={delta} supports k <= {need}"
        )


@dataclass(eq=False)
class FlowFamily:
    """Time-parameterized symplectic maps t -> map, exact at every t."""

    at: Callable[[float], SmoothMap]
    name: str = "flow"


def shear_family(space: StateSpace, amplitude: float, phase: float, name: str = "shear") -> FlowFamily:
    """Closed-form family: time t shifts the first coordinate by
    t * amplitude * cos(2 pi (theta + phase)), twist.conjugating_shear."""
    return FlowFamily(
        at=lambda t: conjugating_shear(t * amplitude, space=space, phase=phase, name=f"{name}@{t}"), name=name
    )


@dataclass(eq=False)
class BlockSchedule:
    """Role assignment of cylinder blocks over a (2l+5)-symbol horseshoe.

    Rows 1..l carry the contracting-side fiber translations, columns
    l+1..2l the expanding-side ones; the two minimality groups use symbols
    {0, 2l+1, 2l+2} (forward) and {0, 2l+3, 2l+4} (backward). Symbol 0 is
    shared as the neutral letter, so blocks stay pairwise disjoint.
    """

    base: HorseshoeBase
    l: int
    enlarge_frac: float = 0.25

    def __post_init__(self):
        if self.base.n_rect < 2 * self.l + 5:
            raise ScheduleTooSmall(
                f"need at least {2 * self.l + 5} symbols for l={self.l}, "
                f"got {self.base.n_rect}"
            )
        # enlarged blocks stay pairwise disjoint: the cylinder pad must fit
        # inside half the sub-slab gap
        h = self.base.height
        if self.base.n_rect > 1:
            sub_gap = h * (self.base.slab_lo[1] - self.base.slab_lo[0] - h)
            if self.enlarge_frac * h * h >= sub_gap / 2:
                raise ScheduleTooSmall(
                    "enlarged cylinder blocks would overlap; reduce enlarge_frac"
                )

    def forward_codes(self) -> tuple[int, int, int]:
        """Symbols selecting T1, T2, T3 along forward minimality itineraries."""
        return (0, 2 * self.l + 1, 2 * self.l + 2)

    def backward_codes(self) -> tuple[int, int, int]:
        return (0, 2 * self.l + 3, 2 * self.l + 4)

    def role_of(self, i: int, j: int) -> str:
        """Role tag of the (i, j) cylinder block."""
        if 1 <= i <= self.l:
            return "blender-contracting"
        if self.l + 1 <= j <= 2 * self.l:
            return "blender-expanding"
        if i in (2 * self.l + 1, 2 * self.l + 2) and j in self.forward_codes():
            return "minimality-forward"
        if i in self.backward_codes() and j in (2 * self.l + 3, 2 * self.l + 4):
            return "minimality-backward"
        return "untouched"

    def u_ramp(self, i: int, j: int) -> AxisRamp:
        """Cutoff profile in the u-coordinate for the (i, j) cylinder block."""
        blk = self.base.cylinder_block(i, j)
        h2 = self.base.height**2
        pad = self.enlarge_frac * h2
        return AxisRamp(blk.lo[1] - pad, blk.lo[1], blk.hi[1], blk.hi[1] + pad)

    def row_ramp(self, i: int) -> AxisRamp:
        """Cutoff profile covering the whole i-th rectangle (a full row)."""
        lo = self.base.slab_lo[i]
        hi = lo + self.base.height
        pad = self.enlarge_frac * self.base.height
        return AxisRamp(lo - pad, lo, hi, hi + pad)


@dataclass(eq=False)
class FMuFamily:
    """The built family member at a fixed parameter mu."""

    base: HorseshoeBase
    f2: SmoothMap
    schedule: BlockSchedule
    mu: float
    zeta: float
    product_space: StateSpace
    # per-(row-selector) fiber actions at the current parameter:
    fiber_post: dict[tuple[int, int], tuple[SmoothMap, AxisRamp, FlowFamily, float]]
    fiber_pre: dict[tuple[int, int], tuple[SmoothMap, AxisRamp, FlowFamily, float]]
    blender_ball: Box | None
    minimality_maps: list[SmoothMap]  # T1, T2, T3 at this parameter
    minimality_maps_bwd: list[SmoothMap]

    @property
    def eps(self) -> float:
        return self.mu / self.zeta

    def _block(self, table, b: np.ndarray) -> SmoothMap | None:
        """The table's fiber flow at base point b: the full-time map where
        the block's u-cutoff is 1, the flow at the cut-off time in its
        collar, None off every block of the table."""
        if not table:
            return None
        i = int(self.base.rect_of(b))
        if i < 0:
            return None
        key = (i, int(self.base.nearest_rect(self.base.apply(b, i)[1])))
        if key not in table:
            return None
        full_map, ramp, family, t_full = table[key]
        chi = float(ramp.value(b[1]))
        if chi <= 0:
            return None
        return full_map if chi >= 1.0 - 1e-15 else family.at(t_full * chi)

    def eval(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if p.ndim > 1:
            # pointwise: each collar point flows for its own time, and the
            # collar integrator stops on the residual of its whole batch
            return np.stack([self.eval(q) for q in p])
        b, y = p[:2], p[2:]
        fiber_space = self.f2.domain
        # pre flow (inverse-time side), block tested at the source point
        pre = self._block(self.fiber_pre, b)
        if pre is not None:
            y = pre.raw(y)
        b2 = self.base.apply(b)
        y2 = fiber_space.canonicalize(self.f2.raw(y))
        # post flow, block tested at the image point
        post = self._block(self.fiber_post, b2)
        if post is not None:
            y2 = fiber_space.canonicalize(post.raw(y2))
        return np.concatenate([b2, y2])


def build_F_mu(
    f1_model: HorseshoeBase,
    f2: SmoothMap,
    schedule: BlockSchedule,
    mu: float,
    minimality_pack: list[FlowFamily] | None = None,
    blender_ball: Box | None = None,
    zeta: float = 20.0,
) -> FMuFamily:
    """Assemble the family member at parameter mu.

    Blender rows 1..l translate the fiber ball by eps(mu) along l unit
    directions spread evenly over the circle, inside the ball padded by
    twice its sides; columns l+1..2l do the mirrored expanding-side
    translations. The two minimality groups compose the fiber map with the
    pack flows at time eps(mu). All block supports are pairwise disjoint,
    so each point sees at most one pre and one post action.
    """
    l = schedule.l
    fiber_space = f2.domain
    post: dict[tuple[int, int], tuple] = {}
    pre: dict[tuple[int, int], tuple] = {}
    eps = mu / zeta

    if blender_ball is not None and mu > 0:
        angles = 2 * np.pi * np.arange(l) / max(l, 1)
        blender_directions = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        pad = 2.0 * (blender_ball.hi - blender_ball.lo)
        support = Box(fiber_space, blender_ball.lo - pad, blender_ball.hi + pad)

        def translation_family(direction):
            def at(t: float) -> SmoothMap:
                return hamiltonian_bump_translation(
                    [direction[0]], [direction[1]], blender_ball, support, time_scale=t
                )

            return FlowFamily(at=at, name="blender-translation")

        for i in range(1, l + 1):
            fam = translation_family(blender_directions[i - 1])
            full = fam.at(eps)
            ramp = schedule.row_ramp(i)
            for j in range(f1_model.n_rect):
                post[(i, j)] = (full, ramp, fam, eps)
        for j in range(l + 1, 2 * l + 1):
            fam = translation_family(-blender_directions[j - l - 1])
            full = fam.at(eps)
            for i in range(f1_model.n_rect):
                pre[(i, j)] = (full, schedule.u_ramp(i, j), fam, eps)

    T_fwd = [f2]
    T_bwd = [f2]
    if minimality_pack is not None and mu > 0:
        for idx, fam in enumerate(minimality_pack[:2]):
            row = 2 * l + 1 + idx
            full = fam.at(eps)
            for j in schedule.forward_codes():
                post[(row, j)] = (full, schedule.u_ramp(row, j), fam, eps)
            T_fwd.append(compose(full, f2, name=f"T{idx + 2}"))
        for idx, fam in enumerate(minimality_pack[:2]):
            col = 2 * l + 3 + idx
            neg = fam.at(-eps)
            for i in schedule.backward_codes():
                pre[(i, col)] = (neg, schedule.u_ramp(i, col), fam, -eps)
            # the fiber map on these blocks is f2 composed after the pre flow
            T_bwd.append(compose(f2, neg, name=f"T{idx + 2}bwd"))

    product_space = StateSpace(
        tuple(f1_model.ambient.factors) + tuple(fiber_space.factors)
    )
    return FMuFamily(
        base=f1_model,
        f2=f2,
        schedule=schedule,
        mu=mu,
        zeta=zeta,
        product_space=product_space,
        fiber_post=post,
        fiber_pre=pre,
        blender_ball=blender_ball,
        minimality_maps=T_fwd,
        minimality_maps_bwd=T_bwd,
    )


def depth_from_diameter(base: HorseshoeBase, L: float) -> int:
    """Longest word realizable by an unstable segment of diameter <= L."""
    if L <= base.height:
        return 0
    return int(math.floor(math.log(L / base.height) / math.log(base.mu_uu)))


def words_into(maps: list[SmoothMap], seeds, target: Box, depth: int, eps: float) -> list[tuple[int, ...] | None]:
    """Breadth-first word search carrying each seed into the target box.

    One lockstep search of the orbit core (``ifs._explore``), every seed a
    root: each seed gets the deterministic word of a search from it alone,
    deduplicated on an eps-grid of the (compact) space.
    """
    found = _explore(maps, _roots(maps[0].domain, seeds, eps), depth, math.inf, targets=[target], region=None)
    return [words[0] for words in found]


def word_into(maps: list[SmoothMap], seed, target: Box, depth: int, eps: float) -> tuple[int, ...] | None:
    """words_into on a batch of one seed."""
    return words_into(maps, [seed], target, depth, eps)[0]


def itinerary_for_word(schedule: BlockSchedule, word: tuple[int, ...]) -> tuple[int, ...]:
    """Base symbols realizing a forward minimality word, padded into the
    neutral block.

    The fiber map of step t is selected by the symbols one and two ahead, so
    the codes sit shifted one slot right of the step index, with neutral
    symbols on both ends.
    """
    codes = schedule.forward_codes()
    return (0,) + tuple(codes[s] for s in word) + (0, 0)


def almost_minimality_experiment(
    fmu: FMuFamily,
    fiber_samples: np.ndarray,
    L: float,
    eps: float,
) -> dict:
    """Fraction of fiber points over the anchor base point whose strong
    manifolds of diameter <= L reach the blender region, both directions.

    For each sample a word over the induced fiber system is searched whose
    length fits inside a diameter-L unstable (resp. stable) segment; found
    words (the first four nonempty ones) are spot-checked by replaying the
    full family member along the encoded base itinerary.
    """
    if fmu.blender_ball is None:
        raise ValueError("family was built without a blender ball")
    depth = depth_from_diameter(fmu.base, L)
    target = fmu.blender_ball
    samples = np.atleast_2d(np.asarray(fiber_samples, dtype=float))
    fwd_words = words_into(fmu.minimality_maps, samples, target, depth, eps / 2)
    inv_bwd = [m.inverse or m for m in fmu.minimality_maps_bwd]
    bwd_words = words_into(inv_bwd, samples, target, depth, eps / 2)
    connected = [f is not None and b is not None for f, b in zip(fwd_words, bwd_words)]

    replays = []
    fiber_space = fmu.f2.domain
    for q, w in zip(samples, fwd_words):
        if w is None or len(w) == 0 or len(replays) >= 4 or fmu.mu == 0.0:
            continue
        itin = itinerary_for_word(fmu.schedule, w)
        u0 = fmu.base.u_from_itinerary(itin, fmu.base.slab_lo[0] + fmu.base.height / 2)
        s0 = fmu.base.col_lo[0] / (1.0 - fmu.base.mu_ss)
        p = np.concatenate([[s0, u0], q])
        for _ in range(len(w)):
            p = fmu.eval(p)
        fiber_direct = fiber_space.canonicalize(p[2:])
        expected = q.copy()
        for s in w:
            expected = fmu.minimality_maps[s].raw(expected)
        expected = fiber_space.canonicalize(expected)
        replays.append(float(fiber_space.distance(fiber_direct, expected)))

    return {
        "connected_fraction": float(np.mean(connected)),
        "forward_fraction": float(np.mean([w is not None for w in fwd_words])),
        "backward_fraction": float(np.mean([w is not None for w in bwd_words])),
        "depth": depth,
        "replay_residuals": replays,
        "n_samples": len(samples),
    }
