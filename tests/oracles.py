"""Reference implementations that only the tests use, independent of the
library code they check."""

import itertools

import numpy as np

from dynlab.shifts import ShiftPoint
from dynlab.skew import SkewProduct, iterate_skew


def brute_force_unstable_level(phi: SkewProduct, p: tuple[ShiftPoint, object], n: int) -> list:
    """Depth-n unstable piece by direct iteration: the image under n skew
    steps of the local leaf of the n-fold preimage, one (word, fiber, base)
    entry per free word.

    Independent of the closed-form enumeration: only iterate_skew is used.
    """
    x, y = p
    back, yb = iterate_skew(phi, (x, y), -n)
    out = []
    for sigma in itertools.product(range(phi.d), repeat=n):
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


def scalar_certify_density(ifs, seed, target, max_steps, cert):
    """Reference: one target's density word by the scalar pullback loop, one
    Box per step; raises StepLimit as certify_density does."""
    import numpy as np

    from dynlab.covering import _diag_image_boxes
    from dynlab.errors import StepLimit
    from dynlab.ifs import apply_word
    from dynlab.spaces import Box

    seed = np.asarray(seed, dtype=float)
    space, region, gens = ifs.space, cert.region, ifs.generators
    fps = ifs.fixed_point_array()

    def lands(word):
        return space.distance(apply_word(gens, word, seed), target.center) < target.radius

    def pullback(gi, box):
        diag = _diag_image_boxes(gens, region)
        if diag is not None:
            a, b = np.diag(gens[gi].affine[0]), gens[gi].affine[1]
            lo = np.maximum((np.maximum(box.lo, diag[0][gi]) - b) / a, region.lo)
            hi = np.minimum((np.minimum(box.hi, diag[1][gi]) - b) / a, region.hi)
            if np.any(hi < lo):
                raise StepLimit("pullback left the certified region")
            return Box(space, lo, hi)
        c = box.center
        return Box.ball(space, gens[gi].invert(c), float(box.clearance(c)) / gens[gi].lip).intersect(region)

    lo, hi = np.maximum(target.lo, region.lo), np.minimum(target.hi, region.hi)
    if np.any(hi < lo):
        raise StepLimit("target ball lies outside the certified region")
    B = Box(space, lo, hi)
    word_rev = []
    for _ in range(max_steps + 1):
        if B.contains(seed, tol=1e-12) and lands(tuple(reversed(word_rev))):
            return tuple(reversed(word_rev))
        clear = np.minimum(B.hi - fps, fps - B.lo).min(axis=1)
        zi = int(np.argmax(clear))
        if clear[zi] > 0.25 * B.radius:
            prefix, p = [], seed.copy()
            while space.distance(p, fps[zi]) >= 0.9 * clear[zi] and len(prefix) + len(word_rev) <= max_steps:
                p = gens[zi](p)
                prefix.append(zi)
            word = tuple(prefix) + tuple(reversed(word_rev))
            if space.distance(p, fps[zi]) < 0.9 * clear[zi] and lands(word):
                return word
        if len(word_rev) >= max_steps:
            break
        gi = cert.assign(B.center)
        B = pullback(gi, B)
        word_rev.append(gi)
    raise StepLimit(f"no capture within {max_steps} pullback steps")


def fd_jacobian(m, x, h):
    """Central-difference Jacobian of m at x, one point or rows, with step h
    along each axis. Circle inputs wrap and output displacements take the
    shortest circle representative, so the stencil may cross the seam."""
    x = np.asarray(x, dtype=float)
    cols = []
    for e in h * np.eye(m.domain.dim):
        fp = m.fn(m.domain.canonicalize(x + e))
        fm = m.fn(m.domain.canonicalize(x - e))
        cols.append(m.codomain.diff(fp, fm) / (2.0 * h))
    return np.stack(cols, axis=-1)
