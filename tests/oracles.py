"""Reference implementations that only the tests use, independent of the
library code they check."""

import itertools

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
