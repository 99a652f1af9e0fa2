"""Two-sided symbol sequences with eventually periodic tails.

A ShiftPoint stores the sequence (x_i) for i in Z as four tuples: the left
side covers indices i <= 0 reading outward (x_0, x_-1, x_-2, ...) as a
preperiod followed by a cycled period, and the right side covers i >= 1 as
(x_1, x_2, ...) likewise. This class of sequences is closed under the shift
and its inverse, equality is decidable, and it contains every periodic point
and every finite modification of one, which is all the constructions here
ever need.
"""

from __future__ import annotations

from dataclasses import dataclass


def _minimal_period(per: tuple[int, ...]) -> tuple[int, ...]:
    n = len(per)
    for d in range(1, n + 1):
        if n % d == 0 and per == per[:d] * (n // d):
            return per[:d]
    return per


def _normalize(pre: tuple[int, ...], per: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Shortest preperiod and minimal period for an outward-reading tail."""
    per = _minimal_period(per)
    pre = tuple(pre)
    # absorb preperiod symbols that already continue the cycle
    while pre and pre[-1] == per[-1]:
        pre = pre[:-1]
        per = per[-1:] + per[:-1]
    return pre, per


@dataclass(frozen=True)
class ShiftPoint:
    """Point of the full shift on d symbols, eventually periodic both ways."""

    d: int
    left_pre: tuple[int, ...]   # x_0, x_-1, x_-2, ...
    left_per: tuple[int, ...]   # continues outward, cycled
    right_pre: tuple[int, ...]  # x_1, x_2, ...
    right_per: tuple[int, ...]  # continues outward, cycled

    def __post_init__(self):
        lp, lq = _normalize(tuple(self.left_pre), tuple(self.left_per))
        rp, rq = _normalize(tuple(self.right_pre), tuple(self.right_per))
        for s in (*lp, *lq, *rp, *rq):
            if not 0 <= s < self.d:
                raise ValueError(f"symbol {s} outside alphabet of size {self.d}")
        if not lq or not rq:
            raise ValueError("periodic parts must be nonempty")
        object.__setattr__(self, "left_pre", lp)
        object.__setattr__(self, "left_per", lq)
        object.__setattr__(self, "right_pre", rp)
        object.__setattr__(self, "right_per", rq)

    @classmethod
    def constant(cls, d: int, symbol: int) -> "ShiftPoint":
        return cls(d, (), (symbol,), (), (symbol,))

    @classmethod
    def from_words(
        cls,
        d: int,
        left: list[int] | tuple[int, ...] = (),
        right: list[int] | tuple[int, ...] = (),
        fill: int = 0,
    ) -> "ShiftPoint":
        """Sequence with given x_0, x_-1, ... (left) and x_1, x_2, ... (right),
        padded with the fill symbol both ways."""
        return cls(d, tuple(left), (fill,), tuple(right), (fill,))

    def symbol(self, i: int) -> int:
        if i <= 0:
            k = -i
            if k < len(self.left_pre):
                return self.left_pre[k]
            return self.left_per[(k - len(self.left_pre)) % len(self.left_per)]
        k = i - 1
        if k < len(self.right_pre):
            return self.right_pre[k]
        return self.right_per[(k - len(self.right_pre)) % len(self.right_per)]

    def __getitem__(self, i: int) -> int:
        return self.symbol(i)

    def window(self, lo: int, hi: int) -> tuple[int, ...]:
        return tuple(self.symbol(i) for i in range(lo, hi + 1))

    def shift(self) -> "ShiftPoint":
        """tau: new x_i = old x_{i+1}."""
        new_left_pre = (self.symbol(1),) + self.left_pre
        if self.right_pre:
            new_right_pre = self.right_pre[1:]
            new_right_per = self.right_per
        else:
            new_right_pre = ()
            new_right_per = self.right_per[1:] + self.right_per[:1]
        return ShiftPoint(self.d, new_left_pre, self.left_per, new_right_pre, new_right_per)

    def unshift(self) -> "ShiftPoint":
        """tau^{-1}: new x_i = old x_{i-1}."""
        new_right_pre = (self.symbol(0),) + self.right_pre
        if self.left_pre:
            new_left_pre = self.left_pre[1:]
            new_left_per = self.left_per
        else:
            new_left_pre = ()
            new_left_per = self.left_per[1:] + self.left_per[:1]
        return ShiftPoint(self.d, new_left_pre, new_left_per, new_right_pre, self.right_per)

    def shifted(self, n: int) -> "ShiftPoint":
        p = self
        for _ in range(abs(n)):
            p = p.shift() if n > 0 else p.unshift()
        return p

    def splice_right(self, other: "ShiftPoint") -> "ShiftPoint":
        """Keep this left side (i <= 0), take the other's right side (i >= 1)."""
        return ShiftPoint(
            self.d, self.left_pre, self.left_per, other.right_pre, other.right_per
        )

    def agrees(self, other: "ShiftPoint", lo: int, hi: int) -> bool:
        return all(self.symbol(i) == other.symbol(i) for i in range(lo, hi + 1))

    def is_fixed(self) -> bool:
        return (
            len(self.left_per) == 1
            and not self.left_pre
            and not self.right_pre
            and self.left_per == self.right_per
        )


def _drop_outward(pre: tuple[int, ...], per: tuple[int, ...], n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Remove the first n entries of an outward tail reading."""
    if n <= len(pre):
        return pre[n:], per
    k = (n - len(pre)) % len(per)
    return (), per[k:] + per[:k]


def insert_word(x: ShiftPoint, word: tuple[int, ...]) -> ShiftPoint:
    """Base point with the word written over indices -n+1, ..., 0.

    The word (s_1, ..., s_n) lands with s_n at index 0 and s_1 at index
    -n+1; index -n and deeper keep x's original symbols, and the right side
    (i >= 1) is untouched. This is the base of the depth-n leaf labeled by
    the word.
    """
    n = len(word)
    pre, per = _drop_outward(x.left_pre, x.left_per, n)
    new_left_pre = tuple(reversed(word)) + pre
    return ShiftPoint(x.d, new_left_pre, per, x.right_pre, x.right_per)
