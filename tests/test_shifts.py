import pytest
from hypothesis import given
from hypothesis import strategies as st

from dynlab.shifts import ShiftPoint, _normalize, insert_word


@st.composite
def raw_tails(draw):
    """An alphabet size and two (preperiod, period) tails, unnormalized."""
    d = draw(st.integers(1, 4))
    word = st.lists(st.integers(0, d - 1), max_size=6).map(tuple)
    period = st.lists(st.integers(0, d - 1), min_size=1, max_size=6).map(tuple)
    return d, draw(word), draw(period), draw(word), draw(period)


def outward(pre, per, k):
    """The k-th symbol of an outward tail reading."""
    return pre[k] if k < len(pre) else per[(k - len(pre)) % len(per)]


def test_shift_unshift_are_inverse_bijections():
    pts = [
        ShiftPoint.from_words(2, left=(0, 1, 1), right=(1, 0, 1)),
        ShiftPoint.constant(3, 2),
        ShiftPoint(2, (1,), (0, 1), (0, 0), (1,)),
    ]
    for x in pts:
        assert x.shift().unshift() == x
        assert x.unshift().shift() == x
        y = x.shifted(5).shifted(-5)
        assert y == x


def test_indexing_convention():
    x = ShiftPoint.from_words(2, left=(0, 1, 1), right=(1, 0, 1))
    assert x.symbol(0) == 0
    assert x.symbol(-1) == 1
    assert x.symbol(-2) == 1
    assert x.symbol(-3) == 0  # fill
    assert x.symbol(1) == 1
    assert x.symbol(2) == 0
    assert x.symbol(4) == 0  # fill
    y = x.shift()
    assert all(y.symbol(i) == x.symbol(i + 1) for i in range(-6, 6))


def test_equality_normalizes_representations():
    a = ShiftPoint(2, (), (1, 0), (), (1,))
    b = ShiftPoint(2, (1, 0), (1, 0), (), (1,))
    assert a == b
    assert hash(a) == hash(b)
    c = ShiftPoint(2, (), (1, 0, 1, 0), (), (1,))
    assert a == c
    assert a != ShiftPoint(2, (0,), (1, 0), (), (1,))


def test_insert_word_layout():
    x = ShiftPoint.from_words(3, left=(2, 2, 2), right=(1, 1), fill=0)
    sigma = (0, 1, 2)
    y = insert_word(x, sigma)
    # sigma occupies indices -2, -1, 0 with the last symbol at 0
    assert y.symbol(0) == 2
    assert y.symbol(-1) == 1
    assert y.symbol(-2) == 0
    # index -3 and deeper keep x's own symbols at those indices
    assert y.symbol(-3) == x.symbol(-3)
    assert y.symbol(-4) == x.symbol(-4)
    # the right side is untouched
    assert all(y.symbol(i) == x.symbol(i) for i in range(1, 6))


def test_insert_words_distinct_per_length():
    # distinct words of one length give distinct bases (across lengths a
    # degenerate base like the constant point can collide: 0-words extend it)
    x = ShiftPoint.constant(2, 0)
    for n in (1, 2, 3):
        words = [tuple((v >> i) & 1 for i in range(n)) for v in range(2**n)]
        seen = {insert_word(x, w) for w in words}
        assert len(seen) == 2**n
    assert insert_word(x, (0,)) == insert_word(x, (0, 0))  # the degenerate case


def test_splice_and_agreement():
    a = ShiftPoint.from_words(2, left=(1, 1), right=(0, 0), fill=0)
    b = ShiftPoint.from_words(2, left=(0,), right=(1, 0, 1), fill=0)
    z = a.splice_right(b)
    assert all(z.symbol(i) == a.symbol(i) for i in range(-5, 1))
    assert all(z.symbol(i) == b.symbol(i) for i in range(1, 8))
    assert z.agrees(b, 1, 10)


def test_fixed_point_detection():
    assert ShiftPoint.constant(4, 3).is_fixed()
    assert not ShiftPoint.from_words(2, left=(1,), right=()).is_fixed()


def test_alphabet_validation():
    with pytest.raises(ValueError):
        ShiftPoint.constant(2, 5)


@given(raw_tails(), st.integers(1, 9))
def test_shift_and_unshift_invert_each_other(tails, n):
    x = ShiftPoint(*tails)
    assert x.shift().unshift() == x
    assert x.unshift().shift() == x
    assert x.shifted(n).shifted(-n) == x
    assert x.shifted(n).window(-8, 8) == x.window(n - 8, n + 8)


@given(raw_tails())
def test_normalization_is_idempotent_and_keeps_the_sequence(tails):
    d, lp, lq, rp, rq = tails
    x = ShiftPoint(d, lp, lq, rp, rq)
    assert _normalize(x.left_pre, x.left_per) == (x.left_pre, x.left_per)
    assert _normalize(x.right_pre, x.right_per) == (x.right_pre, x.right_per)
    again = ShiftPoint(d, x.left_pre, x.left_per, x.right_pre, x.right_per)
    assert again == x and hash(again) == hash(x)
    assert all(x.symbol(-k) == outward(lp, lq, k) for k in range(40))
    assert all(x.symbol(k + 1) == outward(rp, rq, k) for k in range(40))
