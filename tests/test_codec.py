"""The Kronecker codec, ``scalars.pack`` and ``scalars.digits``, against
the shift-Horner reference, on both sides of the leaf size above which
both split in halves: signed sequences, k >= 2, and digits at the balanced
extremes 2**(k-1) and 1 - 2**(k-1)."""

import pytest

from wmpinv import scalars
from wmpinv.scalars import digits, pack

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

LONGEST = 3 * scalars._LEAF + 5
CASES = hypothesis.settings(max_examples=200, deadline=None)


def horner_pack(seq, k):
    v = 0
    for c in reversed(seq):
        v = (v << k) + c
    return v


def horner_digits(v, k):
    mask, half = (1 << k) - 1, 1 << (k - 1)
    out = []
    while v:
        d = v & mask
        v >>= k
        if d > half:
            d -= mask + 1
            v += 1
        out.append(d)
    return out


def sequences(draw, element):
    # the length is drawn first, so that long sequences are as likely as
    # short ones
    n = draw(st.integers(0, LONGEST))
    return draw(st.lists(element, min_size=n, max_size=n))


@st.composite
def signed(draw):
    """(k, seq): any signed integers, some far beyond 2**k."""
    return draw(st.integers(2, 80)), sequences(draw, st.integers(-(2**90), 2**90))


@st.composite
def balanced(draw):
    """(k, seq): a sequence of balanced base-2**k digits, often extreme."""
    k = draw(st.integers(2, 80))
    half = 1 << (k - 1)
    digit = st.one_of(st.sampled_from((half, 1 - half, 0, 1, -1)), st.integers(1 - half, half))
    return k, sequences(draw, digit)


@CASES
@hypothesis.given(signed())
def test_pack_is_shift_horner_on_any_signed_sequence(case):
    k, seq = case
    assert pack(seq, k) == horner_pack(seq, k)
    assert pack(tuple(seq), k) == horner_pack(seq, k)


@CASES
@hypothesis.given(balanced())
def test_digits_invert_pack_on_balanced_digits(case):
    k, seq = case
    v = pack(seq, k)
    assert v == horner_pack(seq, k)
    got = digits(v, k)
    assert got == horner_digits(v, k)
    while seq and not seq[-1]:
        seq.pop()
    assert got == seq


@CASES
@hypothesis.given(st.integers(2, 80), st.integers(0, LONGEST + 3), st.integers(), st.booleans())
def test_digits_of_any_integer(k, n, low, negative):
    # v of about n digits, low ones arbitrary
    v = (1 << (n * k)) + low
    v = -v if negative else v
    assert digits(v, k) == horner_digits(v, k)
