import math

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from matfor.errors import FormatError
from matfor.semiring import BOOL, NAT, REAL, TROPICAL, by_name

EXACT = [NAT, BOOL, TROPICAL]

_carrier = {
    "nat": st.integers(0, 10),
    "bool": st.sampled_from([0, 1]),
    "tropical": st.sampled_from([math.inf, 0.0, 1.0, 2.5, -3.0, 7.0]),
}


def triples(sr):
    vals = _carrier[sr.name]
    return st.tuples(vals, vals, vals)


@pytest.mark.parametrize("sr", EXACT, ids=lambda s: s.name)
def test_semiring_laws_exact(sr):
    @given(triples(sr))
    @settings(max_examples=200, deadline=None)
    def laws(abc):
        a, b, c = abc
        assert sr.plus(sr.plus(a, b), c) == sr.plus(a, sr.plus(b, c))
        assert sr.times(sr.times(a, b), c) == sr.times(a, sr.times(b, c))
        assert sr.plus(a, b) == sr.plus(b, a)
        assert sr.times(a, b) == sr.times(b, a)
        assert sr.times(a, sr.plus(b, c)) == \
            sr.plus(sr.times(a, b), sr.times(a, c))
        assert sr.plus(a, sr.zero) == a
        assert sr.times(a, sr.one) == a
        assert sr.times(a, sr.zero) == sr.zero
        assert sr.times(sr.zero, a) == sr.zero

    laws()


def test_real_identities_and_annihilation():
    for a in (0.0, 1.5, -2.25, 1e9):
        assert REAL.plus(a, REAL.zero) == a
        assert REAL.times(a, REAL.one) == a
        assert REAL.times(a, REAL.zero) == 0.0
        assert REAL.plus(a, 2.0) == REAL.plus(2.0, a)


def test_tropical_constants():
    assert TROPICAL.zero == math.inf
    assert TROPICAL.one == 0.0
    assert TROPICAL.plus(3.0, math.inf) == 3.0
    assert TROPICAL.times(3.0, math.inf) == math.inf


def test_parsing_and_printing():
    assert REAL.parse("1.5") == 1.5
    assert REAL.fmt(1.0) == "1"
    assert REAL.fmt(1 / 3).startswith("0.3333333333333333")
    assert NAT.parse("12") == 12
    assert TROPICAL.parse("inf") == math.inf
    assert TROPICAL.fmt(math.inf) == "inf"
    assert BOOL.parse("1") == 1


def test_nat_prints_past_the_int_string_limit():
    # the inner 600-digit chunks are all zero and must keep their zeros
    assert NAT.fmt(10 ** 5000 + 7) == "1" + "0" * 4999 + "7"


@pytest.mark.parametrize("sr,text", [
    (NAT, "-1"), (NAT, "1.5"), (BOOL, "2"), (TROPICAL, "-inf"),
    (REAL, "nan"), (REAL, "zebra"),
])
def test_carrier_violations(sr, text):
    with pytest.raises(FormatError):
        sr.parse(text)


def test_real_equality_uses_tolerance():
    assert REAL.eq(1.0, 1.0 + 1e-12, tol=1e-9)
    assert not REAL.eq(1.0, 1.1, tol=1e-9)
    assert NAT.eq(3, 3, tol=100.0)
    assert not NAT.eq(3, 4, tol=100.0)


def test_by_name():
    assert by_name("real") is REAL
    with pytest.raises(Exception):
        by_name("complex")
