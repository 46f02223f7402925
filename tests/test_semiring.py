import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from matfor.ast import Const, Schema
from matfor.circuit_compile import compile_expr
from matfor.circuits import eval_circuit
from matfor.errors import (DivisionByZero, EvalError, FormatError,
                           UnsupportedConstant)
from matfor.evaluator import evaluate
from matfor.instance import Instance, parse_instance
from matfor.printer import pretty
from matfor.semiring import BOOL, NAT, RATIONAL, REAL, TROPICAL, by_name

EXACT = [NAT, BOOL, TROPICAL, RATIONAL]

_carrier = {
    "nat": st.integers(0, 10),
    "bool": st.sampled_from([0, 1]),
    "tropical": st.sampled_from([math.inf, 0.0, 1.0, 2.5, -3.0, 7.0]),
    "rational": st.fractions(max_denominator=50),
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
    # -inf is no carrier value, but an overflowing sum reaches it
    assert TROPICAL.fmt(TROPICAL.times(-1e308, -1e308)) == "-inf"
    assert BOOL.parse("1") == 1


def test_nat_prints_past_the_int_string_limit():
    # the inner 600-digit chunks are all zero and must keep their zeros
    assert NAT.fmt(10 ** 5000 + 7) == "1" + "0" * 4999 + "7"


def test_rational_reads_decimal_text_exactly():
    # 0.1 is one tenth, not the float nearest to it
    assert RATIONAL.parse("0.1") == Fraction(1, 10)
    assert RATIONAL.parse("0.1") != Fraction(0.1)
    assert RATIONAL.parse("-1/3") == Fraction(-1, 3)
    assert RATIONAL.parse("1e3") == 1000


def test_rational_prints_what_it_reads():
    for v in (Fraction(0), Fraction(-7, 3), Fraction(4), Fraction(1, 10)):
        assert RATIONAL.parse(RATIONAL.fmt(v)) == v
    assert RATIONAL.fmt(Fraction(-7, 3)) == "-7/3"
    # past the int-string limit, as nats are
    big = Fraction(-10 ** 5000, 3)
    assert RATIONAL.fmt(big) == "-1" + "0" * 5000 + "/3"
    assert RATIONAL.parse(RATIONAL.fmt(big)) == big


def test_rational_division_and_positivity():
    assert RATIONAL.div(Fraction(1), Fraction(3)) == Fraction(1, 3)
    with pytest.raises(DivisionByZero):
        RATIONAL.div(Fraction(1), Fraction(0))
    assert RATIONAL.gtz(Fraction(1, 9)) == 1
    assert RATIONAL.gtz(Fraction(-1, 9)) == 0
    assert RATIONAL.gtz(Fraction(0)) == 0
    assert by_name("rational") is RATIONAL


@pytest.mark.parametrize("text", [
    "nan", "inf", "-inf", "1/0", "x", "", "1e99999", "1e-99999", "--1",
    "1/-3", "1" * 5000 + "x"])
def test_rational_carrier_violations(text):
    with pytest.raises(FormatError):
        RATIONAL.parse(text)


E, U = EvalError, UnsupportedConstant
F = Fraction
#: a literal's value over real, nat, bool, tropical and rational, then the
#: gate count of its circuit; E and U are the errors evaluating and
#: compiling it raise
LITERALS = [
    pytest.param(0, 0.0, 0, 0, 0.0, F(0), 1, id="0"),
    pytest.param(1, 1.0, 1, 1, 1.0, F(1), 1, id="1"),
    pytest.param(-1, -1.0, E, E, -1.0, F(-1), U, id="-1"),
    pytest.param(2, 2.0, 2, E, 2.0, F(2), 2, id="2"),
    pytest.param(7, 7.0, 7, E, 7.0, F(7), 2, id="7"),
    pytest.param(10 ** 20, 1e20, 10 ** 20, E, 1e20, F(10 ** 20), U,
                 id="10**20"),
    pytest.param(10 ** 400, math.inf, 10 ** 400, E, math.inf, F(10 ** 400), U,
                 id="10**400"),
    pytest.param(0.0, 0.0, E, E, 0.0, F(0), 1, id="0.0"),
    pytest.param(-0.0, -0.0, E, E, -0.0, F(0), 1, id="-0.0"),
    pytest.param(1.0, 1.0, E, E, 1.0, F(1), 1, id="1.0"),
    pytest.param(2.5, 2.5, E, E, 2.5, F(5, 2), 4, id="2.5"),
    pytest.param(0.1, 0.1, E, E, 0.1, F(1, 10), 3, id="0.1"),
    pytest.param(1 / 3, 1 / 3, E, E, 1 / 3, F(3333333333333333, 10 ** 16), U,
                 id="1/3"),
    pytest.param(1e16, 1e16, E, E, 1e16, F(10 ** 16), U, id="1e16"),
    pytest.param(1e300, 1e300, E, E, 1e300, F(10 ** 300), U, id="1e300"),
    pytest.param(math.inf, math.inf, E, E, math.inf, E, U, id="inf"),
    pytest.param(-math.inf, -math.inf, E, E, E, E, U, id="-inf"),
    pytest.param(math.nan, E, E, E, E, E, U, id="nan"),
    pytest.param(True, E, E, E, E, E, U, id="True"),
]


@pytest.mark.parametrize(
    "value, real, nat, bool_, tropical, rational, gates", LITERALS)
def test_a_literal_means_what_its_text_means(value, real, nat, bool_,
                                             tropical, rational, gates):
    """`[c]` is the carrier element the text `c` is in an instance file."""
    e = Const(value)
    text = pretty(e)[1:-1]
    for sr, want in zip((REAL, NAT, BOOL, TROPICAL, RATIONAL),
                        (real, nat, bool_, tropical, rational)):
        file = f"semiring {sr.name}\nsize a 1\nmatrix V a a\n{text}\n"
        if want is E:
            with pytest.raises(EvalError, match="not in the .* carrier"):
                evaluate(e, Instance(), sr)
            with pytest.raises(FormatError):
                parse_instance(file)
            continue
        got = evaluate(e, Instance(), sr).get(0, 0)
        # `repr` tells the carrier's type and the sign of zero
        assert repr(got) == repr(want), sr.name
        read = parse_instance(file).instance.mats["V"].get(0, 0)
        assert repr(read) == repr(want), sr.name
    if gates is U:
        with pytest.raises(UnsupportedConstant):
            compile_expr(e, Schema(), {})
    else:
        c = compile_expr(e, Schema(), {})
        assert len(c.gates) == gates
        assert eval_circuit(c, {}, RATIONAL) == {(1, 1): rational}


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
    # an infinity equals only itself, whatever the tolerance
    assert REAL.eq(math.inf, math.inf, tol=1e-9)
    assert not REAL.eq(math.inf, 1e308, tol=1e300)
    assert not REAL.eq(-math.inf, math.inf, tol=1e-9)


def test_by_name():
    assert by_name("real") is REAL
    with pytest.raises(Exception):
        by_name("complex")
