import math
import sys

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from matfor.ast import (Add, Apply, Const, Diag, For, Hadamard, MatMul,
                        MatrixType, Ones, OrderKind, OrderPrim, Prod,
                        ScalarMul, Sum, Transpose, Var)
from matfor.errors import DuplicateVariable, ParseError
from matfor.parser import format_schema, parse_expr, parse_schema
from matfor.printer import pretty


def test_plain_loop():
    assert parse_expr("for v, X . X + v") == \
        For("v", "X", Add(Var("X"), Var("v")))


def test_loop_with_initialiser():
    assert parse_expr("for v, X = [2] . X * X") == \
        For("v", "X", MatMul(Var("X"), Var("X")), init=Const(2))


def test_sum_keyword():
    assert parse_expr("sum v . v * v^T") == \
        Sum("v", MatMul(Var("v"), Transpose(Var("v"))))


def test_precedence_add_vs_mul():
    assert parse_expr("a + b * c") == \
        Add(Var("a"), MatMul(Var("b"), Var("c")))


def test_precedence_transpose_binds_tightest():
    assert parse_expr("a * b ^T") == \
        MatMul(Var("a"), Transpose(Var("b")))


def test_precedence_scalarmul_between_mul_and_add():
    assert parse_expr("s .* a * b + c") == \
        Add(ScalarMul(Var("s"), MatMul(Var("a"), Var("b"))), Var("c"))


def test_left_associativity():
    assert parse_expr("a + b + c") == Add(Add(Var("a"), Var("b")), Var("c"))
    assert parse_expr("a * b * c") == \
        MatMul(MatMul(Var("a"), Var("b")), Var("c"))


def test_parentheses_override():
    assert parse_expr("(a + b) * c") == \
        MatMul(Add(Var("a"), Var("b")), Var("c"))


@pytest.mark.parametrize("text,value", [
    ("[2]", 2), ("[-1]", -1), ("[1.5]", 1.5), ("[1.5e-3]", 1.5e-3),
    ("[inf]", math.inf), ("[+3]", 3), ("[.25]", 0.25),
])
def test_scalar_literals(text, value):
    assert parse_expr(text) == Const(value)


def test_order_primitives():
    assert parse_expr("Sless[gamma]") == OrderPrim(OrderKind.SLESS, "gamma")
    assert parse_expr("Nshift[g]") == OrderPrim(OrderKind.NSHIFT, "g")


def test_function_application():
    assert parse_expr("div(a, b)") == Apply("div", (Var("a"), Var("b")))


def test_unknown_function_names_parse():
    assert parse_expr("frobnicate(a)") == Apply("frobnicate", (Var("a"),))


def test_ones_and_diag():
    assert parse_expr("ones(V)") == Ones(Var("V"))
    assert parse_expr("diag(v)") == Diag(Var("v"))


@pytest.mark.parametrize("bad", [
    "", "for v . v", "a +", "[nope]", "a ** b", "(a", "sum . v",
    "Sless[3]", "a ^ T", "a @ b",
])
def test_syntax_errors_have_spans(bad):
    with pytest.raises(ParseError) as err:
        parse_expr(bad)
    assert err.value.span is not None or bad == ""


def test_deep_nesting_parses():
    depth = sys.getrecursionlimit()
    e = parse_expr("(" * depth + "V" + ")" * depth)
    assert e == Var("V")
    assert e.span.column == depth + 1


def test_error_reports_expected_tokens():
    with pytest.raises(ParseError) as err:
        parse_expr("a + ")
    assert err.value.expected


_ATOMS = "(, [, diag, for, hprod, identifier, ones, prod, sum"


@pytest.mark.parametrize("bad, message", [
    # `expect`, before a token and at the end of the input
    ("(V W", "1:4: unexpected 'W' (expected: ))"),
    ("(V", "1:3: unexpected '' (expected: ))"),
    # `whole`
    ("V V", "1:3: trailing input 'V' (expected: end)"),
    # `atom`
    (")", f"1:1: unexpected ')' (expected: {_ATOMS})"),
    ("a +", f"1:4: unexpected 'end of input' (expected: {_ATOMS})"),
    # `literal`
    ("[x]", "1:2: unexpected 'x' in scalar literal (expected: inf, number)"),
    ("[", "1:2: unexpected '' in scalar literal (expected: inf, number)"),
])
def test_syntax_error_messages_quote_the_token(bad, message):
    with pytest.raises(ParseError) as err:
        parse_expr(bad)
    assert str(err.value) == message


_LONG = "x" * 5000


@pytest.mark.parametrize("bad", [
    "(V " + _LONG,         # `expect`
    "V " + _LONG,          # `whole`
    "V + " + "1" * 5000,   # `atom`
    f"[{_LONG}]",          # `literal`
], ids=["expect", "trailing", "atom", "literal"])
def test_a_long_token_is_echoed_cut_short(bad):
    with pytest.raises(ParseError) as err:
        parse_expr(bad)
    assert f"'{bad.rstrip(']')[-1] * 37}'..." in str(err.value)
    assert len(str(err.value)) < 200


# ---------------------------------------------------------------------------
# schemas


def test_schema_basic():
    s = parse_schema("var V : alpha x alpha\nvar v : gamma x 1")
    assert s["V"] == MatrixType("alpha", "alpha")
    assert s["v"] == MatrixType("gamma", "1")


def test_schema_comments_and_blanks():
    s = parse_schema("# heading\n\nvar V : alpha x 1  # trailing\n")
    assert "V" in s


def test_schema_duplicate_rejected():
    with pytest.raises(DuplicateVariable):
        parse_schema("var V : alpha x alpha\nvar V : alpha x 1")


def test_a_long_schema_name_is_echoed_cut_short():
    line = f"var {'V' * 5000} : alpha x 1\n"
    with pytest.raises(DuplicateVariable,
                       match="^line 2: variable 'VVV") as err:
        parse_schema(line * 2)
    assert len(str(err.value)) < 100


def test_schema_format_round_trip():
    s = parse_schema("var V : alpha x beta\nvar u : beta x 1")
    assert parse_schema(format_schema(s)) == s


# ---------------------------------------------------------------------------
# pretty / round trip


@pytest.mark.parametrize("text", [
    "for v, X . X + v",
    "for y, X = e_Id . elim(X * V, y) * X",
    "sum v . v * v^T",
    "div(a, b)",
    "a + b * c^T",
    "(a + b)^T",
    "[2] .* (sum v . v)",
    "prod w . Sless[alpha] + w * w^T",
    "hprod v . hprod2(V, v * ones(V)^T)",
    "(for v, X . X + v) * V",
    "a .* b .* c",
    "diag(ones(V))",
])
def test_round_trip_examples(text):
    e = parse_expr(text)
    assert parse_expr(pretty(e)) == e


_names = st.sampled_from(["a", "b", "V", "W", "u", "v", "w", "x_1"])
_syms = st.sampled_from(["alpha", "beta", "gamma"])


def _exprs():
    leaves = (st.builds(Var, _names)
              | st.builds(Const, st.integers())
              | st.builds(Const, st.floats(allow_nan=False,
                                           allow_infinity=False,
                                           width=32))
              | st.builds(OrderPrim, st.sampled_from(list(OrderKind)), _syms))

    def extend(children):
        return st.one_of(
            st.builds(Transpose, children),
            st.builds(Add, children, children),
            st.builds(MatMul, children, children),
            st.builds(ScalarMul, children, children),
            st.builds(Ones, children),
            st.builds(Diag, children),
            st.builds(lambda f, args: Apply(f, tuple(args)),
                      st.sampled_from(["div", "gtz", "hprod2", "hsum3"]),
                      st.lists(children, min_size=1, max_size=3)),
            st.builds(Sum, _names, children),
            st.builds(Prod, _names, children),
            st.builds(Hadamard, _names, children),
            st.builds(lambda v, x, b: For(v, x, b), _names, _names, children),
            st.builds(lambda v, x, i, b: For(v, x, b, init=i),
                      _names, _names, children, children),
        )

    return st.recursive(leaves, extend, max_leaves=40)


@given(_exprs())
@settings(max_examples=300, deadline=None)
def test_round_trip_random(e):
    assert parse_expr(pretty(e)) == e


@given(st.text(max_size=40))
@settings(max_examples=300, deadline=None)
def test_parser_is_total(text):
    try:
        parse_expr(text)
    except ParseError:
        pass
