import pytest

from matfor.ast import (Add, Apply, For, MatMul, MatrixType, Schema, Sum,
                        Transpose, Var)
from matfor.errors import (ArityMismatch, IteratorNotVector, TypeMismatch,
                           UnboundVariable)
from matfor.parser import parse_expr, parse_schema
from matfor.typecheck import typecheck

ALPHA1 = MatrixType("alpha", "1")


def check(text, schema_text):
    return typecheck(parse_expr(text), parse_schema(schema_text))


def test_accumulating_loop_has_vector_type():
    e = For("v", "X", Add(Var("X"), Var("v")))
    s = Schema({"v": ALPHA1, "X": ALPHA1})
    assert typecheck(e, s) == ALPHA1


def test_inner_symbol_mismatch():
    s = "var V : alpha x beta\nvar W : alpha x beta"
    with pytest.raises(TypeMismatch):
        check("V * W", s)


def test_sum_of_outer_products_is_square():
    e = Sum("v", MatMul(Var("v"), Transpose(Var("v"))))
    s = Schema({"v": MatrixType("gamma", "1")})
    assert typecheck(e, s) == MatrixType("gamma", "gamma")


@pytest.mark.parametrize("text,schema,expected", [
    ("V^T", "var V : alpha x beta", "beta x alpha"),
    ("u^T * V", "var u : alpha x 1\nvar V : alpha x beta", "1 x beta"),
    ("[2]", "", "1 x 1"),
    ("[1] .* V", "var V : alpha x beta", "alpha x beta"),
    ("ones(V)", "var V : alpha x beta", "alpha x 1"),
    ("diag(u)", "var u : alpha x 1", "alpha x alpha"),
    ("Sless[alpha]", "", "alpha x alpha"),
    ("Emin[alpha]", "", "alpha x 1"),
    ("Nshift[alpha]", "", "alpha x alpha"),
    ("div(V, W)", "var V : alpha x beta\nvar W : alpha x beta",
     "alpha x beta"),
])
def test_rule_table(text, schema, expected):
    assert str(check(text, schema)) == expected


def test_unbound_variable():
    with pytest.raises(UnboundVariable):
        check("V", "")


@pytest.mark.parametrize("expr, schema, error", [
    (parse_expr("V + " + "x" * 5000), "var V : 1 x 1", UnboundVariable),
    (Apply("f" * 5000, ()), "", ArityMismatch),
    (parse_expr("sum " + "v" * 5000 + " . V"),
     "var " + "v" * 5000 + " : 1 x 1\nvar V : 1 x 1", IteratorNotVector),
], ids=["unbound", "no arguments", "iterator"])
def test_a_long_name_is_echoed_cut_short(expr, schema, error):
    with pytest.raises(error) as err:
        typecheck(expr, parse_schema(schema))
    assert "..." in str(err.value) and len(str(err.value)) < 200


def test_a_long_size_symbol_is_echoed_cut_short():
    with pytest.raises(TypeMismatch) as err:
        check("V + W", f"var V : alpha x {'b' * 5000}\nvar W : alpha x alpha")
    assert str(err.value) == (
        f"addition needs equal types: alpha x {'b' * 37}... vs alpha x alpha")


def test_addition_requires_equal_types():
    with pytest.raises(TypeMismatch):
        check("V + V^T", "var V : alpha x beta")


def test_scalar_product_left_operand():
    with pytest.raises(TypeMismatch):
        check("V .* V", "var V : alpha x beta")


def test_apply_arity_is_checked_for_builtins():
    with pytest.raises(ArityMismatch):
        check("div(V)", "var V : alpha x beta")


def test_apply_requires_common_argument_type():
    with pytest.raises(TypeMismatch):
        check("div(V, V^T)", "var V : alpha x beta")


def test_unknown_functions_typecheck_structurally():
    assert str(check("frob(V, W)",
                     "var V : alpha x beta\nvar W : alpha x beta")) \
        == "alpha x beta"


def test_iterator_must_be_nonunit_vector():
    e = For("v", "X", Add(Var("X"), Var("v")))
    with pytest.raises(IteratorNotVector):
        typecheck(e, Schema({"v": MatrixType("alpha", "alpha"),
                             "X": ALPHA1}))
    with pytest.raises(IteratorNotVector):
        typecheck(e, Schema({"v": MatrixType("1", "1"),
                             "X": MatrixType("1", "1")}))


def test_loop_body_must_match_accumulator():
    with pytest.raises(TypeMismatch):
        check("for v, X . X + v",
              "var v : alpha x 1\nvar X : alpha x alpha")


def test_loop_init_must_match_accumulator():
    with pytest.raises(TypeMismatch):
        check("for v, X = v . X + v",
              "var v : alpha x 1\nvar X : 1 x 1")


def test_prod_needs_square_body():
    with pytest.raises(TypeMismatch):
        check("prod v . v", "var v : alpha x 1")


def test_diag_needs_column():
    with pytest.raises(TypeMismatch):
        check("diag(V)", "var V : alpha x beta")


def test_typing_is_deterministic():
    s = parse_schema("var V : alpha x alpha\nvar v : alpha x 1")
    e = parse_expr("sum v . (v^T * V * v) .* (v * v^T)")
    assert typecheck(e, s) == typecheck(e, s)
