import random

import pytest

from matfor.ast import Apply, Const, For, MatMul, Var
from matfor.evaluator import evaluate, mat_equal
from matfor.fragments import Fragment, classify
from matfor.instance import Instance
from matfor.parser import parse_expr, parse_schema
from matfor.semiring import NAT
from matfor.sugar import desugar


def test_loopless_expressions_are_core():
    assert classify(parse_expr("V * W + u^T")) is Fragment.CORE


def test_sum_sugar_is_sum():
    assert classify(parse_expr("sum v . v")) is Fragment.SUM


def test_tc_is_prod():
    e = parse_expr("gtz(prod v . (sum j . j * j^T) + V)")
    assert classify(e) is Fragment.PROD


def test_hadamard_is_fo():
    assert classify(parse_expr("hprod v . V")) is Fragment.FO


def test_squaring_loop_is_full():
    assert classify(parse_expr("for v, X = [2] . X * X")) is Fragment.FULL


def test_sigma_pattern_both_argument_orders():
    assert classify(parse_expr("for v, X . X + v")) is Fragment.SUM
    assert classify(parse_expr("for v, X . v + X")) is Fragment.SUM


def test_sigma_pattern_requires_accumulator_independence():
    assert classify(parse_expr("for v, X . X + X")) is Fragment.FULL


def test_commuted_sigma_body_is_semantically_additive():
    s = parse_schema("var v : alpha x 1\nvar X : alpha x 1")
    rng = random.Random(4)
    left = parse_expr("for v, X . X + v")
    right = parse_expr("for v, X . v + X")
    for n in (1, 2, 4):
        inst = Instance({"alpha": n}, {})
        a = evaluate(left, inst, NAT, schema=s)
        b = evaluate(right, inst, NAT, schema=s)
        assert mat_equal(a, b, NAT)


def test_pi_pattern_needs_identity_init():
    s = "for v, X = (sum j . j * j^T) . X * V"
    assert classify(parse_expr(s)) is Fragment.PROD
    assert classify(parse_expr("for v, X . X * V")) is Fragment.FULL


def test_pi_pattern_fixes_the_multiplication_order():
    s = "for v, X = (sum j . j * j^T) . V * X"
    assert classify(parse_expr(s)) is Fragment.FULL


def test_hadamard_pattern():
    e = For("v", "X", Apply("hprod2", (Var("X"), Var("V"))),
            init=Const(1))
    assert classify(e) is Fragment.FO


def _pi_loop(init):
    return parse_expr(f"for v, X = ({init}) . X * V")


def _hadamard_loop(init):
    return parse_expr(f"for v, X = ({init}) . hprod2(X, V)")


def test_identity_recognition():
    assert classify(_pi_loop("sum j . j * j^T")) is Fragment.PROD
    assert classify(_pi_loop("for j, D . D + j * j^T")) is Fragment.PROD
    assert classify(_pi_loop("[1]")) is Fragment.PROD
    assert classify(_pi_loop("sum j . j * j")) is Fragment.FULL


def test_allones_recognition():
    assert classify(_hadamard_loop("sum i . i")) is Fragment.FO
    assert classify(_hadamard_loop("(sum i . i) * (sum k . k)^T")) is \
        Fragment.FO
    assert classify(_hadamard_loop("[1]")) is Fragment.FO
    assert classify(_hadamard_loop("sum i . i * i^T")) is Fragment.FULL


@pytest.mark.parametrize("one", [Const(1.0), Const(True)],
                         ids=["float", "bool"])
def test_a_one_of_any_number_type_is_a_template(one):
    # classification reads the literal's value, not its structural identity
    assert classify(For("v", "X", MatMul(Var("X"), Var("V")),
                        init=one)) is Fragment.PROD
    assert classify(For("v", "X", Apply("hprod2", (Var("X"), Var("V"))),
                        init=one)) is Fragment.FO
    assert classify(_pi_loop("[1.0]")) is Fragment.PROD
    assert classify(_hadamard_loop("[1.0]")) is Fragment.FO


@pytest.mark.parametrize("text,schema_text", [
    ("sum v . v", "var v : alpha x 1"),
    ("prod v . V", "var v : alpha x 1\nvar V : alpha x alpha"),
    ("hprod v . V", "var v : alpha x 1\nvar V : alpha x alpha"),
    ("sum v . prod w . V", "var v : alpha x 1\nvar w : alpha x 1\n"
                           "var V : alpha x alpha"),
    ("V + W", "var V : alpha x alpha\nvar W : alpha x alpha"),
])
def test_desugaring_preserves_classification(text, schema_text):
    e = parse_expr(text)
    s = parse_schema(schema_text)
    assert classify(desugar(e, s)) is classify(e)


def test_stdlib_classification(lib):
    assert classify(lib["ones_vec"].expr) is Fragment.SUM
    assert classify(lib["identity"].expr) is Fragment.SUM
    assert classify(lib["diag_embed"].expr) is Fragment.SUM
    assert classify(lib["four_clique"].expr) is Fragment.SUM
    assert classify(lib["shift_vector"].expr) is Fragment.PROD
    assert classify(lib["transitive_closure"].expr) is Fragment.PROD
    assert classify(lib["matrix_power"].expr) is Fragment.PROD
    assert classify(lib["repeated_squaring"].expr) is Fragment.FULL
    assert classify(lib["lu_upper"].expr) is Fragment.FULL
    # the paper's claim that prod-MATLANG inverts matrices, witnessed by
    # the Csanky suite: a rewrite that needs a general loop breaks it
    for name in ("trace_vector", "newton_matrix", "charpoly_coeffs",
                 "upper_tri_inverse", "lower_tri_inverse", "determinant",
                 "inverse"):
        assert classify(lib[name].expr) is Fragment.PROD, name
