import random

import pytest

from matfor.ast import (Add, Apply, For, Hadamard, MatrixType, Ones, Prod,
                        Schema, Sum, Var, walk)
from matfor.errors import ArityMismatch
from matfor.evaluator import evaluate
from matfor.instance import Instance
from matfor.matrix import KMatrix, mat_equal
from matfor.parser import parse_expr, parse_schema
from matfor.semiring import NAT, REAL
from matfor.sugar import desugar, reduce_apply_to_scalars
from matfor.typecheck import typecheck

SUGAR = (Sum, Prod, Hadamard, Ones)


def nat_instance(rng, schema, dims):
    mats = {}
    for name, t in schema.vars.items():
        r = dims.get(t.rows, 1)
        c = dims.get(t.cols, 1)
        mats[name] = KMatrix(r, c, tuple(rng.randrange(0, 4)
                                         for _ in range(r * c)))
    return Instance(dict(dims), mats)


def test_sum_template():
    s = parse_schema("var v : alpha x 1")
    out = desugar(parse_expr("sum v . v"), s)
    assert isinstance(out, For)
    assert out.init is None
    assert out.body == Add(Var(out.acc), Var("v"))


def test_prod_template_gets_identity_init():
    s = parse_schema("var v : alpha x 1\nvar V : alpha x alpha")
    out = desugar(parse_expr("prod v . V"), s)
    assert isinstance(out, For)
    assert out.init is not None
    assert out.body.left == Var(out.acc)


def test_diag_template_shape():
    s = parse_schema("var e : alpha x 1")
    out = desugar(parse_expr("diag(e)"), s)
    assert isinstance(out, For)
    assert out.acc_type == MatrixType("alpha", "alpha")


def test_fresh_names_avoid_collisions():
    s = parse_schema("var v : alpha x 1\nvar _acc1 : alpha x alpha")
    out = desugar(parse_expr("sum v . v"), s)
    assert out.acc != "_acc1"


def test_desugared_tree_is_core():
    s = parse_schema("var v : alpha x 1\nvar V : alpha x alpha")
    out = desugar(parse_expr("hprod v . V + diag(ones(V))"), s)
    assert not any(isinstance(n, SUGAR) for n in walk(out))


@pytest.mark.parametrize("text,schema_text", [
    ("sum v . v", "var v : alpha x 1"),
    ("sum v . v * v^T", "var v : alpha x 1"),
    ("prod v . V", "var v : alpha x 1\nvar V : alpha x alpha"),
    ("hprod v . V + v * v^T", "var v : alpha x 1\nvar V : alpha x alpha"),
    ("ones(V)", "var V : alpha x beta"),
    ("diag(u)", "var u : alpha x 1"),
    ("sum v . hprod2(V, v * ones(V)^T)",
     "var v : alpha x 1\nvar V : alpha x alpha"),
])
def test_desugar_preserves_type_and_semantics(text, schema_text):
    rng = random.Random(text)
    s = parse_schema(schema_text)
    e = parse_expr(text)
    out = desugar(e, s)
    assert typecheck(out, s) == typecheck(e, s)
    for _ in range(5):
        dims = {"alpha": rng.randrange(1, 5), "beta": rng.randrange(1, 5)}
        inst = nat_instance(rng, s, dims)
        a = evaluate(e, inst, NAT, schema=s)
        b = evaluate(out, inst, NAT, schema=s)
        assert mat_equal(a, b, NAT)


def test_desugar_is_idempotent():
    s = parse_schema("var v : alpha x 1\nvar V : alpha x alpha")
    e = parse_expr("prod v . V + diag(ones(V))")
    once = desugar(e, s)
    assert desugar(once, s) == once


def test_reduce_apply_leaves_scalars_alone():
    s = parse_schema("var s : 1 x 1")
    e = parse_expr("gtz(s)")
    assert reduce_apply_to_scalars(e, s) == e


def test_reduce_apply_rejects_a_nullary_application():
    e = Apply("f", ())
    with pytest.raises(ArityMismatch) as reduced:
        reduce_apply_to_scalars(e, Schema())
    with pytest.raises(ArityMismatch) as checked:
        typecheck(e, Schema())
    assert str(reduced.value) == str(checked.value)


def test_reduce_apply_rewrites_matrix_application():
    s = parse_schema("var A : alpha x alpha\nvar B : alpha x alpha")
    out = reduce_apply_to_scalars(parse_expr("div(A, B)"), s)
    assert isinstance(out, Sum)
    assert typecheck(out, s) == MatrixType("alpha", "alpha")
    applies = [n for n in walk(out) if isinstance(n, Apply)]
    assert applies and all(a.func == "div" for a in applies)


@pytest.mark.parametrize("text,schema_text,sr", [
    ("hprod2(V, W)", "var V : alpha x beta\nvar W : alpha x beta", NAT),
    ("hsum3(u, u, u)", "var u : alpha x 1", NAT),
    ("div(A, B)", "var A : alpha x alpha\nvar B : alpha x alpha", REAL),
])
def test_reduce_apply_preserves_semantics(text, schema_text, sr):
    rng = random.Random(99)
    s = parse_schema(schema_text)
    e = parse_expr(text)
    out = reduce_apply_to_scalars(e, s)
    assert typecheck(out, s) == typecheck(e, s)
    for _ in range(5):
        dims = {"alpha": rng.randrange(1, 4), "beta": rng.randrange(1, 4)}
        if sr is NAT:
            inst = nat_instance(rng, s, dims)
        else:
            mats = {}
            for name, t in s.vars.items():
                r, c = dims.get(t.rows, 1), dims.get(t.cols, 1)
                mats[name] = KMatrix(r, c, tuple(rng.uniform(1.0, 2.0)
                                                 for _ in range(r * c)))
            inst = Instance(dict(dims), mats)
        a = evaluate(e, inst, sr, schema=s)
        b = evaluate(out, inst, sr, schema=s)
        assert mat_equal(a, b, sr, tol=1e-12)


def test_reduce_apply_is_idempotent():
    s = parse_schema("var A : alpha x alpha\nvar B : alpha x alpha")
    e = parse_expr("div(A, B)")
    once = reduce_apply_to_scalars(e, s)
    assert reduce_apply_to_scalars(once, s) == once


# ---------------------------------------------------------------------------
# Over the reals, native sugar and its lowering agree on finite entries

LOWERING_SCHEMA = """
var V : alpha x alpha
var W : alpha x alpha
var u : alpha x 1
var v : alpha x 1
var w : alpha x 1
"""

# criterion 12's corpus
LOWERING_CORPUS = [
    "sum v . v",
    "sum v . v * v^T",
    "prod v . V",
    "hprod v . V + v * v^T",
    "ones(V) + diag(u)^T * u",
    "diag(ones(W))",
    "sum v . hprod2(V, v * v^T)",
    "hsum3(V, W, V)",
    "hprod2(u, u) + u",
    "prod v . hprod2(V, W) + diag(v)",
    "sum v . sum w . (v^T * V * w) .* (v * w^T)",
]


def _real_both_ways(text, mats, n):
    """`text` evaluated natively, desugared and scalarised, over real."""
    s = parse_schema(LOWERING_SCHEMA)
    e = parse_expr(text)
    inst = Instance({"alpha": n}, mats)
    return [evaluate(x, inst, REAL, schema=s)
            for x in (e, desugar(e, s), reduce_apply_to_scalars(e, s))]


@pytest.mark.parametrize("text", LOWERING_CORPUS)
def test_lowering_agrees_over_real_on_finite_entries(text):
    rng = random.Random(212)
    draws = (-0.0, 0.0, 1.0, -2.5, 0.5, 3.0)
    for _ in range(8):
        n = rng.randrange(1, 5)
        mats = {}
        for name, t in parse_schema(LOWERING_SCHEMA).vars.items():
            r, c = (n if t.rows == "alpha" else 1), (n if t.cols == "alpha"
                                                     else 1)
            mats[name] = KMatrix(r, c, tuple(rng.choice(draws)
                                             for _ in range(r * c)))
        native, lowered, scalarised = _real_both_ways(text, mats, n)
        assert mat_equal(lowered, native, REAL), text
        assert mat_equal(scalarised, native, REAL), text


def test_prod_over_an_infinite_entry_differs_once_desugared():
    # the identity start multiplies inf by 0.0
    inf = float("inf")
    native, lowered, _ = _real_both_ways(
        "prod v . V", {"V": KMatrix(2, 2, (inf, 1.0, 2.0, 3.0))}, 2)
    assert repr(native.entries) == "(inf, inf, inf, 11.0)"
    assert repr(lowered.entries) == "(inf, inf, nan, nan)"


def test_diag_of_an_infinite_entry_differs_once_desugared():
    # both the selection b_i^T * u and the scaled v * v^T take inf * 0.0
    inf = float("inf")
    native, lowered, _ = _real_both_ways(
        "diag(u)", {"u": KMatrix(2, 1, (inf, -0.0))}, 2)
    assert repr(native.entries) == "(inf, 0.0, 0.0, -0.0)"
    assert repr(lowered.entries) == "(nan, nan, nan, nan)"
