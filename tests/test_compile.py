import dataclasses
import random
from fractions import Fraction

import pytest

from matfor import stdlib
from matfor.ast import (Expr, OrderKind, OrderPrim, node_table, substitute,
                        walk)
from matfor.circuit_compile import compile_expr, degree_growth
from matfor.circuits import INPUT, dump_circuit, eval_circuit, stats
from matfor.errors import (MatforError, UnassignedSymbol,
                           UnsupportedConstant, UnsupportedFunction)
from matfor.evaluator import evaluate
from matfor.instance import Instance
from matfor.matrix import KMatrix
from matfor.parser import parse_expr, parse_schema
from matfor.semiring import REAL


def test_inner_product_circuit():
    s = parse_schema("var u : alpha x 1\nvar v : alpha x 1")
    c = compile_expr(parse_expr("u^T * v"), s, {"alpha": 2})
    out = eval_circuit(c, {("u", 1, 1): 1, ("u", 2, 1): 2,
                           ("v", 1, 1): 3, ("v", 2, 1): 4})
    assert out[(1, 1)] == 11
    assert stats(c).degree == 2


def test_variable_compiles_to_the_identity_wiring():
    s = parse_schema("var V : alpha x alpha")
    c = compile_expr(parse_expr("V"), s, {"alpha": 3})
    assert sum(1 for g in c.gates if g.kind == INPUT) == 9
    assert len(c.outputs) == 9
    assert stats(c).degree == 1


def test_squaring_loop_degree_doubles():
    s = parse_schema("var A : 1 x 1\nvar v : g x 1\nvar X : 1 x 1")
    e = parse_expr("for v, X = A . X * X")
    assert degree_growth(e, s, "g", [1, 2, 3, 4]) == \
        [(1, 2), (2, 4), (3, 8), (4, 16)]
    c = compile_expr(e, s, {"g": 3})
    assert stats(c).degree == 8


def test_all_ones_loop_degree_stays_one():
    s = parse_schema("var v : alpha x 1\nvar X : alpha x 1")
    e = parse_expr("for v, X . X + v")
    assert degree_growth(e, s, "alpha", range(1, 6)) == \
        [(n, 1) for n in range(1, 6)]


def test_trace_degree_stays_one():
    s = parse_schema("var v : alpha x 1\nvar V : alpha x alpha")
    e = parse_expr("sum v . v^T * V * v")
    assert all(d == 1 for _, d in degree_growth(e, s, "alpha", range(2, 7)))


def test_loops_fold_canonical_vectors_to_constants():
    s = parse_schema("var v : alpha x 1\nvar X : alpha x alpha")
    e = parse_expr("for v, X . X + v * v^T")
    c = compile_expr(e, s, {"alpha": 4})
    assert all(g.kind != INPUT for g in c.gates)
    out = eval_circuit(c, {})
    for i in range(4):
        for j in range(4):
            assert out[(i + 1, j + 1)] == (1 if i == j else 0)


def test_gtz_is_rejected():
    s = parse_schema("var V : alpha x alpha")
    with pytest.raises(UnsupportedFunction):
        compile_expr(parse_expr("gtz(V)"), s, {"alpha": 2})


def test_unassigned_symbol():
    s = parse_schema("var V : alpha x beta")
    with pytest.raises(UnassignedSymbol):
        compile_expr(parse_expr("V"), s, {"alpha": 2})


def test_negative_literals_cannot_survive_to_gates():
    s = parse_schema("var x : 1 x 1")
    with pytest.raises(UnsupportedConstant):
        compile_expr(parse_expr("[-1] .* x"), s, {})


def test_negative_literals_may_fold_away():
    s = parse_schema("var x : 1 x 1")
    # (1 + (-1) * 1) == 0 folds before any gate is needed
    c = compile_expr(parse_expr("([1] + [-1] .* [1]) .* x"), s, {})
    assert eval_circuit(c, {("x", 1, 1): 5}) == {(1, 1): 0}


def test_integer_literals_are_synthesised_from_ones():
    s = parse_schema("var x : 1 x 1")
    c = compile_expr(parse_expr("[3] .* x"), s, {})
    out = eval_circuit(c, {("x", 1, 1): 2.0})
    assert out[(1, 1)] == 6.0


def test_division_compiles_and_matches_the_evaluator():
    s = parse_schema("var a : 1 x 1\nvar b : 1 x 1")
    e = parse_expr("div(a, b)")
    c = compile_expr(e, s, {})
    assert eval_circuit(c, {("a", 1, 1): 1.0, ("b", 1, 1): 4.0}) == \
        {(1, 1): 0.25}


def test_compiled_circuits_are_well_formed():
    s = parse_schema("var V : alpha x alpha\nvar v : alpha x 1")
    e = parse_expr("sum v . (v^T * V * v) .* (v * v^T)")
    c = compile_expr(e, s, {"alpha": 3})
    c.validate()
    reachable = set()
    stack = [idx for _, idx in c.outputs]
    while stack:
        i = stack.pop()
        if i not in reachable:
            reachable.add(i)
            stack.extend(c.gates[i].children)
    assert reachable == set(range(len(c.gates)))


def agreement_case(lib, name, n, rng, pin=None):
    item = lib[name]
    expr = substitute(item.expr, pin) if pin else item.expr
    dims = {"alpha": n}
    c = compile_expr(expr, item.schema, dims)
    mats, inputs = {}, {}
    for vn in item.inputs:
        if pin and vn in pin:
            continue
        t = item.schema[vn]
        r, col = dims.get(t.rows, 1), dims.get(t.cols, 1)
        vals = [Fraction(rng.randint(-3, 3)) for _ in range(r * col)]
        mats[vn] = KMatrix(r, col, tuple(float(v) for v in vals))
        for i in range(r):
            for j in range(col):
                inputs[(vn, i + 1, j + 1)] = vals[i * col + j]
    inst = Instance(dims, mats)
    want = evaluate(expr, inst, REAL, schema=item.schema)
    got = eval_circuit(c, inputs)
    for i in range(want.rows):
        for j in range(want.cols):
            assert abs(float(got[(i + 1, j + 1)]) - want.get(i, j)) < 1e-9


@pytest.mark.parametrize("name,pin", [
    ("ones_vec", None), ("identity", None), ("diag_embed", None),
    ("index_le", None), ("index_lt", None),
    ("shift_by_index", None), ("shift_vector", None),
    ("power_sum", None),
    ("matrix_power", {"v": OrderPrim(OrderKind.EMAX, "alpha")}),
    ("four_clique", None), ("trace_vector", None),
])
def test_interpreter_circuit_agreement(lib, name, pin):
    rng = random.Random(hash(name) & 0xFFFF)
    for n in (2, 3, 4):
        agreement_case(lib, name, n, rng, pin)


def test_dumps_of_compiled_circuits_reload(lib):
    from matfor.circuits import load_circuit
    item = lib["power_sum"]
    c = compile_expr(item.expr, item.schema, {"alpha": 3})
    assert dump_circuit(load_circuit(dump_circuit(c))) == dump_circuit(c)


def _unshared(e):
    """A copy of `e` that repeats every shared subtree instead of sharing it."""
    fields = {}
    for f in dataclasses.fields(e):
        v = getattr(e, f.name)
        if isinstance(v, Expr):
            v = _unshared(v)
        elif isinstance(v, tuple) and v and isinstance(v[0], Expr):
            v = tuple(_unshared(x) for x in v)
        fields[f.name] = v
    return type(e)(**fields)


@pytest.mark.parametrize("name", sorted(stdlib.all_named()))
def test_sharing_does_not_change_the_compiled_circuit(name):
    item = stdlib.all_named()[name]
    try:
        shared = compile_expr(item.expr, item.schema, {stdlib.ALPHA: 3})
    except MatforError:
        return
    copy = _unshared(item.expr)
    assert len(node_table(copy)) == sum(1 for _ in walk(copy))
    unshared = compile_expr(copy, item.schema, {stdlib.ALPHA: 3})
    assert unshared.gates == shared.gates
    assert unshared.outputs == shared.outputs
