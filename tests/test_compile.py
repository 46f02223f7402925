import dataclasses
import hashlib
import random
from fractions import Fraction

import pytest

from matfor import stdlib
from matfor.ast import (Expr, OrderKind, OrderPrim, node_table, substitute,
                        walk)
from matfor.circuit_compile import compile_expr, degree_growth
from matfor.circuits import (DIV, INPUT, dump_circuit, eval_circuit,
                             load_circuit, stats)
from matfor.cli import main
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


def test_the_unit_symbol_always_has_dimension_one():
    s = parse_schema("var v : alpha x 1")
    c = compile_expr(parse_expr("v"), s, {"alpha": 2, "1": 5})
    assert sorted(c.outputs) == [((1, 1), 0), ((2, 1), 1)]


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


# What compiling each `stdlib.all_named()` program at n = 1..4 gives: the
# sha256 of the four `dump_circuit` texts, each followed by a NUL byte, or
# the class of the first error and the n that raised it.
CIRCUIT_DIGESTS = {
    "charpoly_coeffs": "UnsupportedConstant at n=1",
    "determinant": "UnsupportedConstant at n=1",
    "diag_embed": "d46df188471aca3697928ec2d7676c1ac1de30b011554ce82bfb617a725a796a",
    "diagonal_inverse": "6e9ac49314b17963e10edc7ed9575fa697424432dda96eed6e2c2ba3f29fa62e",
    "diagonal_part": "7625da94740076775d3f21b3ad7e533545d0ea3ce6948e06f19fe886e8858ee2",
    "elimination_step": "UnsupportedConstant at n=1",
    "four_clique": "169158f01c5f7e0eb98e753157eb4ecb68de1ef2872c695268a34ef91624df74",
    "four_clique_order": "169158f01c5f7e0eb98e753157eb4ecb68de1ef2872c695268a34ef91624df74",
    "identity": "ab5740130899e4ab65ace28b20f66cfcac6f0141c5dbf380a39bf67aff64c3bf",
    "index_diagonal": "0c2c149573ee23bc9526d4b906fb10f448a47baa234c31885a065497e3d502ce",
    "index_le": "321c4001c37a3fc36435fbe34d4b9ae040c904f278d51fe2ebc0646c100a1e00",
    "index_lt": "60c64b2f1e24384efe7f7b6367778d9dc29a1d0abd8971268eb61872306552c3",
    "inverse": "UnsupportedConstant at n=1",
    "inverse_power": "a3d386e6392fd1e4285d518e1c790b57efa3cd330323c61460f899028faff01a",
    "is_first": "2497ae13303ea70cc1993ea86e715d19709186c775fde0153a25b3cecd580c7a",
    "is_last": "7501946d3a0e85fb5fe676274d0bf282199f8413dfd1593697066a4362f43ec0",
    "last_basis": "f7be5591a46540dd8f10c3229b9a2959f02ce5d637248e8ec041152430fb22eb",
    "lower_tri_inverse": "UnsupportedConstant at n=1",
    "lu_lower": "UnsupportedConstant at n=1",
    "lu_upper": "UnsupportedConstant at n=1",
    "matrix_power": "5d7f9d4eb20a6bd1fdf87e87b740f69ba7191432c69d21ab5364d63f87a3ecbb",
    "newton_matrix": "3c6054002be2e9ce63660392b1a418021054d2bb889a859adfa707d91d9e6b87",
    "ones_vec": "ed3d0cb2b7b92131d5d195f7234b6f7e98ff47bf0c9a2b3a95bcc96dafdc97ea",
    "pivot_column": "2ec7b6bb3b339b53329f75c50fd90c3d62ccba5ffa438ff08d070835fde1d5fc",
    "plu_transform": "UnsupportedFunction at n=1",
    "plu_upper": "UnsupportedFunction at n=1",
    "power_sum": "e3e1f4ab1d00ce565b413f3a7e05780702cfdf0e4fd18fa2c36364daa14b5efc",
    "power_trace": "d0a8ff2e89bafd2524956e6d710e5f1902afc98944abda3e5e43afb64f00c6e3",
    "repeated_squaring": "e579d324972babc790501c80c7d4710ecf92b376658b04b68bf03adc5646b62c",
    "scaled_power_trace": "9022b6c59615770a7bdc8aaa5aca00de0214e30c4bb3bcf18dd0b51905aa19e6",
    "shift_by_index": "d892122826ffce4dee9d14bd26691837a7a9e2207eadc3ac45e9dcce3f8e39dc",
    "shift_vector": "d6884baff5c842c9c3af3b84222263136bbfe76814e83fea7608585e6f2504ed",
    "trace_vector": "8794de556adae9483834aadb90750ff959361f4b1b0666e21ef3250bc62c9e48",
    "transitive_closure": "UnsupportedFunction at n=1",
    "upper_tri_inverse": "UnsupportedConstant at n=1",
}


def _compile_outcome(item):
    digest = hashlib.sha256()
    for n in range(1, 5):
        try:
            c = compile_expr(item.expr, item.schema, {stdlib.ALPHA: n})
        except MatforError as exc:
            return f"{type(exc).__name__} at n={n}"
        digest.update(dump_circuit(c).encode() + b"\0")
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CIRCUIT_DIGESTS))
def test_compiled_circuits_stay_gate_for_gate_identical(name):
    item = stdlib.all_named()[name]
    assert _compile_outcome(item) == CIRCUIT_DIGESTS[name]


@pytest.mark.parametrize("name", ["four_clique", "four_clique_order"])
@pytest.mark.parametrize("n,gates,depth", [(4, 155, 11), (5, 619, 15),
                                           (7, 3821, 23)])
def test_clique_circuit_size_depth_and_degree(name, n, gates, depth):
    item = stdlib.all_named()[name]
    got = stats(compile_expr(item.expr, item.schema, {stdlib.ALPHA: n}))
    assert (got.n_gates, got.depth, got.degree) == (gates, depth, 6)


COMPILE_ERRORS = [
    # undeclared iterator
    ("sum v . v", "var V : alpha x alpha", {"alpha": 2}, UnassignedSymbol),
    # iterator whose size symbol has no dimension
    ("sum v . v", "var v : beta x 1", {"alpha": 2}, UnassignedSymbol),
    # accumulator with no type and no initialiser
    ("for v, X . X + v", "var v : alpha x 1", {"alpha": 2},
     UnassignedSymbol),
    ("foo(V)", "var V : alpha x alpha", {"alpha": 2}, UnsupportedFunction),
    ("[inf] .* V", "var V : alpha x alpha", {"alpha": 2},
     UnsupportedConstant),
    ("[-inf] .* V", "var V : alpha x alpha", {"alpha": 2},
     UnsupportedConstant),
    ("[-1] .* V", "var V : alpha x alpha", {"alpha": 2},
     UnsupportedConstant),
]


@pytest.mark.parametrize("src,schema,dims,error", COMPILE_ERRORS)
def test_compile_error_classes(src, schema, dims, error):
    with pytest.raises(error):
        compile_expr(parse_expr(src), parse_schema(schema), dims)


@pytest.mark.parametrize("src,schema,dims,error", COMPILE_ERRORS)
def test_compile_circuit_command_exits_2(tmp_path, capsys, src, schema, dims,
                                         error):
    path = tmp_path / "s.schema"
    path.write_text(schema + "\n")
    argv = ["compile-circuit", "-e", src, "--schema", str(path)]
    argv += [f"--dim={sym}={n}" for sym, n in dims.items()]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_division_by_a_folded_zero_compiles_to_a_gate():
    s = parse_schema("var V : 1 x 1")
    c = compile_expr(parse_expr("div(V, [0] .* V)"), s, {})
    assert [g.kind for g in c.gates].count(DIV) == 1


# Constant folding is exact in the rationals: these constants are all 1 (or
# 0) in Q, so the multiplier folds away before any gate is built, which a
# float carrier would not guarantee.
@pytest.mark.parametrize("src,dump", [
    ("(div([1], [3]) .* [3]) .* x", "g0 = input x[1,1]\noutput[1,1] = g0"),
    ("(div([2], [4]) + [0.5]) .* x", "g0 = input x[1,1]\noutput[1,1] = g0"),
    ("([0.25] .* [4]) .* x", "g0 = input x[1,1]\noutput[1,1] = g0"),
    ("((div([1], [10]) + div([2], [10])) .* [10] + [-3]) .* x",
     "g0 = const0\noutput[1,1] = g0"),
    # a non-integral constant is a division of const1 by a sum of ones
    ("[0.5] .* x",
     "g0 = input x[1,1]\ng1 = const1\ng2 = sum g1 g1\ng3 = div g1 g2\n"
     "g4 = prod g3 g0\noutput[1,1] = g4"),
    ("div([1], [3]) .* x",
     "g0 = input x[1,1]\ng1 = const1\ng2 = sum g1 g1 g1\ng3 = div g1 g2\n"
     "g4 = prod g3 g0\noutput[1,1] = g4"),
])
def test_constants_fold_exactly(src, dump):
    s = parse_schema("var x : 1 x 1")
    assert dump_circuit(compile_expr(parse_expr(src), s, {})) == dump


def test_an_integral_float_literal_compiles_like_the_integer():
    s = parse_schema("var x : 1 x 1")
    want = dump_circuit(compile_expr(parse_expr("[2] .* x"), s, {}))
    assert want == ("g0 = input x[1,1]\ng1 = const1\ng2 = sum g1 g1\n"
                    "g3 = prod g2 g0\noutput[1,1] = g3")
    assert dump_circuit(compile_expr(parse_expr("[2.0] .* x"), s, {})) == want


@pytest.mark.parametrize("name", sorted(stdlib.all_named()))
def test_dumps_of_stdlib_circuits_reload_gate_for_gate(name):
    item = stdlib.all_named()[name]
    try:
        c = compile_expr(item.expr, item.schema, {stdlib.ALPHA: 3})
    except MatforError:
        return
    back = load_circuit(dump_circuit(c))
    assert back.gates == c.gates
    assert back.outputs == c.outputs
