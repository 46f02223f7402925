import dataclasses
import hashlib
import math
import random
import sys
from fractions import Fraction
from functools import reduce

import pytest

from matfor import evaluator, stdlib
from matfor.ast import (Const, Expr, OrderKind, OrderPrim, node_table,
                        substitute, walk)
from matfor.circuit_compile import compile_expr, degree_growth
from matfor.circuits import (DIV, INPUT, dump_circuit, eval_circuit,
                             load_circuit, stats)
from matfor.cli import main
from matfor.errors import (EvalError, MatforError, UnassignedSymbol,
                           UnsupportedConstant, UnsupportedFunction)
from matfor.evaluator import evaluate
from matfor.instance import Instance
from matfor.matrix import KMatrix
from matfor.parser import parse_expr, parse_schema
from matfor.semiring import BOOL, NAT, RATIONAL, REAL, TROPICAL
from test_evaluator import (_at_depth, _record_selections,
                            shared_loop_under_two_sizes)


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


def test_a_long_unassigned_symbol_is_echoed_cut_short():
    s = parse_schema(f"var {'V' * 5000} : alpha x {'b' * 5000}")
    with pytest.raises(UnassignedSymbol) as err:
        compile_expr(parse_expr("V" * 5000), s, {"alpha": 2})
    assert str(err.value) == (f"no dimension assigned to size symbol "
                              f"'{'b' * 37}'... (variable '{'V' * 37}'...)")


def test_negative_literals_cannot_survive_to_gates():
    s = parse_schema("var x : 1 x 1")
    with pytest.raises(UnsupportedConstant):
        compile_expr(parse_expr("[-1] .* x"), s, {})


def test_negative_literals_may_fold_away():
    s = parse_schema("var x : 1 x 1")
    # (1 + (-1) * 1) == 0 folds before any gate is needed
    c = compile_expr(parse_expr("([1] + [-1] .* [1]) .* x"), s, {})
    assert eval_circuit(c, {("x", 1, 1): 5}) == {(1, 1): 0}
    # a gate that uses -1 but that no output reaches is never built
    c = compile_expr(parse_expr("([-1] .* x) .* [0]"), s, {})
    assert dump_circuit(c) == "g0 = const0\noutput[1,1] = g0"


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


def _every_gate_is_reachable(c):
    reachable = set()
    stack = [idx for _, idx in c.outputs]
    while stack:
        i = stack.pop()
        if i not in reachable:
            reachable.add(i)
            stack.extend(c.gates[i].children)
    return reachable == set(range(len(c.gates)))


def test_compiled_circuits_are_well_formed():
    s = parse_schema("var V : alpha x alpha\nvar v : alpha x 1")
    e = parse_expr("sum v . (v^T * V * v) .* (v * v^T)")
    c = compile_expr(e, s, {"alpha": 3})
    c.validate()
    assert _every_gate_is_reachable(c)


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
    "diag_embed": "9702fe2b42a0e949bddb994958e1e9004a17da7768629def66fca9b4f797e827",
    "diagonal_inverse": "a46641531574c7f829dddd043a17f8bacf8b530e2240cd5f7b0ce9bfb990498b",
    "diagonal_part": "ee7de11ed45e697874a9085f613785a0f17c435f0311371ef156038c908fb584",
    "elimination_step": "UnsupportedConstant at n=1",
    "four_clique": "83c05f6c830791c5df100a1647db882628293195d29f50dd56120d0b88dcb647",
    "four_clique_order": "83c05f6c830791c5df100a1647db882628293195d29f50dd56120d0b88dcb647",
    "identity": "ab5740130899e4ab65ace28b20f66cfcac6f0141c5dbf380a39bf67aff64c3bf",
    "index_diagonal": "0c2c149573ee23bc9526d4b906fb10f448a47baa234c31885a065497e3d502ce",
    "index_le": "f978fe3d345aa2260acc30a7ca786ef982655a34b95f8764ceaccbc443ad93eb",
    "index_lt": "cdf22328c0a1cd0ac6378cb7953221c756b5f075f6eba759ced12efe3f930ba3",
    "inverse": "UnsupportedConstant at n=1",
    "inverse_power": "5a01108fefe0a0801e5546485d968e0219af60d3862358807f30de9a32eb48bf",
    "is_first": "2497ae13303ea70cc1993ea86e715d19709186c775fde0153a25b3cecd580c7a",
    "is_last": "7501946d3a0e85fb5fe676274d0bf282199f8413dfd1593697066a4362f43ec0",
    "last_basis": "f7be5591a46540dd8f10c3229b9a2959f02ce5d637248e8ec041152430fb22eb",
    "lower_tri_inverse": "UnsupportedConstant at n=1",
    "lu_lower": "UnsupportedConstant at n=1",
    "lu_upper": "UnsupportedConstant at n=1",
    "matrix_power": "cdf5f6d7cd5e795273955567049561fd7cab67686d566d4f5951b3b57cc239a1",
    "newton_matrix": "f1e77a525811016d00f672a520bcaa9af931a5c86c76897714b7bf8f63c997eb",
    "ones_vec": "ed3d0cb2b7b92131d5d195f7234b6f7e98ff47bf0c9a2b3a95bcc96dafdc97ea",
    "pivot_column": "1c3fe0898c939c7d7b574dad758f03c3336c60d50e4557c9cc4b7c6786ddf0bb",
    "plu_transform": "UnsupportedFunction at n=1",
    "plu_upper": "UnsupportedFunction at n=1",
    "power_sum": "2c91d72bdec06ba1dd7c7d0f33da127f2bd155239f6d437e31dd75668dc160ed",
    "power_trace": "d68bb309b9d56c0b0ab730a57390b04fb3e515ad880e94f0f3ccf67433679a8f",
    "repeated_squaring": "e579d324972babc790501c80c7d4710ecf92b376658b04b68bf03adc5646b62c",
    "scaled_power_trace": "6ed09e48bf8f48322e0cb5ddf0548abcc2f82aaa8f14cef54cc96fd5a7fd2e82",
    "shift_by_index": "331266091f7a6d0102de667ada1e48a89a23cb50b53ca984ff6ec5404692d3b9",
    "shift_vector": "b884ce99e4d279cbd81a1a6c070f3a9d712fc2187f07f4007d9bd5581abd7770",
    "trace_vector": "fdbc353f680188ed753b4738032de0a7e1a878c42ac86dc4482e076efa8d03f3",
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


@pytest.mark.parametrize("n", [4, 5])
def test_lifted_loop_builds_the_gates_of_the_loop(monkeypatch, n):
    # the gate semiring passes the lift's zero check, so the innermost loop
    # of `four_clique_order` folds over its rows while it compiles
    item = stdlib.all_named()["four_clique_order"]
    with monkeypatch.context() as m:
        seen = _record_selections(m)
        lifted = compile_expr(item.expr, item.schema, {"alpha": n})
    assert [sel for sel in seen if sel is not None]
    with monkeypatch.context() as m:
        m.setattr(evaluator, "_selections", lambda e, nodes: None)
        assert compile_expr(item.expr, item.schema, {"alpha": n}) == lifted


COMPILABLE = sorted(name for name, outcome in CIRCUIT_DIGESTS.items()
                    if " at n=" not in outcome)


@pytest.mark.parametrize("name", COMPILABLE)
def test_every_gate_of_a_stdlib_circuit_is_reachable(name):
    item = stdlib.all_named()[name]
    for n in range(1, 5):
        c = compile_expr(item.expr, item.schema, {stdlib.ALPHA: n})
        c.validate()
        assert _every_gate_is_reachable(c)


def _column_major_mat_mul(a, b, sr):
    """`matrix.mat_mul` with its calls in another order: the entries are
    made column by column, and each makes all its ``times`` calls before
    its ``plus`` calls.  Each entry is still the left fold of ``plus`` from
    `zero` over its terms in ascending order."""
    out = [None] * (a.rows * b.cols)
    for j in range(b.cols):
        for i in range(a.rows):
            terms = [sr.times(a.get(i, t), b.get(t, j))
                     for t in range(a.cols)]
            out[i * b.cols + j] = reduce(sr.plus, terms, sr.zero)
    return KMatrix(a.rows, b.cols, tuple(out))


@pytest.mark.parametrize("name", COMPILABLE)
def test_gate_numbers_do_not_follow_the_kernels_call_order(monkeypatch,
                                                           name):
    item = stdlib.all_named()[name]

    def dumps():
        return [dump_circuit(compile_expr(item.expr, item.schema,
                                          {stdlib.ALPHA: n}))
                for n in (2, 3)]

    want = dumps()
    monkeypatch.setattr("matfor.evaluator.mat_mul", _column_major_mat_mul)
    assert dumps() == want


@pytest.mark.parametrize("name", COMPILABLE)
def test_the_product_cache_leaves_every_circuit_as_it_was(monkeypatch, name):
    # a matrix that holds a gate is never cached; one of constants only is,
    # and its product folds to the same constants
    item = stdlib.all_named()[name]

    def dumps():
        return [dump_circuit(compile_expr(item.expr, item.schema,
                                          {stdlib.ALPHA: n}))
                for n in (2, 3)]

    want = dumps()
    monkeypatch.setattr(evaluator, "_PRODUCT_ENTRIES", 0)
    assert dumps() == want


# entries each semiring's agreement check draws, given the least integer
# it may draw: small signed fractions, as criterion 9 draws them, over the
# reals, and over the min-plus semiring its zero `inf` now and then
_DRAWS = {
    RATIONAL: lambda rng, low: Fraction(rng.randint(low, 3)),
    REAL: lambda rng, low: rng.randint(low, 3) / rng.randint(1, 4),
    NAT: lambda rng, low: rng.randint(0, 3),
    BOOL: lambda rng, low: rng.randint(0, 1),
    TROPICAL: lambda rng, low: rng.choice([math.inf, -1.0, 0.0, 1.0, 2.5]),
}


def agreement_case(lib, name, n, rng, pin=None, sr=RATIONAL):
    """Compare the circuit of `name` at dimension `n` with the interpreter
    over `sr`: exactly, but over the reals within criterion 9's tolerance.
    A circuit holds no negative constant, so when it divides its inputs are
    drawn positive and no division is by zero.  Outside the rationals the
    interpreter may reject the program (a literal outside the carrier, or
    `div` where the semiring has none); then there is nothing to compare."""
    item = lib[name]
    expr = substitute(item.expr, pin) if pin else item.expr
    dims = {"alpha": n}
    c = compile_expr(expr, item.schema, dims)
    low = 1 if any(g.kind == DIV for g in c.gates) else -3
    mats, inputs = {}, {}
    for vn in item.inputs:
        if pin and vn in pin:
            continue
        t = item.schema[vn]
        r, col = dims.get(t.rows, 1), dims.get(t.cols, 1)
        vals = [_DRAWS[sr](rng, low) for _ in range(r * col)]
        mats[vn] = KMatrix(r, col, tuple(vals))
        for i in range(r):
            for j in range(col):
                inputs[(vn, i + 1, j + 1)] = vals[i * col + j]
    inst = Instance(dims, mats)
    try:
        want = evaluate(expr, inst, sr, schema=item.schema)
    except EvalError:
        if sr is RATIONAL:
            raise
        return
    got = eval_circuit(c, inputs, sr)
    assert got.keys() == {(i + 1, j + 1) for i in range(want.rows)
                          for j in range(want.cols)}
    tol = 1e-9 if sr is REAL else 0.0
    assert all(sr.eq(v, want.get(i - 1, j - 1), tol)
               for (i, j), v in got.items()), (name, n, sr.name)


# the first eleven programs keep their places, and so their test ids
_AGREEMENT_FIRST = ("ones_vec", "identity", "diag_embed", "index_le",
                    "index_lt", "shift_by_index", "shift_vector", "power_sum",
                    "matrix_power", "four_clique", "trace_vector")
_PINS = {"matrix_power": {"v": OrderPrim(OrderKind.EMAX, "alpha")}}


@pytest.mark.parametrize("name,pin", [
    (name, _PINS.get(name)) for name in
    _AGREEMENT_FIRST + tuple(n for n in COMPILABLE
                             if n not in _AGREEMENT_FIRST)])
def test_interpreter_circuit_agreement(lib, name, pin):
    """Over the rationals at n = 1..5; over each other semiring at n = 1..4,
    where a circuit's constants, folded in the rationals, mean their images
    in the carrier: so over the min-plus semiring only for programs whose
    literals are all 0 or 1."""
    rng = random.Random(name)
    for n in range(1, 6):
        agreement_case(lib, name, n, rng, pin)
    literals = {x.value for x in walk(lib[name].expr) if isinstance(x, Const)}
    for sr in (NAT, BOOL, REAL) + ((TROPICAL,) if literals <= {0, 1} else ()):
        rng = random.Random(f"{name} {sr.name}")
        for n in range(1, 5):
            agreement_case(lib, name, n, rng, pin, sr)


@pytest.mark.parametrize("name", ["four_clique", "four_clique_order"])
@pytest.mark.parametrize("n,gates,depth", [(4, 155, 11), (5, 619, 15),
                                           (7, 3821, 23)])
def test_clique_circuit_size_depth_and_degree(name, n, gates, depth):
    item = stdlib.all_named()[name]
    got = stats(compile_expr(item.expr, item.schema, {stdlib.ALPHA: n}))
    assert (got.n_gates, got.depth, got.degree) == (gates, depth, 6)


def test_shared_loop_compiles_under_each_enclosing_binders_size():
    s = parse_schema("var V : 1 x 1")
    c = compile_expr(shared_loop_under_two_sizes(), s,
                     {"alpha": 2, "gamma": 3})
    assert eval_circuit(c, {("V", 1, 1): 1}) == {(1, 1): 4 + 9}


COMPILE_ERRORS = [
    # undeclared input
    ("V", "var W : alpha x alpha", {"alpha": 2}, UnassignedSymbol),
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
    ("div(x, [1])", "g0 = input x[1,1]\noutput[1,1] = g0"),
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


def _structure_digest(c):
    """sha256 of `c`'s outputs with each gate named by a hash of its kind,
    its input coordinate and its children's names, so that two circuits
    that differ only in their gate numbers have the same digest."""
    names = []
    for g in c.gates:
        names.append(hashlib.sha256(repr(
            (g.kind, g.ref, [names[ch] for ch in g.children])).encode())
            .digest())
    return hashlib.sha256(repr(
        [(pos, names[idx]) for pos, idx in c.outputs]).encode()).hexdigest()


def _stats_lines():
    """One line per `stdlib.all_named()` program and n = 1..5: the
    circuit's gate and wire counts, depth, degree and structure digest, or
    the class of the error compiling raised."""
    for name, item in sorted(stdlib.all_named().items()):
        for n in range(1, 6):
            try:
                c = compile_expr(item.expr, item.schema, {stdlib.ALPHA: n})
            except MatforError as exc:
                yield f"{name} n={n}: {type(exc).__name__}"
                continue
            s = stats(c)
            yield (f"{name} n={n}: gates={s.n_gates} wires={s.n_wires} "
                   f"depth={s.depth} degree={s.degree} "
                   f"structure={_structure_digest(c)[:16]}")


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info < (3, 11)
    or not sys.platform.startswith("linux"),
    reason="frame chunks are CPython 3.11+; page-fault counts are Linux's")
def test_the_callers_stack_depth_does_not_make_compilation_map_memory(lib):
    # as for `evaluate`: one depth faulted in 388 pages before
    # `compile_expr` opened a frame chunk of its own
    import resource
    item = lib["trace_vector"]

    def run():
        return compile_expr(item.expr, item.schema, {stdlib.ALPHA: 3})

    want = run()
    faults = []
    for depth in range(200):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert _at_depth(depth, run) == want
        faults.append(
            resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert max(faults) <= 100, faults


if __name__ == "__main__":
    # ``python tests/test_compile.py`` prints `_stats_lines()`, so the
    # circuits of two versions of the compiler can be diffed without their
    # gate numbers before `CIRCUIT_DIGESTS` is re-pinned
    print("\n".join(_stats_lines()))

