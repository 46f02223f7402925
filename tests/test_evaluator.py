import hashlib
import math
import random
import struct
import sys
from fractions import Fraction
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import oracles
from conftest import dominant_real, run_named
from matfor import evaluator, stdlib
from matfor.ast import (Add, Const, For, MatMul, MatrixType, Prod, ScalarMul,
                        Schema, Sum, Transpose, Var, free_vars)
from matfor.circuit_compile import _Ref
from matfor.errors import (DivisionByZero, EvalError,
                           FunctionUnavailableForSemiring, IndexOutOfRange,
                           MatforError, MissingDimension, ShapeMismatch,
                           TypeCheckError, UnknownFunction)
from matfor.evaluator import canonical_vector, evaluate, mat_equal
from matfor.instance import Instance
from matfor.matrix import KMatrix, from_rows
from matfor.parser import parse_expr, parse_schema
from matfor.printer import pretty
from matfor.semiring import BOOL, NAT, RATIONAL, REAL, TROPICAL
from matfor.sugar import desugar
from matfor.typecheck import typecheck
from test_pass_pins import _corpus


def ev(text, schema_text, dims, sr=REAL, order=None, **mats):
    return evaluate(parse_expr(text), Instance(dict(dims), mats), sr,
                    schema=parse_schema(schema_text),
                    iteration_order=order)


def test_accumulating_loop_builds_all_ones():
    out = ev("for v, X . X + v", "var v : alpha x 1\nvar X : alpha x 1",
             {"alpha": 3})
    assert out.tolists() == [[1.0], [1.0], [1.0]]


def test_loop_with_initialiser_squares_repeatedly():
    out = ev("for v, X = [2] . X * X", "var v : gamma x 1\nvar X : 1 x 1",
             {"gamma": 3})
    assert out.tolists() == [[256.0]]  # 2 ** (2 ** 3)


def test_sum_of_quadratic_forms_is_trace():
    out = ev("sum v . v^T * V * v",
             "var v : alpha x 1\nvar V : alpha x alpha", {"alpha": 2},
             NAT, V=from_rows([[1, 2], [3, 4]]))
    assert out.tolists() == [[5]]


def test_variable_lookup_returns_instance_matrix():
    m = from_rows([[1.0, 2.0]])
    out = ev("V", "var V : 1 x beta", {"beta": 2}, V=m)
    assert out.entries == m.entries


@pytest.mark.parametrize("sr,want", [
    (REAL, [[1.0], [0.0], [0.0]]),
    (BOOL, [[1], [0], [0]]),
    (TROPICAL, [[0.0], [math.inf], [math.inf]]),
])
def test_canonical_vector_uses_semiring_constants(sr, want):
    assert canonical_vector(1, 3, sr).tolists() == want


def test_canonical_vector_bounds():
    with pytest.raises(IndexOutOfRange):
        canonical_vector(0, 3, REAL)
    with pytest.raises(IndexOutOfRange):
        canonical_vector(4, 3, REAL)


def test_order_primitives():
    out = ev("Sless[alpha]", "", {"alpha": 3})
    assert out.tolists() == [[0.0, 1.0, 1.0], [0.0, 0.0, 1.0],
                             [0.0, 0.0, 0.0]]
    out = ev("Nshift[alpha]", "", {"alpha": 3})
    assert out.tolists() == [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                             [0.0, 1.0, 0.0]]
    assert ev("Emin[alpha]", "", {"alpha": 3}).tolists() == \
        [[1.0], [0.0], [0.0]]
    assert ev("Emax[alpha]", "", {"alpha": 3}).tolists() == \
        [[0.0], [0.0], [1.0]]


def test_shift_past_the_end_vanishes():
    out = ev("Nshift[alpha] * Emax[alpha]", "", {"alpha": 3})
    assert out.tolists() == [[0.0], [0.0], [0.0]]


@pytest.mark.parametrize("prim, index", [("Emin", 1), ("Emax", 5000)])
def test_first_and_last_vector_build_only_themselves(monkeypatch, prim,
                                                     index):
    calls = []

    def spy(i, n, sr):
        calls.append((i, n))
        return canonical_vector(i, n, sr)

    monkeypatch.setattr(evaluator, "canonical_vector", spy)
    out = ev(f"{prim}[alpha]", "", {"alpha": 5000})
    assert calls == [(index, 5000)]
    assert out.entries[index - 1] == 1.0 and sum(out.entries) == 1.0


def test_ones_and_diag_sugar():
    v = from_rows([[2.0], [5.0]])
    assert ev("ones(V)", "var V : alpha x beta", {"alpha": 2, "beta": 3},
              V=from_rows([[0.0] * 3] * 2)).tolists() == [[1.0], [1.0]]
    assert ev("diag(v)", "var v : alpha x 1", {"alpha": 2},
              v=v).tolists() == [[2.0, 0.0], [0.0, 5.0]]


def test_ones_builds_its_argument_only_for_its_shape():
    # div(V, W) divides by zero, but ones() and its desugared loop need
    # only the argument's row count, so both give the all-ones column
    schema = parse_schema("var V : alpha x 1\nvar W : alpha x 1")
    inst = Instance({"alpha": 2}, {"V": from_rows([[3.0], [4.0]]),
                                   "W": from_rows([[1.0], [0.0]])})
    e = parse_expr("ones(div(V, W))")
    with pytest.raises(DivisionByZero):
        evaluate(parse_expr("div(V, W)"), inst, REAL, schema=schema)
    with mock.patch.object(evaluator, "mat_map",
                           side_effect=evaluator.mat_map) as kernel:
        out = evaluate(e, inst, REAL, schema=schema)
        assert kernel.call_count == 0
    assert out.tolists() == [[1.0], [1.0]]
    assert evaluate(desugar(e, schema), inst, REAL,
                    schema=schema).tolists() == [[1.0], [1.0]]


def test_pointwise_functions():
    a = from_rows([[1.0, 4.0]])
    b = from_rows([[2.0, 8.0]])
    out = ev("div(a, b)", "var a : 1 x beta\nvar b : 1 x beta", {"beta": 2},
             a=a, b=b)
    assert out.tolists() == [[0.5, 0.5]]
    out = ev("hprod2(a, b)", "var a : 1 x beta\nvar b : 1 x beta",
             {"beta": 2}, a=a, b=b)
    assert out.tolists() == [[2.0, 32.0]]


def test_division_by_zero_carries_loop_context():
    with pytest.raises(DivisionByZero) as err:
        ev("sum v . div([1], v^T * a) .* v",
           "var v : alpha x 1\nvar a : alpha x 1", {"alpha": 2},
           a=from_rows([[1.0], [0.0]]))
    assert "iteration 2 of 2" in str(err.value)


def test_unknown_function():
    with pytest.raises(UnknownFunction):
        ev("frob(a)", "var a : 1 x 1", {}, a=from_rows([[1.0]]))


def test_function_availability_per_semiring():
    with pytest.raises(FunctionUnavailableForSemiring):
        ev("gtz(a)", "var a : 1 x 1", {}, NAT, a=from_rows([[1]]))


def test_missing_dimension():
    with pytest.raises(MissingDimension):
        ev("sum v . v", "var v : alpha x 1", {})


def test_missing_matrix_value():
    with pytest.raises(EvalError):
        ev("V", "var V : 1 x 1", {})


def test_tropical_matrix_product_is_shortest_path_step():
    inf = math.inf
    d = from_rows([[0.0, 1.0, inf], [inf, 0.0, 2.0], [inf, inf, 0.0]])
    out = ev("D * D", "var D : alpha x alpha", {"alpha": 3}, TROPICAL, D=d)
    assert out.get(0, 2) == 3.0  # 1 + 2 via the middle node


def test_sum_order_invariance_over_exact_semirings():
    rng = random.Random(5)
    schema = "var v : alpha x 1\nvar V : alpha x alpha"
    for sr, sample in ((NAT, lambda: rng.randrange(4)),
                       (BOOL, lambda: rng.randrange(2)),
                       (TROPICAL, lambda: float(rng.randrange(9)))):
        mat = from_rows([[sample() for _ in range(4)] for _ in range(4)])
        base = ev("sum v . (v^T * V * v) .* (v * v^T)", schema, {"alpha": 4},
                  sr, V=mat)
        for _ in range(6):
            perm = list(range(1, 5))
            rng.shuffle(perm)
            out = ev("sum v . (v^T * V * v) .* (v * v^T)", schema,
                     {"alpha": 4}, sr, order=lambda n, p=perm: p, V=mat)
            assert mat_equal(out, base, sr)


def test_general_loops_are_order_sensitive():
    # a loop that keeps only the current canonical vector ends with the last
    # one visited, so reversing the order changes the result
    schema = "var v : alpha x 1\nvar X : alpha x 1"
    fwd = ev("for v, X . v", schema, {"alpha": 3})
    rev = ev("for v, X . v", schema, {"alpha": 3},
             order=lambda n: list(range(n, 0, -1)))
    assert fwd.tolists() == [[0.0], [0.0], [1.0]]
    assert rev.tolists() == [[1.0], [0.0], [0.0]]


def test_evaluation_is_deterministic():
    m = from_rows([[0.5, 1.5], [2.5, 3.5]])
    a = ev("sum v . (v^T * V * v)", "var v : a x 1\nvar V : a x a",
           {"a": 2}, V=m)
    b = ev("sum v . (v^T * V * v)", "var v : a x 1\nvar V : a x a",
           {"a": 2}, V=m)
    assert a.entries == b.entries


def test_shared_dag_evaluates_each_node_once():
    e = Var("V")
    for _ in range(30):
        e = Add(e, e)
    assert free_vars(e) == {"V"}
    v = from_rows([[1, 2], [3, 4]])
    out = evaluate(e, Instance({"alpha": 2}, {"V": v}), NAT)
    assert out.tolists() == [[x << 30 for x in row] for row in v.tolists()]


def test_long_sum_of_distinct_leaves():
    e = Var("V")
    for _ in range(399):
        e = Add(e, Var("V"))
    v = from_rows([[1, 2], [3, 4]])
    out = evaluate(e, Instance({"alpha": 2}, {"V": v}), NAT)
    assert out.tolists() == [[400 * x for x in row] for row in v.tolists()]


def test_equal_but_distinct_subtrees_are_evaluated_once(monkeypatch):
    calls = []

    def spy(a, b, sr):
        calls.append((a, b))
        return evaluator.matrix.mat_mul(a, b, sr)

    monkeypatch.setattr(evaluator, "mat_mul", spy)
    e = Add(MatMul(Var("V"), Var("V")), MatMul(Var("V"), Var("V")))
    v = from_rows([[1, 2], [3, 4]])
    out = evaluate(e, Instance({"alpha": 2}, {"V": v}), NAT)
    assert out.tolists() == [[14, 20], [30, 44]]
    assert len(calls) == 1


def test_structurally_different_nodes_are_not_merged():
    inst = Instance({"a": 2, "b": 3}, {"V": from_rows([[3.0]])})
    with pytest.raises(EvalError):
        evaluate(Add(Const(1), Const(1.0)), inst, NAT)

    out = evaluate(ScalarMul(Const(0.0), ScalarMul(Const(-0.0), Var("V"))),
                   inst, REAL)
    assert repr(out.get(0, 0)) == "-0.0"

    scalar = MatrixType("1", "1")
    body = Add(Var("X"), Var("V"))
    e = Add(For("v", "X", body, init=Var("V"), var_sym="a"),
            For("v", "X", body, var_sym="a", acc_type=scalar))
    assert evaluate(e, inst, REAL).get(0, 0) == 9.0 + 6.0

    e = Add(Sum("v", Var("V"), var_sym="a"), Prod("v", Var("V"), var_sym="a"))
    assert evaluate(e, inst, REAL).get(0, 0) == 6.0 + 9.0

    e = Add(Sum("v", Var("V"), var_sym="a"), Sum("v", Var("V"), var_sym="b"))
    assert evaluate(e, inst, REAL).get(0, 0) == 6.0 + 9.0


def _record_contexts(monkeypatch):
    """Keep every `_Ctx` that `evaluate` builds, to look at its memo."""
    made = []

    class Recording(evaluator._Ctx):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(evaluator, "_Ctx", Recording)
    return made


def _memo_free_vars(ctx):
    """Free variables of the node behind each memo entry."""
    fv_of = dict(ctx.nodes.values())
    return [set(fv_of[key[0]]) for key in ctx.cache]


def test_clique_memo_keeps_no_entry_per_iteration_tuple(monkeypatch, lib):
    rng = random.Random(5)
    n = 10
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.7:
                adj[i][j] = adj[j][i] = 1
    made = _record_contexts(monkeypatch)
    item = lib["four_clique_order"]
    out = evaluate(item.expr, Instance({"alpha": n}, {"V": from_rows(adj)}),
                   NAT, schema=item.schema)
    assert out.get(0, 0) == oracles.ordered_four_cliques(adj)
    (ctx,) = made
    entries = _memo_free_vars(ctx)
    assert not [fv for fv in entries if {"u", "v", "w", "x"} <= fv]
    assert len(entries) < 5000


def test_clique_memo_keeps_one_entry_per_prefix_tuple(monkeypatch, lib):
    rng = random.Random(5)
    n = 10
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.7:
                adj[i][j] = adj[j][i] = 1
    made = _record_contexts(monkeypatch)
    item = lib["four_clique_order"]
    out = evaluate(item.expr, Instance({"alpha": n}, {"V": from_rows(adj)}),
                   NAT, schema=item.schema)
    assert out.get(0, 0) == oracles.ordered_four_cliques(adj)
    prefixes = [fv for fv in _memo_free_vars(made[0])
                if {"u", "v", "w"} <= fv and "x" not in fv]
    assert len(prefixes) == n ** 3


def _spy_mat_mul(monkeypatch):
    calls = []

    def spy(a, b, sr):
        calls.append((a, b))
        return evaluator.matrix.mat_mul(a, b, sr)

    monkeypatch.setattr(evaluator, "mat_mul", spy)
    return calls


def test_loop_invariant_node_is_computed_once(monkeypatch):
    calls = _spy_mat_mul(monkeypatch)
    made = _record_contexts(monkeypatch)
    v = from_rows([[(i + j) % 3 for j in range(5)] for i in range(5)])
    out = ev("sum v . (V * V) * v", "var v : alpha x 1\nvar V : alpha x alpha",
             {"alpha": 5}, NAT, V=v)
    square = evaluator.matrix.mat_mul(v, v, NAT)
    assert out.tolists() == [[sum(row)] for row in square.tolists()]
    assert [(a, b) for a, b in calls if a is v and b is v] == [(v, v)]
    assert len(calls) == 1 + 5
    assert _memo_free_vars(made[0]) == [{"V"}]


def test_only_the_outermost_invariant_node_gets_a_memo_entry(monkeypatch):
    calls = _spy_mat_mul(monkeypatch)
    made = _record_contexts(monkeypatch)
    v = from_rows([[(i * j + 1) % 4 for j in range(5)] for i in range(5)])
    out = ev("sum v . ((V * V) * V) * v",
             "var v : alpha x 1\nvar V : alpha x alpha", {"alpha": 5}, NAT,
             V=v)
    cube = evaluator.matrix.mat_mul(evaluator.matrix.mat_mul(v, v, NAT), v,
                                    NAT)
    assert out.tolists() == [[sum(row)] for row in cube.tolists()]
    assert [(a, b) for a, b in calls if a is v and b is v] == [(v, v)]
    assert len(calls) == 2 + 5
    (entry,) = made[0].cache.values()
    assert entry.entries == cube.entries


@pytest.mark.parametrize("text", ["for v, X . V * V", "sum v . V * V"])
def test_loop_body_invariant_is_computed_once(monkeypatch, text):
    calls = _spy_mat_mul(monkeypatch)
    v = from_rows([[(i + 2 * j) % 3 for j in range(5)] for i in range(5)])
    ev(text, "var v : alpha x 1\nvar X : alpha x alpha\n"
       "var V : alpha x alpha", {"alpha": 5}, NAT, V=v)
    assert len(calls) == 1


def test_one_by_one_values_stay_scalars(monkeypatch, lib):
    # the 4-clique body is a product of 1 x 1 factors; carried as 1 x 1
    # matrices it made 64,100 mat_mul calls with two 1 x 1 operands
    rng = random.Random(5)
    n = 10
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.7:
                adj[i][j] = adj[j][i] = 1
    calls = _spy_mat_mul(monkeypatch)
    item = lib["four_clique_order"]
    out = evaluate(item.expr, Instance({"alpha": n}, {"V": from_rows(adj)}),
                   NAT, schema=item.schema)
    assert out.get(0, 0) == oracles.ordered_four_cliques(adj)
    assert calls
    assert not [1 for a, b in calls if a.shape == b.shape == (1, 1)]


@pytest.mark.parametrize("sr,c,want", [(REAL, 1.0, "-0.0"),
                                       (TROPICAL, -0.0, "0.0")])
def test_memo_keys_tell_the_sign_of_zero_apart(monkeypatch, sr, c, want):
    # `X .* c` is invariant in `sum u`, so it is memoised by the value of
    # the 1 x 1 accumulator X, which is -0.0 in the first loop and 0.0 in
    # the second; 0.0 == -0.0, so a key comparing floats by value alone
    # would hand the second loop the first one's entry
    def loop(init):
        body = Sum("u", ScalarMul(Var("X"), Const(c)), var_sym="a")
        return For("v", "X", body, init=Var(init), var_sym="a")

    e = ScalarMul(loop("N"), loop("P"))
    inst = Instance({"a": 2}, {"N": from_rows([[-0.0]]),
                               "P": from_rows([[0.0]])})
    made = _record_contexts(monkeypatch)
    out = evaluate(e, inst, sr)
    assert made[0].cache
    with monkeypatch.context() as m:
        m.setattr(evaluator, "_memo_numbers",
                  lambda root, nodes: {num for num, _ in nodes.values()})
        everything = evaluate(e, inst, sr)
    assert [repr(x) for x in out.entries] == \
        [repr(x) for x in everything.entries] == [want]


@pytest.mark.parametrize("op,want", [(Add, [[5000, 5000], [0, 5000]]),
                                     (MatMul, [[1, 5000], [0, 1]])])
def test_long_left_deep_spine_evaluates(op, want):
    e = Var("V")
    for _ in range(4999):
        e = op(e, Var("V"))
    v = from_rows([[1, 1], [0, 1]])
    out = evaluate(e, Instance({"alpha": 2}, {"V": v}), NAT)
    assert out.tolists() == want


def test_node_bound_by_its_only_loop_gets_no_memo_entry(monkeypatch):
    calls = _spy_mat_mul(monkeypatch)
    made = _record_contexts(monkeypatch)
    out = ev("sum v . v * v^T", "var v : alpha x 1", {"alpha": 3}, NAT)
    assert out.tolists() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert len(calls) == 3
    assert made[0].cache == {}


_INPUT_VALUES = {
    REAL: (0.0, -0.0, 1.0, 2.5, -1.5, 0.25),
    NAT: (0, 1, 2, 3),
    BOOL: (0, 1),
    TROPICAL: (math.inf, 0.0, 1.0, 2.0, 3.5),
}


def _random_input(rng, sr, rows, cols):
    values = _INPUT_VALUES[sr]
    return from_rows([[rng.choice(values) for _ in range(cols)]
                      for _ in range(rows)])


def _outcome(item, inst, sr):
    try:
        out = evaluate(item.expr, inst, sr, schema=item.schema)
    except MatforError as exc:
        return type(exc)
    return out.shape, [repr(x) for x in out.entries]


@pytest.mark.parametrize("name", sorted(stdlib.all_named()))
def test_memo_rule_matches_memoising_every_node(monkeypatch, lib, name):
    item = lib[name]
    rng = random.Random(name)
    for n in range(1, 5):
        for sr in _INPUT_VALUES:
            mats = {}
            for vn in item.inputs:
                t = item.schema[vn]
                mats[vn] = _random_input(rng, sr, n if t.rows != "1" else 1,
                                         n if t.cols != "1" else 1)
            inst = Instance({"alpha": n}, mats)
            with monkeypatch.context() as m:
                m.setattr(evaluator, "_memo_numbers",
                          lambda root, nodes: {num for num, _ in
                                               nodes.values()})
                everything = _outcome(item, inst, sr)
            assert _outcome(item, inst, sr) == everything, (n, sr.name)


_SCALAR = MatrixType("1", "1")


@st.composite
def _loop_nests(draw):
    """A 2-3-deep nest of ``for`` and ``sum`` loops over scalar bodies.

    Each body is a left-deep product of factors ``a^T V b`` over binders in
    scope, drawn from a shared pool so that subtrees repeat by reference;
    a level may leave out its own binder, and a ``for`` may start from an
    initialiser built from the factors of the loops around it.
    """
    depth = draw(st.integers(2, 3))
    binders = [f"v{level}" for level in range(depth)]
    pool = {}

    def factor(scope):
        a, b = draw(st.sampled_from(scope)), draw(st.sampled_from(scope))
        if (a, b) not in pool or draw(st.booleans()):
            pool[a, b] = MatMul(MatMul(Transpose(Var(a)), Var("V")), Var(b))
        return pool[a, b]

    def chain(scope):
        out = factor(scope)
        for _ in range(draw(st.integers(0, 3))):
            out = MatMul(out, factor(scope))
        return out

    inner = None
    for level in reversed(range(depth)):
        scope = draw(st.lists(st.sampled_from(binders[:level + 1]),
                              min_size=1, unique=True))
        body = chain(scope)
        if inner is not None:
            body = draw(st.sampled_from([
                MatMul(body, inner), MatMul(inner, body), Add(body, inner),
                Add(inner, inner)]))
        var = binders[level]
        if draw(st.booleans()):
            body = Sum(var, body, var_sym="alpha")
        else:
            acc = f"X{level}"
            init = chain(binders[:level]) if level and draw(
                st.booleans()) else None
            step = draw(st.sampled_from([Add, MatMul, None]))
            if step is not None:
                body = step(Var(acc), body)
            body = For(var, acc, body, init, var_sym="alpha",
                       acc_type=_SCALAR)
        inner = body
    return inner


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_loop_nests(), st.integers(1, 3), st.sampled_from([NAT, REAL]),
       st.randoms(use_true_random=False))
def test_memo_rule_matches_memoising_every_node_on_loop_nests(e, n, sr, rng):
    inst = Instance({"alpha": n}, {"V": _random_input(rng, sr, n, n)})
    with mock.patch.object(evaluator, "_memo_numbers",
                           lambda root, nodes: {num for num, _ in
                                                nodes.values()}):
        everything = evaluate(e, inst, sr)
    out = evaluate(e, inst, sr)
    assert [repr(x) for x in out.entries] == \
        [repr(x) for x in everything.entries]


# The sha256 of the entry `repr`s of `determinant`, `inverse` and
# `charpoly_coeffs` over REAL, in that order, on one `dominant_real` sample
# at n = 6 per seed.  A kernel or carrier change must leave every bit alone,
# so these are compared exactly, not within a float tolerance.
REAL_OUTPUT_DIGESTS = {
    61: "33890f46866d097f4bc341d5d6f1f36cc5a5ad5ca0bf30a27cbcf34b1b155f28",
    62: "3f77a8ec3b5eccd661dbc80c2bff17a0c73b4f8f8dcf1336fe3e51e7f0397f2a",
}


@pytest.mark.parametrize("seed", sorted(REAL_OUTPUT_DIGESTS))
def test_real_linear_algebra_outputs_stay_bit_identical(lib, seed):
    a = dominant_real(random.Random(seed), 6)
    digest = hashlib.sha256()
    for name in ("determinant", "inverse", "charpoly_coeffs"):
        item = lib[name]
        out = evaluate(item.expr, Instance({"alpha": 6}, {"V": a}), REAL,
                       schema=item.schema)
        digest.update(repr(out.entries).encode())
    assert digest.hexdigest() == REAL_OUTPUT_DIGESTS[seed]


def test_clique_count_stays_pinned(lib):
    rng = random.Random(8)
    n = 8
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.7:
                adj[i][j] = adj[j][i] = 1
    item = lib["four_clique_order"]
    out = evaluate(item.expr, Instance({"alpha": n}, {"V": from_rows(adj)}),
                   NAT, schema=item.schema)
    assert out.entries == (312,)


# Static errors: the build gives every node a shape or raises, so ill-shaped
# input fails before any kernel runs.
BUILD_SCHEMA = """
var V : alpha x alpha
var W : alpha x beta
var u : alpha x 1
var v : alpha x 1
var X : alpha x 1
"""


def _build_inputs():
    return {"V": from_rows([[1.0, 2.0], [3.0, 4.0]]),
            "W": from_rows([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0]]),
            "u": from_rows([[1.0], [2.0]])}


@pytest.mark.parametrize("text", [
    "V * V + W",                  # mismatched +
    "V * V * W^T",                # mismatched *
    "(V * u) .* V",               # a scalar that is not 1 x 1
    "hprod2(V * V, W)",           # pointwise arguments of unequal shapes
    "diag(V * V)",                # diag of a matrix
    "for v, X = V * u . X^T",     # a body that changes its accumulator
])
def test_shape_errors_raise_before_any_kernel_call(monkeypatch, text):
    calls = []
    for name in ("mat_mul", "mat_add", "mat_scale", "mat_map"):
        real = getattr(evaluator, name)

        def spy(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(evaluator, name, spy)
    with pytest.raises(ShapeMismatch):
        ev(text, BUILD_SCHEMA, {"alpha": 2, "beta": 3}, **_build_inputs())
    assert calls == []


def test_accumulator_that_changes_shape_is_rejected():
    with pytest.raises(ShapeMismatch):
        ev("for v, X = W . X^T", "var v : alpha x 1\nvar W : alpha x 1",
           {"alpha": 2}, W=from_rows([[1.0], [2.0]]))


def test_prod_body_that_is_not_square_is_rejected_at_dimension_one():
    with pytest.raises(ShapeMismatch):
        ev("prod v . W", "var v : alpha x 1\nvar W : alpha x beta",
           {"alpha": 1, "beta": 2}, W=from_rows([[1.0, 2.0]]))


def test_static_error_comes_before_a_run_time_error():
    with pytest.raises(UnknownFunction):
        ev("div([1], [0]) + frob([1])", "", {})


def test_static_error_inside_a_loop_has_no_loop_context():
    with pytest.raises(UnknownFunction) as err:
        ev("sum v . frob(v^T * v)", "var v : alpha x 1", {"alpha": 2})
    assert "loop over" not in str(err.value)


def test_unbound_variable_raises_before_any_closure_runs():
    with pytest.raises(EvalError, match="no value bound to variable 'Z'"):
        ev("div([1], [0]) + Z", "var Z : 1 x 1", {})


_LONG = "x" * 5000


@pytest.mark.parametrize("text, schema, dims, message", [
    (_LONG, f"var {_LONG} : 1 x 1", {}, "no value bound to variable 'xxx"),
    (f"f{_LONG}([1])", "", {}, "unknown function 'fxx"),
    (f"sum {_LONG} . {_LONG}", "", {}, "no type for loop binder 'xxx"),
    (f"sum v . v", f"var v : {_LONG} x 1", {},
     "no dimension assigned to size symbol 'xxx"),
    (f"sum {_LONG} . div([1], [0])", f"var {_LONG} : alpha x 1",
     {"alpha": 2}, "[loop over 'xxx"),
], ids=["unbound", "function", "binder", "size symbol", "loop context"])
def test_a_long_name_is_echoed_cut_short(text, schema, dims, message):
    with pytest.raises(EvalError) as err:
        ev(text, schema, dims)
    assert message in str(err.value) and "x' ..." not in str(err.value)
    assert len(str(err.value)) < 200


# An unannotated loop binder takes the type of the enclosing binder of its
# name, else of its schema declaration, in the evaluator as in `typecheck`.

_AB = MatrixType("alpha", "beta")


def _nested_accumulators(acc):
    """``for u, acc : alpha x beta . acc + (for u, acc . acc + V)``, the
    inner accumulator unannotated."""
    inner = For("u", acc, Add(Var(acc), Var("V")), var_sym="alpha")
    return For("u", acc, Add(Var(acc), inner), var_sym="alpha", acc_type=_AB)


@pytest.mark.parametrize("acc,decls", [("X", {}), ("s", {"s": _SCALAR})])
def test_unannotated_accumulator_takes_the_enclosing_binders_type(acc,
                                                                  decls):
    # the schema's `s : 1 x 1` is shadowed by the outer accumulator
    schema = Schema({"V": _AB, **decls})
    e = _nested_accumulators(acc)
    assert typecheck(e, schema) == _AB
    v = from_rows([[1, 2, 3], [4, 5, 6]])
    out = evaluate(e, Instance({"alpha": 2, "beta": 3}, {"V": v}), NAT,
                   schema=schema)
    assert out.tolists() == [[4 * x for x in row] for row in v.tolists()]


def shared_loop_under_two_sizes():
    """One loop shared under an iterator ``u`` over alpha and one over
    gamma.  Its own iterator ``u`` is unannotated, so it runs alpha times in
    the first place and gamma times in the second."""
    shared = For("u", "Y", Add(Var("Y"), Var("V")), acc_type=_SCALAR)
    return Add(
        For("u", "X", Add(Var("X"), shared), var_sym="alpha",
            acc_type=_SCALAR),
        For("u", "Z", Add(Var("Z"), shared), var_sym="gamma",
            acc_type=_SCALAR))


def test_shared_loop_is_sized_by_each_enclosing_binder(monkeypatch):
    schema = Schema({"V": _SCALAR})
    e = shared_loop_under_two_sizes()
    assert typecheck(e, schema) == _SCALAR
    inst = Instance({"alpha": 2, "gamma": 3}, {"V": from_rows([[1]])})
    assert evaluate(e, inst, NAT, schema=schema).tolists() == [[4 + 9]]
    with monkeypatch.context() as m:
        m.setattr(evaluator, "_memo_numbers",
                  lambda root, nodes: {num for num, _ in nodes.values()})
        assert evaluate(e, inst, NAT, schema=schema).tolists() == [[13]]


def test_accumulator_sized_by_its_initialiser_keeps_a_shared_loop_apart():
    # `X` is declared 1 x 1, but the initialiser sizes the outer `X` 2 x 2;
    # the shared loop looks `X` up, so it fits `V` inside the outer loop and
    # not at the top level, wherever it is built first
    shared = For("w", "X", Add(Var("X"), Var("V")), var_sym="alpha")
    outer = For("u", "X", Add(Var("X"), shared), init=Var("V"),
                var_sym="alpha")
    schema = Schema({"V": MatrixType("alpha", "alpha"), "X": _SCALAR})
    inst = Instance({"alpha": 2}, {"V": from_rows([[1, 2], [3, 4]])})
    assert evaluate(outer, inst, NAT, schema=schema).tolists() == \
        [[5, 10], [15, 20]]
    for e in (Add(outer, shared), Add(shared, outer)):
        with pytest.raises(ShapeMismatch):
            evaluate(e, inst, NAT, schema=schema)


def test_undeclared_unannotated_iterator_raises_missing_dimension():
    e = For("u", "X", Add(Var("X"), Var("V")), acc_type=_SCALAR)
    with pytest.raises(MissingDimension, match="'u'"):
        evaluate(e, Instance({"alpha": 2}, {"V": from_rows([[1]])}), NAT,
                 schema=Schema({"V": _SCALAR}))


def test_every_expression_that_typechecks_evaluates():
    dims = {"alpha": 2, "beta": 3, "gamma": 4}

    def size(sym):
        return 1 if sym == "1" else dims[sym]

    typed = 0
    for e, schema in _corpus():
        try:
            t = typecheck(e, schema)
        except TypeCheckError:
            continue
        typed += 1
        rng = random.Random(typed)
        mats = {name: _random_input(rng, REAL, size(schema[name].rows),
                                    size(schema[name].cols))
                for name in sorted(free_vars(e))}
        try:
            out = evaluate(e, Instance(dims, mats), REAL, schema=schema)
        except EvalError as exc:
            assert not isinstance(exc, (MissingDimension, ShapeMismatch)), \
                (pretty(e), exc)
            continue
        assert out.shape == (size(t.rows), size(t.cols)), pretty(e)
    assert typed > 2000


# An innermost sum of selections ``R * x`` and ``x^T * C`` folds over the
# rows it selects; with the pattern switched off the loop runs its body once
# per canonical vector, and the two must agree bit for bit.

_LIFT_SCHEMA = """
var x : alpha x 1
var a : alpha x 1
var c : alpha x 1
var s : 1 x 1
var X : 1 x 1
"""

_LIFTED = [
    "sum x . a^T * x",
    "sum x . x^T * c",
    "sum x . s * (a^T * x) * (x^T * c)",
    "for x, X . X + a^T * x",
    "for x, X . X + s * (x^T * c) * (a^T * x)",
    "for x, X . X + (a^T * x) * s * (x^T * c)",
]

_INF, _NAN = math.inf, math.nan

# (semiring, a, c, s); over real and tropical, a row holding a value y with
# times(zero, y) != zero (an infinity or nan) is selected by the kernel
_LIFT_INPUTS = [
    (REAL, [-0.0, 1.5, -2.0], [0.5, -0.0, -0.0], -0.0),
    (REAL, [_INF, -0.0, 1.0], [2.0, -_INF, 0.0], 2.0),
    (REAL, [1.0, _NAN, -0.0], [-0.0, 3.0, _INF], -1.0),
    (REAL, [_INF, 1.0, 2.0], [1.0, -0.0, 3.0], 2.0),
    (REAL, [1.0, 1e16, -1e16], [1e16, 1.0, -1e16], 1.0),  # order-sensitive
    (TROPICAL, [-_INF, 1.0, _INF], [0.0, _NAN, 2.0], 1.0),
    (TROPICAL, [_INF, _INF, 3.0], [-0.0, 1.0, _INF], 0.0),
    (NAT, [0, 3, 2], [1, 0, 5], 2),
    (BOOL, [1, 0, 1], [1, 1, 0], 1),
    (RATIONAL, [Fraction(1, 3), Fraction(0), Fraction(-2, 5)],
     [Fraction(7, 2), Fraction(1), Fraction(0)], Fraction(3, 4)),
]


def _record_selections(monkeypatch):
    """Keep what the pattern helper returns for every loop it is asked
    about."""
    seen = []
    real = evaluator._selections

    def spy(e, nodes):
        seen.append(real(e, nodes))
        return seen[-1]
    monkeypatch.setattr(evaluator, "_selections", spy)
    return seen


def _lift_outcome(text, sr, a, c, s, order=None):
    try:
        out = ev(text, _LIFT_SCHEMA, {"alpha": len(a)}, sr, order,
                 a=from_rows([[v] for v in a]), c=from_rows([[v] for v in c]),
                 s=from_rows([[s]]))
    except EvalError as exc:
        return type(exc), str(exc)
    return [repr(v) for v in out.entries]


@pytest.mark.parametrize("order", [None, lambda n: range(n, 0, -1)],
                         ids=["ascending", "reversed"])
@pytest.mark.parametrize("sr,a,c,s", _LIFT_INPUTS,
                         ids=[sr.name for sr, *_ in _LIFT_INPUTS])
@pytest.mark.parametrize("text", _LIFTED)
def test_lifted_loop_is_bit_identical_to_the_loop(monkeypatch, text, sr, a,
                                                  c, s, order):
    with monkeypatch.context() as m:
        seen = _record_selections(m)
        lifted = _lift_outcome(text, sr, a, c, s, order)
    assert seen and None not in seen
    with monkeypatch.context() as m:
        m.setattr(evaluator, "_selections", lambda e, nodes: None)
        assert _lift_outcome(text, sr, a, c, s, order) == lifted


@pytest.mark.parametrize("text", _LIFTED)
def test_loop_over_one_vector_is_not_lifted(monkeypatch, text):
    with monkeypatch.context() as m:
        seen = _record_selections(m)
        out = _lift_outcome(text, REAL, [-0.0], [_INF], 2.0)
    assert seen == []
    with monkeypatch.context() as m:
        m.setattr(evaluator, "_selections", lambda e, nodes: None)
        assert _lift_outcome(text, REAL, [-0.0], [_INF], 2.0) == out


@pytest.mark.parametrize("text", [
    "sum x . x^T * x",                # x on both sides
    "sum x . a^T * x + [1]",          # not a product spine
    "for x, X . X * (a^T * x)",       # not additive
    "for x, X . X + X * (a^T * x)",   # the accumulator in the term
    "for x, X . X + (a^T * x) * x^T * c",  # x^T is not a 1 x 1 factor
    "for x, X = s . X + (a^T * x) * s * (x^T * c)",  # not a sum: initialised
    "for x, X . (a^T * x) + X",       # the accumulator on the right
])
def test_other_loop_bodies_are_not_lifted(monkeypatch, text):
    seen = _record_selections(monkeypatch)
    _lift_outcome(text, NAT, [1, 2, 3], [4, 5, 6], 2)
    assert seen == [None]


# Errors inside a lifted loop read as they do when the loop runs its body
# once per vector; both messages were recorded before the lift existed.

def test_error_in_a_lifted_factor_names_the_first_iteration(monkeypatch):
    seen = _record_selections(monkeypatch)
    with pytest.raises(DivisionByZero) as err:
        ev("sum x . div(a, c)^T * x", _LIFT_SCHEMA, {"alpha": 3},
           a=from_rows([[1.0], [2.0], [3.0]]),
           c=from_rows([[1.0], [0.0], [2.0]]))
    assert seen and None not in seen
    assert str(err.value) == \
        "division by zero [loop over 'x', iteration 1 of 3]"


def test_lifted_loop_checks_its_iteration_order(monkeypatch):
    seen = _record_selections(monkeypatch)
    with pytest.raises(EvalError) as err:
        ev("sum x . a^T * x", _LIFT_SCHEMA, {"alpha": 3},
           order=lambda n: [1] * n, a=from_rows([[1.0], [2.0], [3.0]]))
    assert seen and None not in seen
    assert str(err.value) == "iteration_order(3) is not a permutation of 1..3"


@pytest.mark.parametrize("text", ["sum x . a^T * x", "sum x . x"])
def test_an_iteration_order_of_floats_is_not_a_permutation(text):
    # 2.0 == 2, but a float cannot index a row
    with pytest.raises(EvalError) as err:
        ev(text, _LIFT_SCHEMA, {"alpha": 2}, order=lambda n: [2.0, 1.0],
           a=from_rows([[1.0], [2.0]]))
    assert str(err.value) == "iteration_order(2) is not a permutation of 1..2"


@pytest.mark.parametrize("got", [5, None])
def test_an_iteration_order_that_is_not_iterable_is_not_a_permutation(got):
    with pytest.raises(EvalError) as err:
        ev("sum x . x", _LIFT_SCHEMA, {"alpha": 2}, order=lambda n: got)
    assert str(err.value) == "iteration_order(2) is not a permutation of 1..2"


def test_a_function_given_the_wrong_number_of_arguments_is_an_eval_error():
    # `typecheck` would reject it first; `evaluate` does not rely on that
    with pytest.raises(EvalError) as err:
        ev("div(V)", "var V : alpha x alpha", {"alpha": 2},
           V=from_rows([[1.0, 2.0], [3.0, 4.0]]))
    assert str(err.value) == "function 'div' expects 2 arguments, got 1"


def _is_basis(m, n):
    return m.shape == (n, 1) and sorted(m.entries) == [0] * (n - 1) + [1]


def test_four_clique_order_selects_its_innermost_rows_without_products(
        monkeypatch, lib):
    rng = random.Random(5)
    n = 10
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.7:
                adj[i][j] = adj[j][i] = 1
    calls = _spy_mat_mul(monkeypatch)
    item = lib["four_clique_order"]
    out = evaluate(item.expr, Instance({"alpha": n}, {"V": from_rows(adj)}),
                   NAT, schema=item.schema)
    assert out.get(0, 0) == oracles.ordered_four_cliques(adj)
    # twelve selections a^T M b, each made once per pair of vectors before
    # the lift (1,200 products); the six on x are now read off their rows,
    # and the six on (u, v), (u, w) and (v, w) remain
    selections = [a for a, b in calls
                  if a.shape == (1, n) and _is_basis(b, n)]
    assert len(selections) == 6 * n * n


@pytest.mark.parametrize("name,other,dense", [("four_clique", 450, 0),
                                              ("determinant", 291, 27)])
def test_loops_that_select_otherwise_make_the_same_products(
        monkeypatch, lib, name, other, dense):
    # `four_clique`'s mask 1 - u^T x is no selection, and the trace loops
    # t^T P t of `determinant` have t on both sides.  The spy sees only the
    # products the cache misses; the 67 dense products of `determinant`
    # (rows, inner and cols above one) hold 27 distinct ones
    n = 6
    if name == "four_clique":
        rng = random.Random(5)
        v = from_rows([[float(rng.random() < 0.7) for _ in range(n)]
                       for _ in range(n)])
    else:
        v = dominant_real(random.Random(61), n)
    calls = _spy_mat_mul(monkeypatch)
    item = lib[name]
    evaluate(item.expr, Instance({"alpha": n}, {"V": v}), REAL,
             schema=item.schema)
    made = [1 for a, b in calls if min(a.rows, a.cols, b.cols) > 1]
    assert (len(calls) - len(made), len(made)) == (other, dense)


# The product cache: equal dense products in one evaluation run once.

# small signed fractions, and the values `_INPUT_VALUES` lacks: -0.0,
# +-inf and nan, one to an input over the reals and min-plus
_RATIONALS = tuple(Fraction(p, q) for p in range(-3, 4) for q in (1, 2, 3))
_SPECIAL = (-0.0, math.inf, -math.inf, math.nan)


@pytest.mark.parametrize("sr", [REAL, TROPICAL, NAT, BOOL, RATIONAL],
                         ids=lambda sr: sr.name)
@pytest.mark.parametrize("name", ["determinant", "inverse", "power_sum"])
def test_the_product_cache_changes_no_entry(monkeypatch, lib, name, sr):
    # with the cap at 0 nothing is held, so every product runs; over nat,
    # bool and min-plus `determinant` and `inverse` fail before any does
    saved = 0
    for seed in range(6):
        rng, n = random.Random(seed), 3 + seed % 2
        values = _INPUT_VALUES.get(sr, _RATIONALS)
        rows = [[rng.choice(values) for _ in range(n)] for _ in range(n)]
        if seed and sr in (REAL, TROPICAL):
            rows[seed % n][rng.randrange(n)] = _SPECIAL[seed % 4]
        inst = Instance({"alpha": n}, {"V": from_rows(rows)})
        calls = _spy_mat_mul(monkeypatch)
        cached = _outcome(lib[name], inst, sr)
        cached_calls = len(calls)
        with monkeypatch.context() as m:
            m.setattr(evaluator, "_PRODUCT_ENTRIES", 0)
            plain = _outcome(lib[name], inst, sr)
        assert cached == plain, seed
        saved += len(calls) - 2 * cached_calls
    assert saved > 0 or isinstance(cached, type)


def test_product_keys_are_equal_only_for_equal_bits_and_classes():
    key = evaluator._entries_key
    other_nan = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
    keys = [key(entries) for entries in [
        (0.0, 1.0), (-0.0, 1.0), (math.nan, 1.0), (other_nan, 1.0),
        (0, 1), (False, True), (Fraction(0), Fraction(1))]]
    assert None not in keys and len(set(keys)) == len(keys)
    assert key((math.nan, 1.0)) == keys[2]
    # mixed classes, a gate, an unknown carrier
    assert key((0, 1.0)) is key((_Ref("input", (1, 1)),)) is key(
        (object(),)) is None


def test_product_keys_tell_the_sign_of_zero_apart():
    # min-plus: W * W is all 0.0 or inf, V * V all -0.0 or inf, and
    # 0.0 == -0.0, so a key comparing floats by value would hand V * V the
    # entries of W * W; `[inf] .*` makes W * W the zero matrix
    inf = math.inf
    e = Add(ScalarMul(Const(inf), MatMul(Var("W"), Var("W"))),
            MatMul(Var("V"), Var("V")))
    inst = Instance({}, {"W": from_rows([[0.0, inf], [inf, 0.0]]),
                         "V": from_rows([[-0.0, inf], [inf, -0.0]])})
    out = evaluate(e, inst, TROPICAL)
    assert [repr(x) for x in out.entries] == ["-0.0", "inf", "inf", "-0.0"]


def test_two_evaluations_do_not_share_products(monkeypatch, lib):
    v = dominant_real(random.Random(7), 4)
    made = _record_contexts(monkeypatch)
    calls = _spy_mat_mul(monkeypatch)
    first = run_named(lib, "power_sum", 4, V=v)
    once = len(calls)
    second = run_named(lib, "power_sum", 4, V=v)
    assert first.entries == second.entries
    assert len(calls) == 2 * once
    assert made[0].products and made[1].products
    assert made[0].products is not made[1].products


def test_the_product_cache_holds_no_more_than_its_cap(monkeypatch, lib):
    v = dominant_real(random.Random(8), 4)
    want = run_named(lib, "power_sum", 4, V=v)
    made = _record_contexts(monkeypatch)
    calls = _spy_mat_mul(monkeypatch)
    run_named(lib, "power_sum", 4, V=v)
    unbounded, held = len(calls), made[0].products.held
    # a 4 x 4 product holds 48 entries: room for two of them
    monkeypatch.setattr(evaluator, "_PRODUCT_ENTRIES", 100)
    out = run_named(lib, "power_sum", 4, V=v)
    assert out.entries == want.entries
    assert held > 100
    assert len(made[1].products) == 2 and made[1].products.held == 96
    assert len(calls) - unbounded > unbounded


def _at_depth(depth, fn):
    """fn(), called `depth` frames deeper than this call."""
    return _at_depth(depth - 1, fn) if depth else fn()


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info < (3, 11)
    or not sys.platform.startswith("linux"),
    reason="frame chunks are CPython 3.11+; page-fault counts are Linux's")
def test_the_callers_stack_depth_does_not_make_evaluation_map_memory(lib):
    # CPython frees a 16 KiB frame chunk when its first frame returns, so a
    # hot call on a chunk edge would map fresh pages on every call; over
    # more than a chunk's worth of caller depths, no evaluation may fault
    # in more than a few pages (one depth took 866 before `evaluate` opened
    # a chunk of its own)
    import resource
    item, n = lib["four_clique_order"], 4
    adj = [int(i != j) for i in range(n) for j in range(n)]
    inst = Instance({stdlib.ALPHA: n}, {"V": KMatrix(n, n, tuple(adj))})

    def run():
        return evaluate(item.expr, inst, NAT, schema=item.schema)

    want = run()
    faults = []
    for depth in range(200):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert _at_depth(depth, run).entries == want.entries
        faults.append(
            resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert want.entries == (24,)
    assert max(faults) <= 100, faults
