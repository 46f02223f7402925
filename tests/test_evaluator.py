import hashlib
import math
import random
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import oracles
from conftest import dominant_real
from matfor import evaluator, stdlib
from matfor.ast import (Add, Const, For, MatMul, MatrixType, Prod, ScalarMul,
                        Sum, Transpose, Var, free_vars)
from matfor.errors import (DivisionByZero, EvalError,
                           FunctionUnavailableForSemiring, IndexOutOfRange,
                           MatforError, MissingDimension, ShapeMismatch,
                           UnknownFunction)
from matfor.evaluator import canonical_vector, evaluate, mat_equal
from matfor.instance import Instance
from matfor.matrix import from_rows
from matfor.parser import parse_expr, parse_schema
from matfor.semiring import BOOL, NAT, REAL, TROPICAL
from matfor.sugar import desugar


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
