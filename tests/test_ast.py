import copy
import hashlib

import pytest

from matfor import stdlib
from matfor.ast import (Add, Apply, Const, For, Hadamard, MatMul, MatrixType,
                        Prod, Schema, Sum, Transpose, Var, binders,
                        bound_names, children, free_vars, node_table,
                        substitute, summand, walk)
from matfor.bridge import psi_translate
from matfor.errors import DuplicateVariable
from matfor.parser import parse_expr
from matfor.relalg import Project, Rel, Select, parse_ra
from matfor.sugar import desugar


def test_free_vars_of_variable():
    assert free_vars(Var("V")) == {"V"}


def test_loop_binders_are_not_free():
    e = For("v", "X", Add(Var("X"), MatMul(Var("v"), Var("W"))))
    assert free_vars(e) == {"W"}


def test_binders_are_bound_in_the_last_child_only():
    init, body = Var("v"), Add(Var("X"), Var("v"))
    loop = For("v", "X", body, init)
    assert binders(loop) == ("v", "X") and children(loop)[-1] is body
    assert binders(Hadamard("v", body)) == ("v",)
    assert binders(body) == ()
    assert free_vars(loop) == {"v"}


def test_sugar_binds_iterator():
    assert free_vars(Sum("v", Var("v"))) == frozenset()


def test_init_is_outside_the_binding():
    e = For("v", "X", Var("X"), init=Var("v"))
    assert free_vars(e) == {"v"}


def _reference_free_vars(e, memo):
    """Free variables by the recursive definition, memoised per node."""
    got = memo.get(id(e))
    if got is not None:
        return got
    if isinstance(e, Var):
        got = frozenset((e.name,))
    elif isinstance(e, For):
        got = _reference_free_vars(e.body, memo) - {e.var, e.acc}
        if e.init is not None:
            got |= _reference_free_vars(e.init, memo)
    elif isinstance(e, (Sum, Prod, Hadamard)):
        got = _reference_free_vars(e.body, memo) - {e.var}
    else:
        got = frozenset()
        for c in children(e):
            got |= _reference_free_vars(c, memo)
    memo[id(e)] = got
    return got


@pytest.mark.parametrize("name", sorted(stdlib.all_named()))
def test_free_var_table_matches_the_recursive_definition(name):
    root = stdlib.all_named()[name].expr
    table = node_table(root)
    memo = {}
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(children(node))
        assert table[id(node)][1] == tuple(sorted(
            _reference_free_vars(node, memo)))
    assert len(table) == len(seen)


def test_free_vars_of_a_deep_chain():
    e = Var("V")
    for i in range(5000):
        e = Add(e, Var(f"W{i % 3}"))
    assert free_vars(e) == {"V", "W0", "W1", "W2"}


def test_value_numbers_follow_structure_not_identity():
    from matfor.parser import parse_expr
    left, right = parse_expr("V * V"), MatMul(Var("V"), Var("V"))
    e = Add(left, right)
    table = node_table(e)
    assert left is not right
    assert table[id(left)] == table[id(right)] == (table[id(left)][0], ("V",))
    assert table[id(e)][0] != table[id(left)][0]


def test_value_numbers_keep_apart_what_evaluates_differently():
    body = Add(Var("X"), Var("v"))
    t = MatrixType("a", "a")
    pairs = [
        (Const(1), Const(1.0)),
        (Const(1), Const(True)),
        (Const(0.0), Const(-0.0)),
        (For("v", "X", body, init=Var("v")), For("v", "X", body)),
        (For("v", "X", body, acc_type=t), For("v", "X", body)),
        (Sum("v", body), Prod("v", body)),
        (Prod("v", body), Hadamard("v", body)),
        (Sum("v", body, var_sym="a"), Sum("v", body, var_sym="b")),
        (Sum("v", body), Sum("w", body)),
    ]
    for x, y in pairs:
        table = node_table(Add(x, y))
        assert table[id(x)][0] != table[id(y)][0], (x, y)


def test_walk_is_preorder():
    a, b, c = Var("a"), Var("b"), Var("c")
    e = Add(MatMul(a, b), Transpose(c))
    assert list(walk(e)) == [e, e.left, a, b, e.right, c]
    loop = For("v", "X", a, init=b)
    assert list(walk(loop)) == [loop, b, a]


def test_walk_of_a_deep_chain():
    e = Var("V")
    for _ in range(4999):
        e = Add(e, Var("V"))
    assert sum(1 for _ in walk(e)) == 9999


def test_bound_names():
    e = Sum("v", For("w", "X", Var("X")))
    assert bound_names(e) == {"v", "w", "X"}


_TERM = MatMul(Var("v"), Var("W"))


def _summand(e):
    return summand(e, node_table(e))


def test_summand_of_a_sum_is_its_body():
    assert _summand(Sum("v", _TERM)) is _TERM


def test_summand_of_an_additive_loop_is_its_term_on_either_side():
    assert _summand(For("v", "X", Add(Var("X"), _TERM))) is _TERM
    assert _summand(For("v", "X", Add(_TERM, Var("X")))) is _TERM


@pytest.mark.parametrize("e", [
    For("v", "X", Add(Var("X"), MatMul(Var("X"), Var("v")))),
    For("v", "X", Add(Var("X"), _TERM), init=Var("W")),
    For("v", "X", MatMul(Var("X"), _TERM)),
    Prod("v", _TERM),
    Add(Var("X"), _TERM),
], ids=["accumulator-in-term", "initialiser", "not-additive", "prod",
        "not-a-loop"])
def test_summand_of_any_other_node_is_none(e):
    assert _summand(e) is None


def test_structural_equality_ignores_spans():
    from matfor.parser import parse_expr
    a = parse_expr("X + v")
    b = Add(Var("X"), Var("v"))
    assert a == b


def test_substitute_respects_binders():
    e = Sum("v", Add(Var("v"), Var("a")))
    out = substitute(e, {"a": Const(1), "v": Const(2)})
    assert out == Sum("v", Add(Var("v"), Const(1)))


def test_schema_rejects_duplicates():
    s = Schema({"V": MatrixType("alpha", "alpha")})
    with pytest.raises(DuplicateVariable):
        s.declare("V", MatrixType("alpha", "1"))


def test_schema_merge_allows_agreeing_types():
    s1 = Schema({"V": MatrixType("alpha", "alpha")})
    s2 = Schema({"V": MatrixType("alpha", "alpha"),
                 "w": MatrixType("alpha", "1")})
    assert set(s1.merged(s2).vars) == {"V", "w"}
    with pytest.raises(DuplicateVariable):
        s1.merged(Schema({"V": MatrixType("beta", "beta")}))


def test_transpose_swaps_type_fields():
    t = MatrixType("alpha", "beta")
    assert t.transposed() == MatrixType("beta", "alpha")
    assert Transpose(Var("V")) == Transpose(Var("V"))


# ---------------------------------------------------------------------------
# One structural identity: ==, hash and repr of expression and query trees

DEEP = 5000


def _deep_sum(left_deep):
    e = Var("V")
    for _ in range(DEEP - 1):
        e = Add(e, Var("V")) if left_deep else Add(Var("V"), e)
    return e


# builder, and how often its leaf's field prints
DEEP_TREES = {
    "left-deep-sum": (lambda: _deep_sum(True), "name='V'", DEEP),
    "right-deep-sum": (lambda: _deep_sum(False), "name='V'", DEEP),
    "sum-nest": (lambda: parse_expr(
        "".join(f"sum v{i} . " for i in range(DEEP)) + "V"), "name='V'", 1),
    "union-nest": (lambda: parse_ra(
        "union(" * DEEP + "rel R" + ", rel R)" * DEEP), "name='R'", DEEP + 1),
    "join-nest": (lambda: parse_ra(
        "join(rel R, " * DEEP + "rel R" + ")" * DEEP), "name='R'", DEEP + 1),
}


@pytest.mark.parametrize("name", sorted(DEEP_TREES))
def test_deep_trees_compare_hash_and_print(name):
    build, leaf, count = DEEP_TREES[name]
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert repr(a) == repr(b) and repr(a).count(leaf) == count


def test_deep_sums_of_either_shape_differ():
    assert _deep_sum(True) != _deep_sum(False)


def test_a_shared_dag_compares_in_linear_work():
    # 200 levels of ``e + e``: 2**200 paths, 200 distinct pairs of nodes
    a, b = Var("V"), Var("V")
    for _ in range(200):
        a, b = Add(a, a), Add(b, b)
    assert a == b and hash(a) == hash(b)
    assert a != Add(b.left, Add(b.left.left, Var("W")))


def test_equality_agrees_with_value_numbers():
    from test_pass_pins import _corpus
    exprs = [e for e, _ in _corpus()]
    for i, a in enumerate(exprs):
        for b in [copy.deepcopy(a), *exprs[i + 1:i + 4]]:
            table = node_table(Apply("pair", (a, b)))
            same = table[id(a)][0] == table[id(b)][0]
            assert (a == b) is same and (a != b) is not same, (a, b)
            assert not same or hash(a) == hash(b)


_BODY, _TYPE = Add(Var("X"), Var("v")), MatrixType("a", "a")
# the pairs the value numbers keep apart, and two pairs of queries
APART = [
    (Const(1), Const(1.0)),
    (Const(1), Const(True)),
    (Const(0.0), Const(-0.0)),
    (For("v", "X", _BODY, init=Var("v")), For("v", "X", _BODY)),
    (For("v", "X", _BODY, acc_type=_TYPE), For("v", "X", _BODY)),
    (Sum("v", _BODY), Prod("v", _BODY)),
    (Prod("v", _BODY), Hadamard("v", _BODY)),
    (Sum("v", _BODY, var_sym="a"), Sum("v", _BODY, var_sym="b")),
    (Sum("v", _BODY), Sum("w", _BODY)),
    (Rel("R"), Var("R")),
    (Project({"a"}, Rel("R")), Select({"a"}, Rel("R"))),
]


@pytest.mark.parametrize("x, y", APART)
def test_what_evaluates_differently_compares_unequal(x, y):
    assert x != y and not x == y
    assert x == copy.deepcopy(x) and hash(x) == hash(copy.deepcopy(x))


def test_nan_literals_are_equal():
    # two nan objects: a float enters the key by its repr
    a, b = Const(float("nan")), Const(float("nan"))
    assert a.value is not b.value
    assert a == b and hash(a) == hash(b)


def test_a_joint_node_table_numbers_a_shared_subtree_once(monkeypatch):
    from matfor import ast
    shared = MatMul(Var("V"), Var("W"))
    a, b = Add(shared, Var("V")), Transpose(shared)
    keyed, parts = [], ast.parts

    def spy(node):
        keyed.append(node)
        return parts(node)

    monkeypatch.setattr(ast, "parts", spy)
    table = node_table(a, b)
    assert len(keyed) == len({id(n) for n in keyed}) == len(table) == 6
    assert {id(a), id(b), id(shared)} <= table.keys()
    # equal structures under either root take one number
    twin = Transpose(MatMul(Var("V"), Var("W")))
    joint = node_table(a, twin)
    assert joint[id(twin.arg)] == joint[id(shared)] == (joint[id(shared)][0],
                                                       ("V", "W"))
    assert joint[id(a.right)][0] == joint[id(shared.left)][0]


def test_an_expr_never_equals_a_query():
    exprs = [Var("R"), Transpose(Var("R")), parse_expr("V * V")]
    queries = [Rel("R"), Project({"a"}, Rel("R")),
               parse_ra("union(rel R, rel R)")]
    for e in exprs:
        for q in queries:
            table = node_table(e, q)
            assert table[id(e)][0] != table[id(q)][0]
            assert e != q and q != e and not e == q


def test_trees_are_unequal_to_other_values():
    assert Var("V") != "V" and Var("V") != ("V",)


def _repr_lines():
    """The repr of every stdlib program, its desugared core, the parsed phi
    corpus, the psi translations of the psi queries and those queries whose
    attribute sets print in one order."""
    from test_acceptance import PHI_CORPUS
    from test_bridge_psi import BINARY, QUERIES
    lines = []
    for _, item in sorted(stdlib.all_named().items()):
        lines += [repr(item.expr), repr(desugar(item.expr, item.schema))]
    lines += [repr(parse_expr(text)) for text in PHI_CORPUS]
    lines += [repr(psi_translate(parse_ra(text), BINARY)) for text in QUERIES]
    # a frozenset of two or more names prints in a per-process order
    lines += [repr(parse_ra(text)) for text in QUERIES if "[a, " not in text]
    return lines


# sha256 of the newline-joined `_repr_lines` as the dataclass-generated
# repr printed them
REPR_SHA256 = (
    "08b1b84edf5f85ddb68ab8f613113076fcc92435671083b103eab9e680e2e914")


def test_repr_prints_what_the_dataclass_printed():
    text = "\n".join(_repr_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == REPR_SHA256
    assert repr(Apply("f", (Var("V"),))) == (
        "Apply(func='f', args=(Var(name='V'),))")
    assert repr(For("v", "X", Var("X"), acc_type=MatrixType("a", "a"))) == (
        "For(var='v', acc='X', body=Var(name='X'), init=None, var_sym=None, "
        "acc_type=MatrixType(rows='a', cols='a'))")
