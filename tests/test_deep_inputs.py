"""Deep expressions through every pass that walks a tree.

A 5,000-term ``V + ... + V`` nests 5,000 deep either way round, well past
Python's default recursion limit, so each pass must keep its pending nodes
off the Python stack.  Queries nested 5,000 deep do the same for psi, and
text nested 5,000 deep for both parsers and the command line.  A
2,000-deep nest of quantifiers must cost work linear in its depth.
"""

import importlib
from collections import Counter

import pytest

from matfor import ast, bridge, fragments, sugar
from matfor.ast import (Add, Apply, Diag, For, MatMul, MatrixType, Schema,
                        Sum, UNIT, Var, substitute)
from matfor.bridge import (phi_translate, psi_translate, rel_encode,
                           rel_schema_of)
from matfor.circuit_compile import compile_expr
from matfor.cli import main
from matfor.errors import EvalError, NotInSumFragment
from matfor.fragments import Fragment, classify
from matfor.evaluator import evaluate
from matfor.instance import Instance
from matfor.matrix import from_rows
from matfor.parser import parse_expr
from matfor.printer import pretty
from matfor.relalg import (Join, Project, Rel, Rename, eval_ra, format_ra,
                           make_tuple, parse_ra)
from matfor.semiring import NAT
from matfor.sugar import desugar, reduce_apply_to_scalars
from matfor.typecheck import typecheck

TERMS = 5000
SCHEMA = Schema({"V": MatrixType("alpha", "beta"),
                 "W": MatrixType("alpha", "beta")})
TEXT = " + ".join(["V"] * TERMS)


def _sum(left_deep):
    e = Var("V")
    for _ in range(TERMS - 1):
        e = Add(e, Var("V")) if left_deep else Add(Var("V"), e)
    return e


# the printed forms, with the parentheses a right-deep sum needs
PRINTED = {True: TEXT,
           False: "V + (" * (TERMS - 2) + "V + V" + ")" * (TERMS - 2)}


@pytest.fixture(scope="module", params=[True, False],
                ids=["left-deep", "right-deep"])
def deep(request):
    return _sum(request.param), PRINTED[request.param]


def test_pretty(deep):
    e, text = deep
    assert pretty(e) == text


def test_parse(deep):
    e, text = deep
    assert parse_expr(text) == e
    assert parse_expr(text) != _sum(text != TEXT)


def test_quantifier_prefixes_round_trip():
    text = "".join(f"sum v{i} . " for i in range(TERMS)) + "V"
    assert pretty(parse_expr(text)) == text


def test_a_deep_query_round_trips():
    text = "union(" * TERMS + "rel R" + ", rel R)" * TERMS
    assert format_ra(parse_ra(text)) == text


def test_typecheck(deep):
    assert typecheck(deep[0], SCHEMA) == MatrixType("alpha", "beta")


@pytest.mark.parametrize("lower", [desugar, reduce_apply_to_scalars])
def test_lowering_passes_leave_a_core_sum_alone(deep, lower):
    e, text = deep
    assert pretty(lower(e, SCHEMA)) == text


def test_substitute(deep):
    e, text = deep
    assert pretty(substitute(e, {"V": Var("W")})) == text.replace("V", "W")


def test_phi_translation_formats_and_evaluates(deep):
    q = phi_translate(deep[0], SCHEMA)
    assert format_ra(q).count("rel R_V") == TERMS
    inst = Instance({"alpha": 2, "beta": 2},
                    {"V": from_rows([[1, 0], [2, 3]]),
                     "W": from_rows([[0, 0], [0, 0]])})
    _, rels = rel_encode(SCHEMA, inst, NAT)
    out = eval_ra(q, rels, NAT)
    assert out.support == {
        make_tuple({"row_alpha": i + 1, "col_beta": j + 1}): TERMS * v
        for i, row in enumerate([[1, 0], [2, 3]])
        for j, v in enumerate(row) if v}


@pytest.fixture(scope="module")
def long_product():
    """phi of a left-deep ``V * ... * V``, and its schema."""
    # a square V: every factor's inner attribute comes from its left operand
    e = Var("V")
    for _ in range(TERMS - 1):
        e = MatMul(e, Var("V"))
    schema = Schema({"V": MatrixType("alpha", "alpha")})
    return phi_translate(e, schema), schema


def test_phi_translates_a_long_left_deep_product(long_product):
    q, schema = long_product
    inst = Instance({"alpha": 2}, {"V": from_rows([[1, 1], [0, 1]])})
    _, rels = rel_encode(schema, inst, NAT)
    # the k-th power of [[1, 1], [0, 1]] is [[1, k], [0, 1]]
    assert eval_ra(q, rels, NAT).support == {
        make_tuple({"row_alpha": 1, "col_alpha": 1}): 1,
        make_tuple({"row_alpha": 1, "col_alpha": 2}): TERMS,
        make_tuple({"row_alpha": 2, "col_alpha": 2}): 1}


def test_format_ra_prints_a_long_product(long_product):
    assert format_ra(long_product[0]).count("rel R_V") == TERMS


def test_psi_translates_the_union(deep):
    q = phi_translate(deep[0], SCHEMA)
    e = psi_translate(q, rel_schema_of(SCHEMA))
    assert pretty(e).count("V_R_V") == TERMS


def _nest(wrap, q, times):
    for _ in range(times):
        q = wrap(q)
    return q


@pytest.mark.parametrize("q, leaf, count", [
    (_nest(lambda q: Join(Rel("T"), q), Rel("T"), TERMS - 1), "V_T", TERMS),
    (_nest(lambda q: Project({"a"}, q), Rel("R"), TERMS), "V_R", 1),
    (_nest(lambda q: Rename((("a", "b"), ("b", "a")), q), Rel("R"), TERMS),
     "V_R", 1),
], ids=["right-deep-join", "project", "rename"])
def test_psi_translates_a_deep_query(q, leaf, count):
    e = psi_translate(q, {"R": frozenset({"a", "b"}),
                          "T": frozenset({"a"})})
    assert pretty(e).count(leaf) == count


@pytest.mark.parametrize("run", [
    lambda e: evaluate(e, Instance({"alpha": 2, "beta": 2},
                                   {"V": from_rows([[1, 0], [2, 3]])}),
                       NAT),
    lambda e: compile_expr(e, SCHEMA, {"alpha": 2, "beta": 2}),
], ids=["evaluate", "compile_expr"])
def test_right_deep_sum_too_deep_to_evaluate_is_an_eval_error(run):
    # a right-deep sum's closures still nest once per term
    with pytest.raises(EvalError, match="nested too deeply to evaluate"):
        run(_sum(False))


def _deep_initialiser():
    """``for v, X = (for i, S . S + (V + ... + V)) . hprod2(X, V)``, its
    inner sum 3,000 terms long: a Σ loop as the initialiser of a loop that
    is no ⊙ loop, since the Σ loop's term is not its iterator."""
    e = Var("V")
    for _ in range(2999):
        e = Add(e, Var("V"))
    t = MatrixType("alpha", "beta")
    init = For("i", "S", Add(Var("S"), e), var_sym="alpha", acc_type=t)
    return For("v", "X", Apply("hprod2", (Var("X"), Var("V"))), init,
               var_sym="alpha", acc_type=t)


def test_a_deep_initialiser_is_classified():
    assert classify(_deep_initialiser()) is Fragment.FULL


def test_a_deep_initialiser_is_no_additive_loop_to_phi():
    with pytest.raises(NotInSumFragment,
                       match="only additive loops can be translated"):
        phi_translate(_deep_initialiser(), SCHEMA)


@pytest.mark.parametrize("command", ["check", "to-ra"])
def test_cli_accepts_a_long_sum(tmp_path, capsys, command):
    schema = tmp_path / "s.schema"
    schema.write_text("var V : alpha x beta\n")
    assert main([command, "-e", TEXT, "--schema", str(schema)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.count("\n") == 1


def _right_nested(op):
    return f"V {op} (" * (TERMS - 1) + "V" + ")" * (TERMS - 1)


@pytest.mark.parametrize("text", [
    _right_nested("+"), _right_nested("*"),
    "[2] .* (" * (TERMS - 1) + "V" + ")" * (TERMS - 1),
    "hsum1(" * TERMS + "V" + ")" * TERMS,
], ids=["right-deep-sum", "right-deep-product", "scalar-product",
        "application"])
@pytest.mark.parametrize("command", ["check", "eval", "desugar", "classify",
                                     "to-ra", "compile-circuit"])
def test_cli_reads_deep_text(tmp_path, capsys, text, command):
    # until the evaluator runs in bounded stack (ROADMAP item 1), eval and
    # compile-circuit may end in its "nested too deeply" error
    schema = tmp_path / "s.schema"
    schema.write_text("var V : alpha x alpha\n")
    inst = tmp_path / "v.inst"
    inst.write_text("semiring nat\nsize alpha 2\nmatrix V alpha alpha\n"
                    "1 2\n3 4\n")
    files = {"eval": ["--instance", str(inst)],
             "compile-circuit": ["--schema", str(schema), "--dim", "alpha=2"]}
    code = main([command, "-e", text,
                 *files.get(command, ["--schema", str(schema)])])
    out, err = capsys.readouterr()
    if code == 0:
        assert out and err == ""
    else:
        assert code in (2, 3) and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


DEPTH = 2000
NEST_SCHEMA = Schema({"V": MatrixType("alpha", UNIT),
                      "u": MatrixType("alpha", UNIT)})


@pytest.fixture
def calls(monkeypatch):
    """Counts of calls of the type checker's rule `_check` and of
    `node_table`, through every module that holds them."""
    counts = Counter()
    typecheck_module = importlib.import_module("matfor.typecheck")
    for module, name in [(typecheck_module, "_check"), (sugar, "_check"),
                         (ast, "node_table"),
                         (fragments, "node_table"), (bridge, "node_table")]:
        def counting(*args, real=getattr(module, name), name=name):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, counting)
    return counts


def _sum_nest():
    """``sum v . (sum v . (... + v) + v)``, `DEPTH` quantifiers deep."""
    e = Var("V")
    for _ in range(DEPTH):
        e = Sum("v", Add(e, Var("v")), var_sym="alpha")
    return e


def _diag_nest():
    """``diag(diag(... * u) * u) * u``, `DEPTH` diags deep."""
    e = Var("V")
    for _ in range(DEPTH):
        e = MatMul(Diag(e), Var("u"))
    return e


def _sum_diag_nest():
    """``sum v . diag(sum v . diag(... * v) * v) * v``, `DEPTH` levels."""
    e = Var("V")
    for _ in range(DEPTH):
        e = Sum("v", MatMul(Diag(e), Var("v")), var_sym="alpha")
    return e


NESTS = (_sum_nest, _diag_nest, _sum_diag_nest)


@pytest.mark.parametrize("run, per_level", [
    (lambda e: desugar(e, NEST_SCHEMA), (13, 13, 13)),
    (lambda e: classify(desugar(e, NEST_SCHEMA)) is Fragment.SUM,
     (13, 13, 13)),
    # phi also types the desugared core, in which each diag is a loop
    (lambda e: phi_translate(e, NEST_SCHEMA), (13, 21, 21)),
], ids=["desugar", "classify", "phi_translate"])
def test_a_deep_quantifier_nest_costs_linear_work(calls, run, per_level):
    # typing each desugared body or diag argument afresh, or a table per
    # loop, is quadratic: millions of `_check` calls and thousands of
    # tables at this depth
    for nest, bound in zip(NESTS, per_level):
        calls.clear()
        assert run(nest())
        assert calls["_check"] <= bound * DEPTH, nest.__name__
        assert calls["node_table"] <= 2, nest.__name__


def test_a_deep_application_nest_is_scalarised_in_linear_work(calls):
    # ``hsum2(hsum2(... , V), V)``: typing each application's first argument
    # afresh is quadratic, millions of `_check` calls at this depth
    e = Var("V")
    for _ in range(DEPTH):
        e = Apply("hsum2", (e, Var("V")))
    out = reduce_apply_to_scalars(e, NEST_SCHEMA)
    assert calls["_check"] <= 13 * DEPTH
    assert typecheck(out, NEST_SCHEMA) == MatrixType("alpha", UNIT)
