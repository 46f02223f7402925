"""Deep expressions through every pass that walks a tree.

A 5,000-term ``V + ... + V`` nests 5,000 deep either way round, well past
Python's default recursion limit, so each pass must keep its pending nodes
off the Python stack.  Queries nested 5,000 deep do the same for psi.
"""

import pytest

from matfor.ast import Add, MatMul, MatrixType, Schema, Var, substitute
from matfor.bridge import (phi_translate, psi_translate, rel_encode,
                           rel_schema_of)
from matfor.circuit_compile import compile_expr
from matfor.cli import main
from matfor.errors import EvalError
from matfor.evaluator import evaluate
from matfor.instance import Instance
from matfor.matrix import from_rows
from matfor.printer import pretty
from matfor.relalg import (Join, Project, Rel, Rename, eval_ra, format_ra,
                           make_tuple)
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


@pytest.mark.parametrize("command", ["check", "to-ra"])
def test_cli_accepts_a_long_sum(tmp_path, capsys, command):
    schema = tmp_path / "s.schema"
    schema.write_text("var V : alpha x beta\n")
    assert main([command, "-e", TEXT, "--schema", str(schema)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.count("\n") == 1
