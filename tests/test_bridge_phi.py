import random

import pytest

from matfor import bridge
from matfor.ast import Add, For, MatrixType, Schema, Var
from matfor.bridge import (col_attr, phi_translate, rel_encode, row_attr)
from matfor.errors import NotInSumFragment, UnsupportedFunction
from matfor.evaluator import evaluate
from matfor.instance import Instance
from matfor.matrix import KMatrix, from_rows
from matfor.parser import parse_expr, parse_schema
from matfor.relalg import eval_ra, make_tuple
from matfor.semiring import BOOL, NAT
from matfor.typecheck import typecheck

SCHEMA = parse_schema("""
var V : alpha x beta
var W : alpha x beta
var M : beta x alpha
var Q : alpha x alpha
var u : alpha x 1
var v : alpha x 1
var w : beta x 1
var s : 1 x 1
""")


def test_encoding_of_a_matrix_variable():
    schema = Schema({"V": MatrixType("alpha", "beta")})
    inst = Instance({"alpha": 2, "beta": 2},
                    {"V": from_rows([[0, 5], [7, 0]])})
    relschema, rels = rel_encode(schema, inst, NAT)
    assert relschema["R_V"] == {row_attr("alpha"), col_attr("beta")}
    assert rels["R_V"].support == {
        make_tuple({row_attr("alpha"): 1, col_attr("beta"): 2}): 5,
        make_tuple({row_attr("alpha"): 2, col_attr("beta"): 1}): 7,
    }
    assert rels["D_alpha"].support == {
        make_tuple({"alpha": 1}): 1, make_tuple({"alpha": 2}): 1}


def test_encoding_of_a_scalar():
    schema = Schema({"s": MatrixType("1", "1")})
    inst = Instance({}, {"s": from_rows([[3]])})
    relschema, rels = rel_encode(schema, inst, NAT)
    assert relschema["R_s"] == frozenset()
    assert rels["R_s"].support == {(): 3}


def test_zero_matrix_has_empty_support_but_full_domain():
    schema = Schema({"V": MatrixType("alpha", "alpha")})
    inst = Instance({"alpha": 3}, {"V": from_rows([[0] * 3] * 3)})
    _, rels = rel_encode(schema, inst, NAT)
    assert rels["R_V"].support == {}
    assert len(rels["D_alpha"].support) == 3


def rand_instance(rng, schema, sr, nmax=4):
    dims = {"alpha": rng.randint(1, nmax), "beta": rng.randint(1, nmax)}
    mats = {}
    for name, t in schema.vars.items():
        r = dims.get(t.rows, 1)
        c = dims.get(t.cols, 1)
        vals = [rng.choice([0, 0, 1, 2, 3]) if sr is NAT
                else rng.choice([0, 1]) for _ in range(r * c)]
        mats[name] = KMatrix(r, c, tuple(vals))
    return Instance(dims, mats)


CORPUS = [
    "V",
    "V + W",
    "V^T",
    "V * M",
    "Q * Q",
    "s .* V",
    "u^T * V",
    "sum v . v",
    "sum v . v * v^T",
    "sum v . (v^T * u) .* (V^T * v)",
    "sum v . sum w . (v^T * V * w) .* (v * w^T)",
    "sum v . u",
    "sum v . s",
    "hprod2(V, W)",
    "hsum2(V, W) + V",
    "ones(V)",
    "diag(u)",
]


@pytest.mark.parametrize("text", CORPUS)
def test_translation_contract(text):
    rng = random.Random(hash(text) & 0xFFFFFF)
    e = parse_expr(text)
    t = typecheck(e, SCHEMA)
    q = phi_translate(e, SCHEMA)
    for _ in range(10):
        sr = rng.choice([NAT, BOOL])
        inst = rand_instance(rng, SCHEMA, sr)
        sub = Schema({name: SCHEMA[name] for name in SCHEMA.vars})
        val = evaluate(e, inst, sr, schema=sub)
        _, rels = rel_encode(SCHEMA, inst, sr)
        out = eval_ra(q, rels, sr)
        for i in range(val.rows):
            for j in range(val.cols):
                point = {}
                if t.rows != "1":
                    point[row_attr(t.rows)] = i + 1
                if t.cols != "1":
                    point[col_attr(t.cols)] = j + 1
                assert out.value(make_tuple(point), sr) == val.get(i, j), \
                    (text, sr.name, i, j)


def test_all_valid_indices_includes_zero_entries():
    e = parse_expr("hprod2(V, W)")
    inst = Instance({"alpha": 2, "beta": 1},
                    {"V": from_rows([[3], [0]]), "W": from_rows([[0], [2]])})
    q = phi_translate(e, SCHEMA)
    _, rels = rel_encode(SCHEMA, inst, NAT)
    out = eval_ra(q, rels, NAT)
    assert out.support == {}


def test_order_primitives_are_rejected():
    with pytest.raises(NotInSumFragment):
        phi_translate(parse_expr("Sless[alpha]"), SCHEMA)


def test_scalar_literals_are_rejected():
    with pytest.raises(NotInSumFragment):
        phi_translate(parse_expr("[2]"), SCHEMA)


def test_non_additive_loops_are_rejected():
    with pytest.raises(NotInSumFragment):
        phi_translate(parse_expr("prod v . Q"), SCHEMA)


def test_unsupported_functions_are_rejected():
    with pytest.raises(UnsupportedFunction):
        phi_translate(parse_expr("gtz(V)"), SCHEMA)


@pytest.mark.parametrize("src", ["hprod0(V)", "hsum01(V, V)"])
def test_names_outside_the_pointwise_families_are_rejected(src):
    # the evaluator rejects these names, so the translation must too
    with pytest.raises(UnsupportedFunction):
        phi_translate(parse_expr(src), SCHEMA)


@pytest.mark.parametrize("name", ["f" * 5000, "hsum" + "1" * 5000],
                         ids=["name", "arity past the int-string limit"])
def test_a_long_function_name_is_echoed_cut_short(name):
    with pytest.raises(UnsupportedFunction) as err:
        phi_translate(parse_expr(f"{name}(V, V)"), SCHEMA)
    assert str(err.value).startswith(f"function '{name[:37]}'...")
    assert len(str(err.value)) < 200




def test_an_accumulator_typed_by_the_enclosing_loop_translates():
    # the inner loop's accumulator X is typed by the outer loop's
    # annotation; the value is alpha * alpha copies of V
    t = MatrixType("alpha", "beta")
    inner = For("u", "X", Add(Var("X"), Var("V")))
    e = For("u", "X", Add(Var("X"), inner), acc_type=t)
    assert typecheck(e, SCHEMA) == t
    inst = rand_instance(random.Random(5), SCHEMA, NAT)
    _, rels = rel_encode(SCHEMA, inst, NAT)
    out = eval_ra(phi_translate(e, SCHEMA), rels, NAT)
    n, v = inst.dims["alpha"], inst.mats["V"]
    for i in range(v.rows):
        for j in range(v.cols):
            point = make_tuple({row_attr("alpha"): i + 1,
                                col_attr("beta"): j + 1})
            assert out.value(point, NAT) == n * n * v.get(i, j)


def test_phi_types_the_core_once(monkeypatch):
    calls = []
    real = bridge.type_in_env

    def spy(e, types):
        calls.append(e)
        return real(e, types)
    monkeypatch.setattr(bridge, "type_in_env", spy)
    phi_translate(parse_expr("(V * M * Q)^T + (Q^T * V * M)^T"),
                  SCHEMA)
    assert len(calls) == 1
