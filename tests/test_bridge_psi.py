import hashlib
import itertools
import math
import random

import pytest

from matfor import ast, evaluator, relalg
from matfor.ast import (UNIT, MatMul, MatrixType, Sum, bound_names,
                        free_vars, walk)
from matfor.bridge import (MAT_SYM, active_domain, mat_encode, mat_schema,
                           psi_translate)
from matfor.errors import (EmptyActiveDomain, OutputArityTooLarge,
                           SchemaNotBinary, SignatureViolation)
from matfor.evaluator import evaluate
from matfor.fragments import Fragment, classify
from matfor.printer import pretty
from matfor.relalg import KRelation, eval_ra, make_tuple, parse_ra
from matfor.semiring import BOOL, NAT, REAL, TROPICAL
from matfor.typecheck import type_in_env

BINARY = {"R": frozenset({"a", "b"}), "S": frozenset({"b", "c"}),
          "T": frozenset({"a"}), "Z": frozenset()}

# four attributes alive in the middle, as in the clique query
FOUR_ATTRS = ("project[a, d](join(join(rel R, rename[c->a, d->b](rel R)), "
              "rename[b->a, c->b](rel R)))")

QUERIES = [
    "rel R",
    "rel T",
    "rel Z",
    "union(rel R, rel R)",
    "project[a](rel R)",
    "project[](rel R)",
    "select[a, b](rel R)",
    "rename[c->a, d->b](rel R)",
    "project[a, c](join(rel R, rel S))",
    "join(rel T, rel R)",
    FOUR_ATTRS,
]

# sha256 of `pretty` of every QUERIES translation, one per line (QUERIES
# holds every query of the benchmark's psi corpus)
QUERIES_PRETTY_SHA256 = (
    "d3f61bc6d3e1e520923498050360487f3ba22eaf359ddae8d3717c54966ce763")

# annotations drawn per semiring, zero included
DRAWS = {"nat": (0, 0, 1, 2), "bool": (0, 1),
         "tropical": (math.inf, math.inf, 0.0, 1.0, 2.0),
         "real": (0.0, 0.0, 0.1, 0.7, 1.3)}


def test_encoding_follows_the_active_domain_order():
    rels = {"R": KRelation.build(
        frozenset({"a", "b"}), [(make_tuple({"a": 3, "b": 7}), 2)], NAT)}
    schema, inst = mat_encode({"R": frozenset({"a", "b"})}, rels, NAT)
    assert inst.dims["alpha"] == 2
    assert inst.mats["V_R"].tolists() == [[0, 2], [0, 0]]


def test_unary_and_nullary_encodings():
    rels = {
        "T": KRelation.build(frozenset({"a"}), [(make_tuple({"a": 5}), 4)],
                             NAT),
        "Z": KRelation.build(frozenset(), [((), 9)], NAT),
    }
    schema, inst = mat_encode({"T": frozenset({"a"}), "Z": frozenset()},
                              rels, NAT)
    assert inst.mats["V_T"].tolists() == [[4]]
    assert inst.mats["V_Z"].tolists() == [[9]]


def test_a_relation_off_its_schema_signature_is_rejected():
    rels = {"R": KRelation.build(
        frozenset({"x", "y"}), [(make_tuple({"x": 1, "y": 2}), 3)], NAT)}
    with pytest.raises(SignatureViolation,
                       match=r"^relation 'R' has signature \['x', 'y'\], "
                             r"not \['a', 'b'\]$"):
        mat_encode({"R": frozenset({"a", "b"})}, rels, NAT)
    name = "R" * 5000
    with pytest.raises(SignatureViolation) as err:
        mat_encode({name: frozenset({"a", "b"})}, {name: rels["R"]}, NAT)
    assert len(str(err.value)) < 100


def test_a_malformed_tuple_is_rejected_before_encoding():
    # built directly, so no signature check has run on its support
    rels = {"R": KRelation(frozenset({"a", "b"}), {(("a", 1),): 3})}
    with pytest.raises(SignatureViolation):
        mat_encode({"R": frozenset({"a", "b"})}, rels, NAT)


def test_empty_active_domain_is_rejected():
    rels = {"R": KRelation(frozenset({"a", "b"}), {})}
    with pytest.raises(EmptyActiveDomain):
        mat_encode({"R": frozenset({"a", "b"})}, rels, NAT)


def test_non_binary_schema_is_rejected():
    with pytest.raises(SchemaNotBinary):
        psi_translate(parse_ra("rel R"), {"R": frozenset({"a", "b", "c"})})


def test_a_long_relation_name_is_echoed_cut_short():
    name = "R" * 5000
    with pytest.raises(SchemaNotBinary) as err:
        psi_translate(parse_ra(f"rel {name}"),
                      {name: frozenset({"a", "b", "c"})})
    assert str(err.value) == f"relation '{'R' * 37}'... has arity 3 > 2"


def test_wide_output_is_rejected():
    with pytest.raises(OutputArityTooLarge):
        psi_translate(parse_ra("join(rel R, rel S)"), BINARY)


def test_a_wide_output_names_its_attributes_cut_short():
    with pytest.raises(OutputArityTooLarge,
                       match=r"^query signature \['a', 'b', 'c'\] has arity "
                             r"3 > 2$"):
        psi_translate(parse_ra("join(rel R, rel S)"), BINARY)
    long = "x" * 5000
    with pytest.raises(OutputArityTooLarge) as err:
        psi_translate(parse_ra(f"join(rel R, rename[{long}->a](rel T))"),
                      BINARY)
    assert str(err.value) == (
        f"query signature ['a', 'b', '{'x' * 37}'...] has arity 3 > 2")


def test_a_long_attribute_name_off_the_schema_is_echoed_cut_short():
    long = "x" * 5000
    rels = {"R": KRelation.build(
        frozenset({long}), [(make_tuple({long: 1}), 3)], NAT)}
    with pytest.raises(SignatureViolation) as err:
        mat_encode({"R": frozenset({"a", long})}, rels, NAT)
    assert str(err.value) == (f"relation 'R' has signature ['{'x' * 37}'...], "
                              f"not ['a', '{'x' * 37}'...]")


def rand_rels(rng, relschema, sr, maxdom=5):
    dom = list(range(1, rng.randint(1, maxdom) + 1))
    rels = {}
    for name, attrs in relschema.items():
        order = sorted(attrs)
        items = []
        for point in itertools.product(dom, repeat=len(order)):
            v = rng.choice(DRAWS[sr.name])
            if v != sr.zero:
                items.append((make_tuple(dict(zip(order, point))), v))
        rels[name] = KRelation.build(frozenset(order), items, sr)
    if not active_domain(rels):
        for name, attrs in relschema.items():
            if attrs:
                rels[name] = KRelation.build(
                    frozenset(attrs),
                    [(make_tuple({a: 1 for a in attrs}), sr.one)], sr)
                break
    return rels


def value_pairs(q, e, rels, sr):
    """(psi value, relational value) at every point of the output."""
    sig = sorted(relalg.signature_of(q, BINARY))
    want = eval_ra(q, rels, sr)
    _, inst = mat_encode(BINARY, rels, sr)
    val = evaluate(e, inst, sr, schema=mat_schema(BINARY))
    dom = active_domain(rels)
    rows = range(len(dom)) if sig else [0]
    cols = range(len(dom)) if len(sig) == 2 else [0]
    for i in rows:
        for j in cols:
            point = make_tuple(dict(zip(sig, (dom[i], dom[j]))))
            yield (i, j), val.get(i, j), want.value(point, sr)


@pytest.mark.parametrize("qtext", QUERIES)
def test_translation_contract(qtext):
    rng = random.Random(qtext)
    q = parse_ra(qtext)
    e = psi_translate(q, BINARY)
    assert classify(e) <= Fragment.SUM
    for trial in range(12):
        sr = (NAT, BOOL, TROPICAL)[trial % 3]
        rels = rand_rels(rng, BINARY, sr)
        for at, got, want in value_pairs(q, e, rels, sr):
            assert got == want, (qtext, sr.name, at)


@pytest.mark.parametrize("qtext", [
    "project[a, c](join(rel R, rel S))", "join(rel T, rel R)", FOUR_ATTRS])
def test_real_values_agree_with_relational_evaluation(qtext):
    # summing over fewer factors reorders float products, so REAL results
    # are compared within a tolerance rather than bit for bit
    rng = random.Random(qtext)
    q = parse_ra(qtext)
    e = psi_translate(q, BINARY)
    for _ in range(6):
        rels = rand_rels(rng, BINARY, REAL, maxdom=7)
        for at, got, want in value_pairs(q, e, rels, REAL):
            assert abs(got - want) <= 1e-9, (qtext, at)


def scalar_factors(e, types):
    """The 1x1 factors of a left-deep product of 1x1 factors."""
    if (isinstance(e, MatMul)
            and type_in_env(e.left, types).is_scalar
            and type_in_env(e.right, types).is_scalar):
        return scalar_factors(e.left, types) + [e.right]
    return [e]


@pytest.mark.parametrize("qtext", QUERIES)
def test_projection_sums_only_the_factors_that_mention_the_iterator(qtext):
    e = psi_translate(parse_ra(qtext), BINARY)
    types = dict(mat_schema(BINARY).vars)
    types.update({t: MatrixType(MAT_SYM, UNIT) for t in bound_names(e)})
    for node in walk(e):
        if isinstance(node, Sum):
            for f in scalar_factors(node.body, types):
                assert node.var in free_vars(f), (qtext, node.var, pretty(f))


def test_four_attribute_query_shape():
    e = psi_translate(parse_ra(FOUR_ATTRS), BINARY)
    assert pretty(e) == (
        "sum _t1 . _t1 * (sum _t4 . (sum _t3 . (sum _t2 . _t1^T * V_R * _t2"
        " * (_t2^T * V_R * _t3)) * (_t3^T * V_R * _t4)) .* _t4^T)")


def test_four_attribute_query_mat_mul_calls(monkeypatch):
    # with the projection's sum around the whole join the same evaluation
    # made 42,084 mat_mul calls
    n = 12
    r = [(make_tuple({"a": i, "b": j}), (i + j) % 3)
         for i in range(1, n + 1) for j in range(1, n + 1)]
    rels = {name: KRelation(attrs, {}) for name, attrs in BINARY.items()}
    rels["R"] = KRelation.build(BINARY["R"], r, NAT)
    _, inst = mat_encode(BINARY, rels, NAT)
    assert inst.dims["alpha"] == n
    calls = []

    def counted(*args):
        calls.append(None)
        return mat_mul(*args)

    mat_mul = evaluator.mat_mul
    monkeypatch.setattr(evaluator, "mat_mul", counted)
    evaluate(psi_translate(parse_ra(FOUR_ATTRS), BINARY), inst, NAT)
    assert len(calls) == 480 < 42084 / 10


def test_translations_print_as_pinned():
    text = "\n".join(pretty(psi_translate(parse_ra(q), BINARY))
                     for q in QUERIES)
    assert hashlib.sha256(text.encode()).hexdigest() == QUERIES_PRETTY_SHA256


def test_translation_makes_no_free_variable_pass(monkeypatch):
    # each factor carries its free iterators, so a projection reads them
    # instead of walking its factors once per dropped attribute
    calls = []
    node_table = ast.node_table

    def counted(root):
        calls.append(root)
        return node_table(root)

    monkeypatch.setattr(ast, "node_table", counted)
    nested = "project[](" * 6 + FOUR_ATTRS + ")" * 6
    for qtext in QUERIES + [nested]:
        psi_translate(parse_ra(qtext), BINARY)
    assert calls == []
