import itertools
import random
import sys

import pytest

from matfor.errors import (FormatError, ParseError, SignatureViolation,
                           UnknownRelation)
from matfor.relalg import (Join, KRelation, Project, Rel, Rename, Select,
                           Union, eval_ra, format_ra, format_relations,
                           make_tuple, parse_ra, parse_relations,
                           tuple_restrict)
from matfor.semiring import BOOL, NAT


def rel(sig, rows, sr=NAT):
    items = [(make_tuple(dict(zip(sorted(sig), point))), v)
             for point, v in rows]
    return KRelation.build(frozenset(sig), items, sr)


def test_union_adds_annotations():
    r1 = rel({"a"}, [((1,), 2)])
    r2 = rel({"a"}, [((1,), 3)])
    out = eval_ra(Union(Rel("r1"), Rel("r2")), {"r1": r1, "r2": r2}, NAT)
    assert out.support == {make_tuple({"a": 1}): 5}


def test_projection_to_empty_signature_sums_everything():
    r = rel({"a", "b"}, [((1, 1), 2), ((1, 2), 3)])
    out = eval_ra(Project(frozenset(), Rel("r")), {"r": r}, NAT)
    assert out.support == {(): 5}


def test_selection_keeps_agreeing_tuples():
    r = rel({"a", "b"}, [((1, 1), 4), ((1, 2), 7)])
    out = eval_ra(Select(frozenset({"a", "b"}), Rel("r")), {"r": r}, NAT)
    assert out.support == {make_tuple({"a": 1, "b": 1}): 4}


def test_rename_is_a_relabelling():
    r = rel({"a"}, [((3,), 2)])
    out = eval_ra(Rename((("z", "a"),), Rel("r")), {"r": r}, NAT)
    assert out.signature == frozenset({"z"})
    assert out.support == {make_tuple({"z": 3}): 2}


def test_join_multiplies_on_shared_attributes():
    r = rel({"a", "b"}, [((1, 2), 2), ((1, 3), 5)])
    s = rel({"b", "c"}, [((2, 9), 7)])
    out = eval_ra(Join(Rel("r"), Rel("s")), {"r": r, "s": s}, NAT)
    assert out.support == {make_tuple({"a": 1, "b": 2, "c": 9}): 14}


def test_zero_results_are_dropped_from_support():
    r1 = rel({"a"}, [((1,), 1)], BOOL)
    r2 = rel({"a"}, [((2,), 1)], BOOL)
    out = eval_ra(Join(Rel("r1"), Rel("r2")), {"r1": r1, "r2": r2}, BOOL)
    assert out.support == {}
    assert all(v != 0 for v in out.support.values())


def test_signature_rules_are_enforced():
    r = rel({"a"}, [((1,), 1)])
    with pytest.raises(SignatureViolation):
        eval_ra(Union(Rel("r"), Project(frozenset(), Rel("r"))), {"r": r}, NAT)
    with pytest.raises(SignatureViolation):
        eval_ra(Project(frozenset({"zzz"}), Rel("r")), {"r": r}, NAT)
    with pytest.raises(SignatureViolation):
        eval_ra(Rename((("b", "zzz"),), Rel("r")), {"r": r}, NAT)
    with pytest.raises(UnknownRelation):
        eval_ra(Rel("missing"), {"r": r}, NAT)


def test_active_domain_never_grows():
    r = rel({"a", "b"}, [((1, 2), 2)])
    q = Join(Rename((("b", "a"), ("c", "b")), Rel("r")), Rel("r"))
    out = eval_ra(q, {"r": r}, NAT)
    assert out.adom() <= r.adom()


def _set_eval(q, inst):
    """Naive set-semantics evaluator used as the boolean cross-check."""
    if isinstance(q, Rel):
        return set(inst[q.name].support)
    if isinstance(q, Union):
        return _set_eval(q.left, inst) | _set_eval(q.right, inst)
    if isinstance(q, Project):
        return {tuple_restrict(t, q.attrs) for t in _set_eval(q.arg, inst)}
    if isinstance(q, Select):
        return {t for t in _set_eval(q.arg, inst)
                if len({v for a, v in t if a in q.attrs}) <= 1}
    if isinstance(q, Rename):
        mapping = dict(q.mapping)
        return {make_tuple({new: dict(t)[old]
                            for new, old in mapping.items()})
                for t in _set_eval(q.arg, inst)}
    shared_l = _set_eval(q.left, inst)
    shared_r = _set_eval(q.right, inst)
    out = set()
    for t1 in shared_l:
        for t2 in shared_r:
            d1, d2 = dict(t1), dict(t2)
            if all(d1[k] == d2[k] for k in d1.keys() & d2.keys()):
                merged = dict(d1)
                merged.update(d2)
                out.add(make_tuple(merged))
    return out


@pytest.mark.parametrize("trial", range(15))
def test_boolean_semantics_coincides_with_set_semantics(trial):
    rng = random.Random(77 + trial)
    dom = range(1, rng.randint(2, 4) + 1)
    def rand_rel(attrs):
        items = []
        for point in itertools.product(dom, repeat=len(attrs)):
            if rng.random() < 0.4:
                items.append(
                    (make_tuple(dict(zip(sorted(attrs), point))), 1))
        return KRelation.build(frozenset(attrs), items, BOOL)
    inst = {"r": rand_rel({"a", "b"}), "s": rand_rel({"b", "c"}),
            "t": rand_rel({"a"})}
    queries = [
        Join(Rel("r"), Rel("s")),
        Union(Rel("r"), Rename((("a", "b"), ("b", "c")), Rel("s"))),
        Project(frozenset({"a"}), Join(Rel("r"), Rel("t"))),
        Select(frozenset({"a", "b"}), Rel("r")),
    ]
    for q in queries:
        out = eval_ra(q, inst, BOOL)
        assert set(out.support) == _set_eval(q, inst)


# ---------------------------------------------------------------------------
# text formats


@pytest.mark.parametrize("text", [
    "rel R",
    "union(rel R, rel R)",
    "project[a, b](join(rel R, rel S))",
    "select[a](rel R)",
    "rename[x->a, y->b](rel R)",
    "project[](rel R)",
])
def test_ra_text_round_trip(text):
    q = parse_ra(text)
    assert parse_ra(format_ra(q)) == q


def test_ra_parse_errors():
    for bad in ("", "rel", "union(rel R)", "project[a(rel R)", "frob(rel R)"):
        with pytest.raises(Exception):
            parse_ra(bad)


def test_deep_ra_nesting_is_a_parse_error():
    depth = sys.getrecursionlimit()
    text = "union(" * depth + "rel R" + ", rel R)" * depth
    with pytest.raises(ParseError) as err:
        parse_ra(text)
    assert "relational expression nested too deeply" in str(err.value)
    assert str(err.value).startswith("at offset ")


def test_relation_file_round_trip():
    text = ("semiring nat\n"
            "relation R a b\n"
            "1 2 : 3\n"
            "2 2 : 1\n"
            "relation T a\n"
            "4 : 2\n")
    sr, rels = parse_relations(text)
    assert sr is NAT
    assert rels["R"].support[make_tuple({"a": 1, "b": 2})] == 3
    sr2, rels2 = parse_relations(format_relations(rels, sr))
    assert rels2 == rels


def test_relation_file_errors():
    with pytest.raises(FormatError):
        parse_relations("relation R a\nx : 1\n")
    with pytest.raises(FormatError):
        parse_relations("1 2 : 3\n")
    with pytest.raises(FormatError):
        parse_relations("relation R a\n1 2 : 3\n")
    with pytest.raises(FormatError):
        parse_relations("semiring nat\nrelation R a\n1 : -4\n")
    with pytest.raises(FormatError):
        parse_relations("relation R a\n0 : 1\n")


def test_semiring_line_after_a_relation_is_rejected():
    # the annotations above it were parsed in the default real carrier
    with pytest.raises(FormatError, match="must precede relation blocks"):
        parse_relations("relation R a\n1 : 0\n1 : 0\nsemiring bool\n")
