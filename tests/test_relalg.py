import itertools
import math
import random
import sys
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from matfor.errors import (FormatError, ParseError, SignatureViolation,
                           UnknownRelation)
from matfor.relalg import (Join, KRelation, Project, Rel, Rename, Select,
                           Union, eval_ra, format_ra, make_tuple, parse_ra,
                           parse_relations, signature_of)
from matfor.semiring import BOOL, NAT, RATIONAL, REAL, TROPICAL


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


LONG = "x" * 5000


@pytest.mark.parametrize("q, message", [
    (Union(Rel("r"), Project(frozenset(), Rel("r"))),
     "union operands must share a signature: ['a'] vs []"),
    (Project(frozenset({"zzz", "y"}), Rel("r")),
     "attributes ['y', 'zzz'] not in operand signature"),
    (Select(frozenset({"zzz"}), Rel("r")),
     "attributes ['zzz'] not in operand signature"),
])
def test_signature_errors_quote_short_names_whole(q, message):
    with pytest.raises(SignatureViolation) as err:
        eval_ra(q, {"r": rel({"a"}, [((1,), 1)])}, NAT)
    assert str(err.value) == message


@pytest.mark.parametrize("q", [
    Union(Rel("r"), Rename(((LONG, "a"),), Rel("r"))),
    Project(frozenset({LONG}), Rel("r")),
    Select(frozenset({LONG, "y" + LONG}), Rel("r")),
], ids=["union", "project", "select"])
def test_signature_errors_cut_long_names_short(q):
    with pytest.raises(SignatureViolation) as err:
        eval_ra(q, {"r": rel({"a"}, [((1,), 1)])}, NAT)
    assert len(str(err.value)) < 200 and "x" * 37 + "'..." in str(err.value)


def test_signature_errors_count_the_names_past_the_first_eight():
    eight = ", ".join(f"a{i}" for i in range(8))
    with pytest.raises(SignatureViolation) as err:
        signature_of(parse_ra(f"project[{eight}](rel R)"),
                     {"R": frozenset({"x"})})
    assert str(err.value) == (
        "attributes ['a0', 'a1', 'a2', 'a3', 'a4', 'a5', 'a6', 'a7'] "
        "not in operand signature")
    many = ", ".join(f"a{i}" for i in range(5000))
    with pytest.raises(SignatureViolation) as err:
        signature_of(parse_ra(f"project[{many}](rel R)"),
                     {"R": frozenset({"x"})})
    assert str(err.value) == (
        "attributes ['a0', 'a1', 'a10', 'a100', 'a1000', 'a1001', 'a1002', "
        "'a1003', ... 4992 more] not in operand signature")
    wide = ", ".join(f"{'y' * 5000}{i}" for i in range(100))
    with pytest.raises(SignatureViolation) as err:
        signature_of(parse_ra(f"select[{wide}](rel R)"),
                     {"R": frozenset({"x"})})
    assert len(str(err.value)) < 450


def test_a_tuple_off_its_signature_is_echoed_cut_short():
    with pytest.raises(SignatureViolation) as err:
        KRelation.build(frozenset({"a" * 5000}),
                        [((("b" * 5000, 1),), 1)], NAT)
    assert str(err.value) == (
        f"tuple (('{'b' * 34}... does not match signature ['{'a' * 37}'...]")
    with pytest.raises(SignatureViolation) as err:
        KRelation.build(frozenset({"a"}), [((("b", 1),), 1)], NAT)
    assert str(err.value) == (
        "tuple (('b', 1),) does not match signature ['a']")


def test_active_domain_never_grows():
    r = rel({"a", "b"}, [((1, 2), 2)])
    q = Join(Rename((("b", "a"), ("c", "b")), Rel("r")), Rel("r"))
    out = eval_ra(q, {"r": r}, NAT)
    assert out.adom() <= r.adom()


def tuple_restrict(t, attrs):
    """The (attr, value) pairs of tuple `t` whose attribute is in `attrs`."""
    return tuple((a, v) for a, v in t if a in attrs)


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


# expression keywords and relational operator names are names here too
_NAMES = st.sampled_from(["R", "a", "b_2", "sum", "inf", "for", "ones",
                          "Sless", "rel", "union", "rename"])


def _queries():
    attrs = st.frozensets(_NAMES, max_size=3)
    pairs = st.lists(st.tuples(_NAMES, _NAMES), min_size=1, max_size=3)
    return st.recursive(
        st.builds(Rel, _NAMES),
        lambda q: st.one_of(st.builds(Union, q, q), st.builds(Join, q, q),
                            st.builds(Project, attrs, q),
                            st.builds(Select, attrs, q),
                            st.builds(Rename, pairs, q)),
        max_leaves=8)


@given(_queries())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_ra_parses_what_it_formats(q):
    assert parse_ra(format_ra(q)) == q


def test_ra_parse_errors():
    for bad in ("", "rel", "union(rel R)", "project[a(rel R)", "frob(rel R)"):
        with pytest.raises(Exception):
            parse_ra(bad)


def test_deep_ra_nesting_parses():
    depth = sys.getrecursionlimit()
    text = "union(" * depth + "rel R" + ", rel R)" * depth
    assert format_ra(parse_ra(text)) == text


@pytest.mark.parametrize("bad, offset", [
    ("rel R $", 6),             # a character neither language lexes
    ("rename[](rel R)", 7),     # a rename renames at least one attribute
    ("project[a,](rel R)", 10),
    ("sum(rel R)", 0),          # a keyword names no relational operator
    ("rel R rel S", 6),
])
def test_ra_parse_errors_give_their_offset(bad, offset):
    with pytest.raises(ParseError) as err:
        parse_ra(bad)
    assert str(err.value).startswith(f"at offset {offset}: ")
    assert err.value.span is None


_OPS = "join, project, rel, rename, select, union"


@pytest.mark.parametrize("bad, message", [
    # `name`
    ("rel (", "at offset 4: unexpected '(' (expected: identifier)"),
    # `query`, before a token and at the end of the input
    ("foo R", f"at offset 0: unexpected 'foo' (expected: {_OPS})"),
    ("", f"at offset 0: unexpected '' (expected: {_OPS})"),
    # the expression parser's `expect` and `whole`
    ("union(rel R", "at offset 11: unexpected '' (expected: ,)"),
    ("rel R x", "at offset 6: trailing input 'x' (expected: end)"),
])
def test_ra_syntax_error_messages_quote_the_token(bad, message):
    with pytest.raises(ParseError) as err:
        parse_ra(bad)
    assert str(err.value) == message


@pytest.mark.parametrize("bad", ["R" * 5000, "rel " + "1" * 5000],
                         ids=["query", "name"])
def test_a_long_ra_token_is_echoed_cut_short(bad):
    with pytest.raises(ParseError) as err:
        parse_ra(bad)
    assert f"'{bad[-1] * 37}'..." in str(err.value)
    assert len(str(err.value)) < 200


@pytest.mark.parametrize("value, message", [
    ("x", "line 2: bad tuple value 'x'"),
    ("1" * 5000, f"line 2: bad tuple value '{'1' * 37}'..."),
], ids=["letter", "past the int-string limit"])
def test_a_tuple_value_that_is_no_integer_is_quoted(value, message):
    with pytest.raises(FormatError) as err:
        parse_relations(f"relation R a\n{value} : 1")
    assert str(err.value) == message


def test_a_long_unknown_relation_is_echoed_cut_short():
    with pytest.raises(UnknownRelation) as err:
        eval_ra(parse_ra("rel " + "S" * 5000), {}, NAT)
    assert str(err.value) == f"unknown relation '{'S' * 37}'..."


def test_a_relation_file_is_read():
    text = ("semiring nat\n"
            "relation R a b\n"
            "1 2 : 3\n"
            "2 2 : 1\n"
            "relation T a\n"
            "4 : 2\n")
    sr, rels = parse_relations(text)
    assert sr is NAT
    assert rels["R"].support[make_tuple({"a": 1, "b": 2})] == 3
    assert rels["T"].support == {make_tuple({"a": 4}): 2}


def test_comments_and_blank_lines_in_a_relation_file_are_skipped():
    bare = ("semiring nat\nrelation R a b\n1 2 : 3\n2 2 : 1\n"
            "relation T a\n4 : 2\n")
    noted = ("# relations\n\nsemiring nat # carrier\n"
             "relation R a b   # binary\n1 2 : 3\n  \n# a gap\n"
             "2 2 : 1 # last of R\n\nrelation T a\n4 : 2\n\n# end\n")
    assert parse_relations(noted) == parse_relations(bare)


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
    with pytest.raises(FormatError,
                       match="^line 2: unknown semiring 'naturals'"):
        parse_relations("# annotations\nsemiring naturals\n")


@pytest.mark.parametrize("text, message", [
    ("relation\n", "line 1: expected: relation NAME attr..."),
    ("relation R a b a\n", "line 1: duplicate attribute names"),
])
def test_a_malformed_relation_header_names_its_line(text, message):
    with pytest.raises(FormatError) as err:
        parse_relations(text)
    assert str(err.value) == message


def test_a_long_relation_name_is_echoed_cut_short():
    name = "R" * 5000
    with pytest.raises(FormatError, match="^line 2: relation 'RRR") as err:
        parse_relations(f"relation {name} a\nrelation {name} b\n")
    assert len(str(err.value)) < 100


def test_semiring_line_after_a_relation_is_rejected():
    # the annotations above it were parsed in the default real carrier
    with pytest.raises(FormatError, match="must precede relation blocks"):
        parse_relations("relation R a\n1 : 0\n1 : 0\nsemiring bool\n")


# ---------------------------------------------------------------------------
# position plans against the per-tuple reference


def _reference(q, inst, sr):
    """(signature, support) of `q`, each tuple rebuilt through a `dict` and
    a `sorted`, as the operators were written before position plans."""
    def merged(items):
        out = {}
        for t, v in items:
            out[t] = sr.plus(out[t], v) if t in out else v
        return {t: v for t, v in out.items() if not v == sr.zero}

    if isinstance(q, Rel):
        return inst[q.name].signature, dict(inst[q.name].support)
    if isinstance(q, Union):
        sig, left = _reference(q.left, inst, sr)
        _, right = _reference(q.right, inst, sr)
        return sig, merged(list(left.items()) + list(right.items()))
    if isinstance(q, Join):
        sig1, left = _reference(q.left, inst, sr)
        sig2, right = _reference(q.right, inst, sr)
        shared = sig1 & sig2
        items = []
        for t1, v1 in left.items():
            for t2, v2 in right.items():
                if tuple_restrict(t1, shared) == tuple_restrict(t2, shared):
                    items.append((make_tuple({**dict(t1), **dict(t2)}),
                                  sr.times(v1, v2)))
        return sig1 | sig2, merged(items)
    sig, rows = _reference(q.arg, inst, sr)
    if isinstance(q, Project):
        return q.attrs, merged((tuple_restrict(t, q.attrs), v)
                               for t, v in rows.items())
    if isinstance(q, Select):
        return sig, {t: v for t, v in rows.items()
                     if len({x for a, x in t if a in q.attrs}) <= 1}
    mapping = dict(q.mapping)
    return frozenset(mapping), {
        make_tuple({new: dict(t)[old] for new, old in mapping.items()}): v
        for t, v in rows.items()}


_SCHEMA = {"R": ("a", "b"), "S": ("b", "c"), "T": ("a",), "U": ()}
_POOL = ("a", "b", "c", "d")
# values whose sums and products are exact in every carrier, so the
# reference's order of summation cannot differ from the plans' in the result
_VALUES = {
    NAT: st.integers(0, 3),
    BOOL: st.integers(0, 1),
    TROPICAL: st.sampled_from([0.0, 1.0, 2.0, 5.0, math.inf]),
    REAL: st.sampled_from([0.0, 0.5, -0.5, 1.0, -2.0, 3.0]),
    RATIONAL: st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(-1, 3),
                               Fraction(2), Fraction(-5, 2)]),
}


def _instance(draw, sr):
    inst = {}
    for name, attrs in _SCHEMA.items():
        points = list(itertools.product(range(1, 4), repeat=len(attrs)))
        vals = draw(st.lists(_VALUES[sr], min_size=len(points),
                             max_size=len(points)))
        inst[name] = rel(attrs, list(zip(points, vals)), sr)
    return inst


@st.composite
def _typed_query(draw, depth=3):
    """A query over `_SCHEMA` that `signature_of` accepts, and its
    signature."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        name = draw(st.sampled_from(sorted(_SCHEMA)))
        return Rel(name), frozenset(_SCHEMA[name])
    q, sig = draw(_typed_query(depth - 1))
    op = draw(st.sampled_from([Union, Join, Project, Select, Rename]))
    if op is Union or op is Join:
        other, other_sig = draw(_typed_query(depth - 1))
        if op is Join:
            return Join(q, other), sig | other_sig
        return Union(q, other if other_sig == sig else q), sig
    if op is Rename:
        new = draw(st.permutations(_POOL))[:len(sig)]
        return Rename(tuple(zip(new, sorted(sig))), q), frozenset(new)
    attrs = frozenset(draw(st.sets(st.sampled_from(sorted(sig)))) if sig
                      else ())
    return op(attrs, q), attrs if op is Project else sig


@pytest.mark.parametrize("sr", list(_VALUES), ids=lambda sr: sr.name)
@given(data=st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_position_plans_agree_with_the_per_tuple_reference(sr, data):
    inst = _instance(data.draw, sr)
    q, sig = data.draw(_typed_query())
    out = eval_ra(q, inst, sr)
    assert out.signature == sig
    assert (out.signature, out.support) == _reference(q, inst, sr)


_EDGES = {
    "project to ()": Project(frozenset(), Rel("R")),
    "swapping rename": Rename((("a", "b"), ("b", "a")), Rel("R")),
    "swapped union": Union(Rel("R"), Rename((("a", "b"), ("b", "a")),
                                            Rel("R"))),
    "disjoint join": Join(Rel("T"), Rename((("c", "a"),), Rel("T"))),
    "equal-signature join": Join(Rel("R"), Rename((("a", "b"), ("b", "a")),
                                                  Rel("R"))),
    "self-join": Join(Rel("R"), Rel("R")),
    "join with the nullary": Join(Rel("U"), Rel("S")),
    "select over one": Select(frozenset({"b"}), Rel("S")),
    "select over all": Select(frozenset({"a", "b"}), Rel("R")),
    "select over none": Select(frozenset(), Rel("R")),
}


@pytest.mark.parametrize("sr", list(_VALUES), ids=lambda sr: sr.name)
@pytest.mark.parametrize("q", _EDGES.values(), ids=_EDGES)
def test_position_plan_edge_cases(sr, q):
    ones = [sr.one, sr.plus(sr.one, sr.one)]
    inst = {name: rel(attrs, [(p, ones[sum(p) % 2]) for p in
                              itertools.product((1, 2), repeat=len(attrs))],
                      sr)
            for name, attrs in _SCHEMA.items()}
    out = eval_ra(q, inst, sr)
    assert out.support
    assert (out.signature, out.support) == _reference(q, inst, sr)


def test_a_union_that_cancels_to_zero_is_dropped_over_real():
    r1 = rel({"a"}, [((1,), 0.5), ((2,), 1.0)], REAL)
    r2 = rel({"a"}, [((1,), -0.5), ((2,), 1.0)], REAL)
    out = eval_ra(Union(Rel("r1"), Rel("r2")), {"r1": r1, "r2": r2}, REAL)
    assert out.support == {make_tuple({"a": 2}): 2.0}


@pytest.mark.parametrize("q", ["rel R", "project[b](rel R)",
                               "join(rel R, rel R)", "select[a, b](rel R)",
                               "rename[x->a, y->b](rel R)"])
def test_a_malformed_leaf_is_a_signature_violation(q):
    # built directly, so no signature check has run on its support
    bad = KRelation(frozenset({"a", "b"}), {(("a", 1),): 1})
    with pytest.raises(SignatureViolation,
                       match=r"^tuple \(\('a', 1\),\) does not match "
                             r"signature \['a', 'b'\]$"):
        eval_ra(parse_ra(q), {"R": bad}, NAT)


def test_build_checks_the_signature_of_outside_tuples():
    with pytest.raises(SignatureViolation):
        KRelation.build({"a", "b"}, [((("b", 1), ("a", 2)), 1)], NAT)
    with pytest.raises(SignatureViolation):
        KRelation.build({"a"}, [((("a", 1), ("a", 2)), 1)], NAT)
