"""The file loaders on arbitrary line-structured text, blank lines and
comments mixed in, numerals past Python's int-string limit in every integer
slot and names of 5,000 characters: each gives a result or raises a
`MatforError`, and a circuit that loads can be analysed, dumped, reloaded
and evaluated the same way."""

import hypothesis.strategies as st
from hypothesis import example, given, settings

from matfor.circuits import (INPUT, dump_circuit, eval_circuit, load_circuit,
                             stats)
from matfor.errors import MatforError
from matfor.instance import parse_instance
from matfor.parser import format_schema, parse_schema
from matfor.relalg import parse_relations

# numerals past Python's int-string limit of 4,300 digits, and a long name
HUGE = ["1" * 4301, "9" * 5000]
LONG_NAME = "n" * 5000
_NUMBERS = ["0", "1", "2", "3", "-1", "0.5", "1e400", "inf", "-inf", "nan",
            "x", "1_0", "\u0663", *HUGE]
_SEMIRINGS = ["nat", "real", "bool", "tropical", "rational"]
_SYMS = ["alpha", "beta", "1", "x", LONG_NAME]
# lines that hold nothing once their comment is cut off, and trailers
_GAPS = st.sampled_from(["", "   ", "\t", "# note", "  # a # b", "#"])
_TRAILERS = st.sampled_from(["", "", "", " # note", "#", "  #1 2 :"])


def _noted(lines):
    """A line drawn from `lines`, now and then with a trailing comment."""
    return st.tuples(lines, _TRAILERS).map("".join)


def _line(*words):
    """A line of one word from each list."""
    return st.tuples(*map(st.sampled_from, words)).map(" ".join)


def _files(*lines):
    """A line of the first kind, then up to ten lines, each of one of the
    given kinds, a row of numbers, random tokens or a gap, each line now
    and then with a trailing comment."""
    words = sorted({w for line in lines for slot in line for w in slot})
    noise = st.lists(st.one_of(st.sampled_from(words), st.text(max_size=4)),
                     max_size=6).map(" ".join)
    rows = st.lists(st.sampled_from(_NUMBERS), max_size=3).map(" ".join)
    # rows weigh double: a matrix block needs one per matrix row
    line = _noted(st.one_of(*[_line(*kind) for kind in lines],
                            rows, rows, noise, _GAPS))
    return st.tuples(_noted(_line(*lines[0])),
                     st.lists(line, max_size=10)).map(
        lambda t: "\n".join([t[0], *t[1]]))


INSTANCE_FILES = _files(
    (["semiring"], _SEMIRINGS), (["size"], _SYMS, _NUMBERS),
    (["matrix"], ["V", "W", LONG_NAME], _SYMS, _SYMS))
RELATION_FILES = _files(
    (["relation"], ["R", "S", LONG_NAME], ["a", "b", "", LONG_NAME]),
    (["semiring"], _SEMIRINGS),
    (_NUMBERS, [":"], _NUMBERS), (_NUMBERS, _NUMBERS, [":"], _NUMBERS))
SCHEMA_FILES = _files(
    (["var"], ["V", "u"], [":"], _SYMS, ["x"], _SYMS),
    (["var"], ["V", "u", "1"], [":", ""], _SYMS, ["x", ""], _SYMS))


@st.composite
def _circuit_files(draw):
    """An input gate, then gate lines mostly numbered in order and mostly
    referring back, with output lines, random text and gaps mixed in, each
    line now and then with a trailing comment."""
    lines, gates = ["g0 = input V[1,1]"], 1

    def rarely():
        return draw(st.sampled_from([False] * 9 + [True]))

    def index(bound):
        # mostly below `bound`, now and then anything up to 9 or a numeral
        # past the int-string limit
        if bound and not rarely():
            return draw(st.integers(0, bound - 1))
        return draw(st.sampled_from([*map(str, range(10)), *HUGE]))
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(
            ["input"] * 3 + ["const0", "const1"] + ["sum", "prod"] * 2
            + ["div"] + ["output"] * 3 + ["text", "gap"]))
        if kind == "gap":
            lines.append(draw(_GAPS))
        elif kind == "text":
            lines.append(draw(st.text(max_size=20)))
        elif kind == "output":
            lines.append(f"output[{index(3)},{index(3)}] = g{index(gates)}")
        else:
            if kind == "input":
                name = draw(st.sampled_from(["V", "W", LONG_NAME]))
                kind = f"input {name}[{index(3)},{index(3)}]"
            elif kind not in ("const0", "const1"):
                # div mostly with its two children
                n = draw(st.integers(0, 3))
                if kind == "div" and not rarely():
                    n = 2
                kind = " ".join([kind] + [f"g{index(gates)}"
                                          for _ in range(n)])
            number = index(0) if rarely() else gates
            lines.append(f"g{number} = {kind}")
            gates += 1
    return "\n".join(line + draw(_TRAILERS) for line in lines)


@given(text=INSTANCE_FILES)
@settings(max_examples=300, deadline=None)
def test_instance_files_load_or_raise_a_matfor_error(text):
    try:
        parse_instance(text)
    except MatforError:
        pass


@given(text=RELATION_FILES)
@example(text="relation R a\n1 : 0\n1 : 0\nsemiring bool")
@settings(max_examples=300, deadline=None)
def test_relation_files_load_or_raise_a_matfor_error(text):
    try:
        parse_relations(text)
    except MatforError:
        pass


@given(text=SCHEMA_FILES)
@settings(max_examples=300, deadline=None)
def test_schema_files_load_or_raise_a_matfor_error(text):
    try:
        schema = parse_schema(text)
    except MatforError:
        return
    assert parse_schema(format_schema(schema)) == schema


@given(text=_circuit_files())
@example(text="g0 = sum\noutput[1,1] = g0")
@settings(max_examples=300, deadline=None)
def test_circuit_files_load_or_raise_a_matfor_error(text):
    try:
        c = load_circuit(text)
    except MatforError:
        return
    stats(c)
    dump = dump_circuit(c)
    assert dump_circuit(load_circuit(dump)) == dump
    try:
        eval_circuit(c, {g.ref: 2 for g in c.gates if g.kind == INPUT})
    except MatforError:
        pass
