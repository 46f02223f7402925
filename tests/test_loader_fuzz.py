"""The file loaders on arbitrary line-structured text: each gives a result
or raises a `MatforError`, and a circuit that loads can be analysed,
dumped, reloaded and evaluated the same way."""

import hypothesis.strategies as st
from hypothesis import example, given, settings

from matfor.circuits import (INPUT, dump_circuit, eval_circuit, load_circuit,
                             stats)
from matfor.errors import MatforError
from matfor.instance import parse_instance
from matfor.relalg import parse_relations

_NUMBERS = ["0", "1", "2", "3", "-1", "0.5", "1e400", "inf", "-inf", "nan",
            "x", "1_0", "\u0663"]
_SEMIRINGS = ["nat", "real", "bool", "tropical"]
_SYMS = ["alpha", "beta", "1", "x"]


def _line(*words):
    """A line of one word from each list."""
    return st.tuples(*map(st.sampled_from, words)).map(" ".join)


def _files(*lines):
    """A line of the first kind, then up to ten lines, each of one of the
    given kinds, a row of numbers or random tokens."""
    words = sorted({w for line in lines for slot in line for w in slot})
    noise = st.lists(st.one_of(st.sampled_from(words), st.text(max_size=4)),
                     max_size=6).map(" ".join)
    rows = st.lists(st.sampled_from(_NUMBERS), max_size=3).map(" ".join)
    # rows weigh double: a matrix block needs one per matrix row
    line = st.one_of(*[_line(*kind) for kind in lines], rows, rows, noise)
    return st.tuples(_line(*lines[0]), st.lists(line, max_size=10)).map(
        lambda t: "\n".join([t[0], *t[1]]))


INSTANCE_FILES = _files(
    (["semiring"], _SEMIRINGS), (["size"], _SYMS, _NUMBERS),
    (["matrix"], ["V", "W"], _SYMS, _SYMS))
RELATION_FILES = _files(
    (["relation"], ["R", "S"], ["a", "b", ""]), (["semiring"], _SEMIRINGS),
    (_NUMBERS, [":"], _NUMBERS), (_NUMBERS, _NUMBERS, [":"], _NUMBERS))


@st.composite
def _circuit_files(draw):
    """An input gate, then gate lines mostly numbered in order and mostly
    referring back, with output lines and random text mixed in."""
    lines, gates = ["g0 = input V[1,1]"], 1

    def rarely():
        return draw(st.sampled_from([False] * 9 + [True]))

    def index(bound):
        # mostly below `bound`, now and then anything up to 9
        if bound and not rarely():
            return draw(st.integers(0, bound - 1))
        return draw(st.integers(0, 9))
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(
            ["input"] * 3 + ["const0", "const1"] + ["sum", "prod"] * 2
            + ["div"] + ["output"] * 3 + ["text"]))
        if kind == "text":
            lines.append(draw(st.text(max_size=20)))
        elif kind == "output":
            lines.append(f"output[{index(3)},{index(3)}] = g{index(gates)}")
        else:
            if kind == "input":
                name = draw(st.sampled_from("VW"))
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
    return "\n".join(lines)


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
