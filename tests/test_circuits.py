import math
from fractions import Fraction

import pytest

from matfor.circuits import (Circuit, DIV, Gate, INPUT, ONE, PROD, SUM, ZERO,
                             dump_circuit, eval_circuit, load_circuit, prune,
                             stats)
from matfor.errors import (DivisionByZero, FormatError,
                           FunctionUnavailableForSemiring, MissingInput)
from matfor.evaluator import evaluate
from matfor.instance import Instance
from matfor.matrix import KMatrix
from matfor.parser import parse_expr, parse_schema
from matfor.semiring import BOOL, NAT, RATIONAL, REAL, TROPICAL


def dot_circuit():
    gates = [
        Gate(INPUT, ref=("u", 1, 1)), Gate(INPUT, ref=("u", 2, 1)),
        Gate(INPUT, ref=("v", 1, 1)), Gate(INPUT, ref=("v", 2, 1)),
        Gate(PROD, (0, 2)), Gate(PROD, (1, 3)), Gate(SUM, (4, 5)),
    ]
    return Circuit(gates, [((1, 1), 6)])


def test_dot_product_evaluation():
    out = eval_circuit(dot_circuit(), {("u", 1, 1): 1, ("u", 2, 1): 2,
                                       ("v", 1, 1): 3, ("v", 2, 1): 4})
    assert out == {(1, 1): 11}


def test_constant_one_output():
    c = Circuit([Gate(ONE)], [((1, 1), 0)])
    assert eval_circuit(c, {}) == {(1, 1): 1}


def test_division_by_zero():
    c = Circuit([Gate(ONE), Gate(ZERO), Gate(DIV, (0, 1))], [((1, 1), 2)])
    with pytest.raises(DivisionByZero):
        eval_circuit(c, {})


def test_missing_input():
    c = Circuit([Gate(INPUT, ref=("u", 1, 1))], [((1, 1), 0)])
    with pytest.raises(MissingInput):
        eval_circuit(c, {})


def test_exact_arithmetic_with_fractions():
    c = Circuit([Gate(INPUT, ref=("x", 1, 1)), Gate(ONE), Gate(DIV, (1, 0))],
                [((1, 1), 2)])
    out = eval_circuit(c, {("x", 1, 1): Fraction(3)}, RATIONAL)
    assert out[(1, 1)] == Fraction(1, 3)


def test_degree_rules():
    assert stats(Circuit([Gate(INPUT, ref=("x", 1, 1))],
                         [((1, 1), 0)])).degree == 1
    two_inputs = [Gate(INPUT, ref=("x", 1, 1)), Gate(INPUT, ref=("y", 1, 1))]
    prod = Circuit(two_inputs + [Gate(PROD, (0, 1))], [((1, 1), 2)])
    assert stats(prod).degree == 2
    # sum takes the max: x*y*x vs y gives 3
    c = Circuit(two_inputs + [Gate(PROD, (0, 1, 0)), Gate(SUM, (2, 1))],
                [((1, 1), 3)])
    assert stats(c).degree == 3


def test_depth_counts_edges():
    st = stats(dot_circuit())
    assert st.depth == 2
    assert st.n_gates == 7
    assert st.n_wires == 6
    assert st.size == 13


def test_total_degree_sums_over_outputs():
    gates = [Gate(INPUT, ref=("x", 1, 1)), Gate(PROD, (0, 0))]
    c = Circuit(gates, [((1, 1), 1), ((1, 2), 0)])
    st = stats(c)
    assert st.degree == 2
    assert st.total_degree == 3
    assert dict(st.degree_per_output) == {(1, 1): 2, (1, 2): 1}


def test_prune_drops_unreachable_gates():
    gates = [Gate(ONE), Gate(ZERO), Gate(SUM, (0, 0))]
    c = prune(Circuit(gates, [((1, 1), 2)]))
    assert len(c.gates) == 2
    assert {g.kind for g in c.gates} == {ONE, SUM}


def test_dump_load_round_trip():
    c = dot_circuit()
    text = dump_circuit(c)
    again = load_circuit(text)
    assert dump_circuit(again) == text


def test_comments_and_blank_lines_in_a_dump_are_skipped():
    text = dump_circuit(dot_circuit())
    lines = text.splitlines()
    noted = "\n".join(["# a dump", "", lines[0] + "  # first gate",
                        "   ", *lines[1:-1], "# outputs", "",
                        lines[-1] + " # last", "", "# end"])
    assert dump_circuit(load_circuit(noted)) == text


def test_loader_rejects_malformed_circuits():
    with pytest.raises(FormatError):
        load_circuit("g1 = const1")          # out of order
    with pytest.raises(FormatError):
        load_circuit("g0 = sum g1")          # forward reference
    with pytest.raises(FormatError):
        load_circuit("g0 = zebra")
    with pytest.raises(FormatError):
        load_circuit("g0 = const1\ng1 = div g0")  # div arity
    # lines outside the grammar, and positions it reads but does not allow
    for text, line in [("g0 = const1\ng1 = sum x0 q0", 2),
                       ("g0 = const1\ng1 = sum g-0", 2),
                       ("g0 = input V[1,1]\ng1 = input V[0,1]", 2),
                       ("g0 = const1\noutput[1,1] = g0\noutput[1,1] = g0", 3)]:
        with pytest.raises(FormatError, match=f"^line {line}: "):
            load_circuit(text)


def test_validate_checks_topological_order():
    c = Circuit([Gate(SUM, (0,))], [((1, 1), 0)])
    with pytest.raises(FormatError):
        c.validate()


@pytest.mark.parametrize("gates, outputs, message", [
    ([Gate(ONE)], [((0, 1), 0)], "output position [0,1] is not 1-based"),
    ([Gate(INPUT, ref=("V", 0, 1))], [((1, 1), 0)],
     "gate g0: input position [0,1] is not 1-based"),
    ([Gate(INPUT, ref=("V", 1, 0))], [((1, 1), 0)],
     "gate g0: input position [1,0] is not 1-based"),
], ids=["output", "input row", "input column"])
def test_validate_rejects_a_position_below_one(gates, outputs, message):
    c = Circuit(gates, outputs)
    with pytest.raises(FormatError) as exc:
        c.validate()
    assert str(exc.value) == message
    # the loader rejects the dump for the same reason
    with pytest.raises(FormatError, match="not 1-based"):
        load_circuit(dump_circuit(c))


def test_gates_compare_and_hash_by_value():
    a = Gate(SUM, (0, 1))
    b = Gate(SUM, (0, 1))
    assert a == b and hash(a) == hash(b)
    assert a != Gate(PROD, (0, 1)) and a != Gate(SUM, (1, 0))
    assert len({a, b, Gate(INPUT, ref=("x", 1, 1)),
                Gate(INPUT, ref=("x", 1, 1))}) == 2
    assert (Gate(ONE).children, Gate(ONE).ref) == ((), None)
    assert Gate(INPUT, ref=("x", 2, 3)).ref == ("x", 2, 3)


@pytest.mark.parametrize("kind", [SUM, PROD])
def test_loader_rejects_a_gate_without_children(kind):
    with pytest.raises(FormatError, match=f"{kind} needs a child"):
        load_circuit(f"g0 = {kind}\noutput[1,1] = g0")


def test_loader_rejects_an_output_position_below_one():
    with pytest.raises(FormatError, match="not 1-based"):
        load_circuit("g0 = const1\noutput[1,2] = g0\noutput[0,0] = g0")


_PAST = "1" * 5000  # past Python's int-string limit


@pytest.mark.parametrize("text", [
    f"g{_PAST} = const1",
    f"g0 = const1\noutput[{_PAST},1] = g0",
    f"g0 = const1\noutput[1,1] = g{_PAST}",
    f"g0 = input V[1,{_PAST}]",
    f"g0 = const1\ng1 = sum g0 g{_PAST}",
], ids=["gate index", "output position", "output reference",
        "input position", "child reference"])
def test_a_number_past_the_int_string_limit_is_a_format_error(text):
    with pytest.raises(FormatError) as err:
        load_circuit(text)
    assert str(err.value).startswith(f"line {text.count(chr(10)) + 1}: "
                                     f"bad number '{'1' * 37}'...")


_LONG = "1" * 4000  # within the limit


@pytest.mark.parametrize("text, message", [
    ("g1 = const1", "line 1: gate 'g1' out of order (expected g0)"),
    (f"g{_LONG} = const1",
     f"line 1: gate 'g{'1' * 36}'... out of order (expected g0)"),
    ("g0 = const1\noutput[1,1] = g0\noutput[1,1] = g0",
     "line 3: 'output[1,1]' is given twice"),
    (f"g0 = const1\noutput[{_LONG},1] = g0\noutput[{_LONG},1] = g0",
     f"line 3: 'output[{'1' * 30}'... is given twice"),
    ("g0 = sum g1", "gate g0 references 'g1', which does not precede it"),
    (f"g0 = sum g{_LONG}",
     f"gate g0 references 'g{'1' * 36}'..., which does not precede it"),
    ("g0 = const1\noutput[1,1] = g1", "output references missing gate 'g1'"),
    (f"g0 = const1\noutput[1,1] = g{_LONG}",
     f"output references missing gate 'g{'1' * 36}'..."),
], ids=[f"{what} {size}" for what in ["order", "twice", "precede", "missing"]
        for size in ["short", "long"]])
def test_a_gate_reference_is_quoted_cut_short(text, message):
    with pytest.raises(FormatError) as err:
        load_circuit(text)
    assert str(err.value) == message


def test_a_missing_input_is_quoted_cut_short():
    c = load_circuit(f"g0 = input {'V' * 5000}[1,1]\noutput[1,1] = g0")
    with pytest.raises(MissingInput) as err:
        eval_circuit(c, {})
    assert str(err.value) == f"no value for input '{'V' * 37}'..."
    c = load_circuit("g0 = input V[1,2]\noutput[1,1] = g0")
    with pytest.raises(MissingInput, match=r"^no value for input 'V\[1,2\]'$"):
        eval_circuit(c, {})


def test_division_past_the_float_range_is_what_evaluate_gives():
    # V[1,1] = 2 squared eleven times is 2 ** 2048, divided by V[1,1]
    lines = ["g0 = input V[1,1]"]
    lines += [f"g{i} = prod g{i - 1} g{i - 1}" for i in range(1, 12)]
    c = load_circuit("\n".join(lines + ["g12 = div g11 g0",
                                        "output[1,1] = g12"]))
    e = parse_expr("div(for v, X = V . X * X, V)")
    schema = parse_schema("var V : 1 x 1\nvar v : a x 1\nvar X : 1 x 1")
    for sr, want in [(RATIONAL, Fraction(2 ** 2047)), (REAL, math.inf)]:
        two = sr.parse("2")
        inst = Instance({"a": 11}, {"V": KMatrix(1, 1, (two,))})
        assert evaluate(e, inst, sr, schema=schema).get(0, 0) == want
        assert eval_circuit(c, {("V", 1, 1): two}, sr) == {(1, 1): want}
    # 2 ** 2048 plus a half
    c = load_circuit("\n".join(lines + ["g12 = input W[1,1]",
                                        "g13 = sum g11 g12",
                                        "output[1,1] = g13"]))
    assert eval_circuit(c, {("V", 1, 1): Fraction(2),
                            ("W", 1, 1): Fraction(1, 2)}, RATIONAL) == \
        {(1, 1): 2 ** 2048 + Fraction(1, 2)}
    assert eval_circuit(c, {("V", 1, 1): 2.0, ("W", 1, 1): 0.5}) == \
        {(1, 1): math.inf}


@pytest.mark.parametrize("sr", [NAT, BOOL, TROPICAL], ids=str)
def test_a_div_gate_needs_a_semiring_with_div(sr):
    c = Circuit([Gate(ONE), Gate(DIV, (0, 0))], [((1, 1), 1)])
    with pytest.raises(FunctionUnavailableForSemiring,
                       match=f"^div at gate g1 is not available over the "
                             f"{sr.name} semiring$"):
        eval_circuit(c, {}, sr)
