from fractions import Fraction

import pytest

from matfor.circuits import (Circuit, DIV, Gate, INPUT, ONE, PROD, SUM, ZERO,
                             dump_circuit, eval_circuit, load_circuit, prune,
                             stats)
from matfor.errors import DivisionByZero, EvalError, FormatError, MissingInput


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
    out = eval_circuit(c, {("x", 1, 1): Fraction(3)})
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


def test_division_beyond_the_float_range_is_an_eval_error():
    # V[1,1] = 2 squared eleven times is 2 ** 2048
    lines = ["g0 = input V[1,1]"]
    lines += [f"g{i} = prod g{i - 1} g{i - 1}" for i in range(1, 12)]
    c = load_circuit("\n".join(lines + ["g12 = div g11 g0",
                                        "output[1,1] = g12"]))
    with pytest.raises(EvalError, match="gate g12 is out of float range"):
        eval_circuit(c, {("V", 1, 1): 2})
    # an int that large cannot meet a float either
    c = load_circuit("\n".join(lines + ["g12 = input W[1,1]",
                                        "g13 = sum g11 g12",
                                        "output[1,1] = g13"]))
    with pytest.raises(EvalError, match="gate g13 is out of float range"):
        eval_circuit(c, {("V", 1, 1): 2, ("W", 1, 1): 0.5})
