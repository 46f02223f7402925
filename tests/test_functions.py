"""`div` and `gtz` over every semiring, and the names the library applies."""

from fractions import Fraction

import pytest

from matfor import stdlib
from matfor.ast import Apply, walk
from matfor.circuit_compile import compile_expr
from matfor.circuits import eval_circuit
from matfor.errors import (FunctionUnavailableForSemiring, UnknownFunction,
                           UnsupportedFunction, _echo)
from matfor.evaluator import evaluate
from matfor.functions import pointwise, resolve
from matfor.instance import Instance
from matfor.matrix import from_rows
from matfor.parser import parse_expr, parse_schema
from matfor.semiring import BOOL, NAT, RATIONAL, REAL, TROPICAL

SCHEMA = parse_schema("var a : 1 x beta\nvar b : 1 x beta")
#: inputs as text that every carrier reads, bool included
A, B = ["1", "0"], ["1", "1"]
#: stands for the gate-building semiring `compile_expr` evaluates over
CIRCUIT = "circuit"


def _run(e, sr):
    if sr == CIRCUIT:
        c = compile_expr(e, SCHEMA, {"beta": 2})
        out = eval_circuit(c, {(name, 1, j + 1): Fraction(v)
                               for name, row in (("a", A), ("b", B))
                               for j, v in enumerate(row)}, RATIONAL)
        return [out[(1, 1)], out[(1, 2)]]
    inst = Instance({"beta": 2},
                    {"a": from_rows([list(map(sr.parse, A))]),
                     "b": from_rows([list(map(sr.parse, B))])})
    return evaluate(e, inst, sr, schema=SCHEMA).tolists()[0]


@pytest.mark.parametrize("src, sr, expected", [
    ("div(a, b)", REAL, [1.0, 0.0]),
    ("gtz(a)", REAL, [1.0, 0.0]),
    ("div(a, b)", NAT, FunctionUnavailableForSemiring),
    ("gtz(a)", NAT, FunctionUnavailableForSemiring),
    ("div(a, b)", BOOL, FunctionUnavailableForSemiring),
    ("gtz(a)", BOOL, FunctionUnavailableForSemiring),
    ("div(a, b)", TROPICAL, FunctionUnavailableForSemiring),
    ("gtz(a)", TROPICAL, FunctionUnavailableForSemiring),
    ("div(a, b)", CIRCUIT, [Fraction(1), Fraction(0)]),
    ("gtz(a)", CIRCUIT, UnsupportedFunction),
], ids=lambda x: getattr(x, "name", None))
def test_div_and_gtz_per_semiring(src, sr, expected):
    e = parse_expr(src)
    if isinstance(expected, list):
        got = _run(e, sr)
        assert got == expected
        assert list(map(type, got)) == list(map(type, expected))
    else:
        name = getattr(sr, "name", sr)
        with pytest.raises(expected,
                           match=f"not available over the {name} semiring"):
            _run(e, sr)


@pytest.mark.parametrize("name", sorted(stdlib.all_named()))
def test_library_functions_resolve_over_real(name):
    item = stdlib.all_named()[name]
    for node in walk(item.expr):
        if isinstance(node, Apply):
            arity, _ = resolve(node.func, REAL)
            assert arity == len(node.args)


def test_a_pointwise_name_past_18_digits_is_an_unknown_function():
    assert pointwise("hsum" + "9" * 18) == ("hsum", 10 ** 18 - 1)
    for digits in (19, 5000):  # the second past the int-string limit
        name = "hprod" + "1" * digits
        assert pointwise(name) is None
        with pytest.raises(UnknownFunction) as err:
            resolve(name, NAT)
        assert str(err.value) == f"unknown function {_echo(name)}"
        assert len(str(err.value)) < 60
