"""Compilation of expressions to arithmetic circuits for fixed dimensions.

Given a dimension assignment for every size symbol, an expression unrolls
into one circuit.  The compiler is the evaluator run over a gate-building
semiring: its carrier is a compile-time rational constant or a reference
to a built gate (`_Ref`), and its `plus`/`times` fold constants exactly and
intern every gate they build.  A constant is an int; only a non-integral
literal or a division of two constants brings in a `Fraction`, so the
canonical vectors' 0/1 entries and their sums stay ints.  The operations
tell a gate from a constant by ``x.__class__ is _Ref``, not by an
``isinstance`` test or by comparing: comparing a `Fraction` against a gate
reference goes through the `numbers` ABC checks, and on the compiler's hot
path (`mat_mul`'s ``zero in ...`` and ``x != zero``) that cost dominated.

`evaluate` supplies everything else (loops, quantifiers, order primitives,
the memo), so loops unroll to sequential stages with the canonical vectors
folded to constants, which eliminates the multiply-by-zero avalanche the
basis vectors would otherwise cause.  Constant folding never changes output
values.  The compiler also inherits the evaluator's rule of memoising only
nodes whose entry can be read again; gates are interned, so the circuit is
the same either way.

Only the polynomial surface compiles: core operators plus `div` and the
pointwise product/sum families.  `div` is the gate semiring's ``div``
field, which folds constants and otherwise builds a division gate.  The
semiring leaves ``gtz`` unset, as it has no sum/product/division circuit,
so `evaluate` rejects it.  Constants other than 0 and 1 are synthesised
when needed (positive integers as fan-in-k sums of ones, positive
rationals as a division); negative or infinite constants that survive
folding are rejected.

The result is pruned: every remaining gate is reachable from an output.
"""

from __future__ import annotations

from fractions import Fraction

from . import ast
from .circuits import (Circuit, DIV, Gate, INPUT, ONE, PROD, SUM, ZERO,
                       prune, stats)
from .errors import (FunctionUnavailableForSemiring, MissingDimension,
                     UnassignedSymbol, UnknownFunction, UnsupportedConstant,
                     UnsupportedFunction)
from .evaluator import evaluate
from .instance import Instance
from .matrix import KMatrix
from .semiring import Semiring

_MAX_SYNTH_INT = 1 << 16


class _Ref:
    """Reference to a built gate."""

    __slots__ = ("idx",)

    def __init__(self, idx):
        self.idx = idx


class _Builder:
    def __init__(self):
        # gate -> its index; insertion order is gate order
        self.interned: dict[Gate, int] = {}

    def gate(self, kind, children=(), ref=None):
        return self.interned.setdefault(Gate(kind, children, ref),
                                        len(self.interned))

    def materialize(self, v) -> int:
        if v.__class__ is _Ref:
            return v.idx
        if v == 0:
            return self.gate(ZERO)
        if v == 1:
            return self.gate(ONE)
        if v < 0:
            raise UnsupportedConstant(
                f"cannot synthesise the negative constant {v} from 0/1 gates")
        if v.denominator == 1:
            n = v.numerator
            if n > _MAX_SYNTH_INT:
                raise UnsupportedConstant(
                    f"refusing to synthesise the constant {n} as a sum of "
                    f"ones")
            return self.gate(SUM, (self.gate(ONE),) * n)
        num = self.materialize(v.numerator)
        den = self.materialize(v.denominator)
        return self.gate(DIV, (num, den))

    # scalar operations with constant folding ----------------------------

    def sadd(self, a, b):
        a_const, b_const = a.__class__ is not _Ref, b.__class__ is not _Ref
        if a_const and b_const:
            return a + b
        if a_const and a == 0:
            return b
        if b_const and b == 0:
            return a
        return _Ref(self.gate(SUM, (self.materialize(a),
                                    self.materialize(b))))

    def smul(self, a, b):
        a_const, b_const = a.__class__ is not _Ref, b.__class__ is not _Ref
        if a_const and b_const:
            return a * b
        if a_const or b_const:
            x, y = (a, b) if a_const else (b, a)
            if x == 0:
                return 0
            if x == 1:
                return y
        return _Ref(self.gate(PROD, (self.materialize(a),
                                     self.materialize(b))))

    def sdiv(self, a, b):
        b_const = b.__class__ is not _Ref
        if b_const and a.__class__ is not _Ref and b != 0:
            return Fraction(a) / b
        if b_const and b == 1:
            return a
        return _Ref(self.gate(DIV, (self.materialize(a),
                                    self.materialize(b))))


def _literal(v):
    try:
        f = Fraction(v)
    except (OverflowError, ValueError):
        raise UnsupportedConstant(
            f"literal {v!r} cannot appear in a circuit") from None
    return f.numerator if f.denominator == 1 else f


def _input_matrix(name, schema, dims, b):
    t = schema.vars.get(name)
    if t is None:
        raise UnassignedSymbol(
            f"variable '{name}' is not declared in the schema")
    for sym in (t.rows, t.cols):
        if sym not in dims:
            raise UnassignedSymbol(
                f"no dimension assigned to size symbol '{sym}' "
                f"(variable '{name}')")
    rows, cols = dims[t.rows], dims[t.cols]
    return KMatrix(rows, cols,
                   tuple(_Ref(b.gate(INPUT, ref=(name, i + 1, j + 1)))
                         for i in range(rows) for j in range(cols)))


def compile_expr(e: ast.Expr, schema: ast.Schema,
                 dims: dict[str, int]) -> Circuit:
    """Unroll `e` into a circuit for the given dimension assignment.

    Free variables become input gates laid out by their schema type; the
    outputs are labelled with the 1-based positions of the result matrix.
    """
    b = _Builder()
    sr = Semiring("circuit", 0, 1, b.sadd, b.smul, Fraction, str, _literal,
                  div=b.sdiv)
    inst = Instance({**dims, ast.UNIT: 1})
    # inputs get their gates before evaluation, in sorted name order, so
    # their numbers do not depend on which input the evaluation reaches first
    for name in sorted(ast.free_vars(e)):
        inst.mats[name] = _input_matrix(name, schema, inst.dims, b)
    try:
        result = evaluate(e, inst, sr, schema=schema)
    except MissingDimension as exc:
        raise UnassignedSymbol(str(exc)) from None
    except (UnknownFunction, FunctionUnavailableForSemiring) as exc:
        raise UnsupportedFunction(str(exc)) from None
    outputs = [((i + 1, j + 1), b.materialize(result.get(i, j)))
               for i in range(result.rows) for j in range(result.cols)]
    return prune(Circuit(list(b.interned), outputs))


def degree_growth(e: ast.Expr, schema: ast.Schema, symbol: str,
                  ns) -> list[tuple[int, int]]:
    """Degree of the unrolled circuit for each dimension in `ns`.

    This measures an upper bound witness: it can show polynomial growth for
    additive-fragment expressions and exponential growth for loops such as
    repeated squaring, but it does not decide the minimum degree over all
    equivalent circuit families.
    """
    out = []
    for n in ns:
        c = compile_expr(e, schema, {symbol: n})
        out.append((n, stats(c).degree))
    return out
