"""Compilation of expressions to arithmetic circuits for fixed dimensions.

Given a dimension assignment for every size symbol, an expression unrolls
into one circuit: every entry of every subexpression value is either a
compile-time rational constant or a gate reference.  Loops unroll to
sequential stages with the canonical vectors folded to constants, which
eliminates the multiply-by-zero avalanche the basis vectors would otherwise
cause; constant folding is exact (math.Fraction) and never changes output
values.

Only the polynomial surface compiles: core operators plus `div` and the
pointwise product/sum families.  `gtz` has no sum/product/division circuit
and is rejected.  Constants other than 0 and 1 are synthesised when needed
(positive integers as fan-in-k sums of ones, positive rationals as a
division); negative or infinite constants that survive folding are
rejected.

Subexpressions are memoised as in the evaluator: flat keys of the node's
value number (equal for structurally equal nodes) and the values of its
free variables, both from one linear pass; ``Var`` leaves unmemoised.

The result is pruned: every remaining gate is reachable from an output.
"""

from __future__ import annotations

from fractions import Fraction

from . import ast
from .ast import (Add, Apply, Const, Diag, For, Hadamard, MatMul, Ones,
                  OrderKind, OrderPrim, Prod, ScalarMul, Sum, Transpose, UNIT,
                  Var)
from .circuits import (Circuit, DIV, Gate, INPUT, ONE, PROD, SUM, ZERO,
                       prune, stats)
from .errors import (MatforError, UnassignedSymbol, UnsupportedConstant,
                     UnsupportedFunction)
from .matrix import KMatrix

_MAX_SYNTH_INT = 1 << 16


class _Ref:
    """Reference to a built gate."""

    __slots__ = ("idx",)

    def __init__(self, idx):
        self.idx = idx


class _Builder:
    def __init__(self):
        self.gates: list[Gate] = []
        self.interned: dict = {}

    def gate(self, kind, children=(), ref=None):
        key = (kind, tuple(children), ref)
        idx = self.interned.get(key)
        if idx is None:
            idx = len(self.gates)
            self.gates.append(Gate(kind, tuple(children), ref))
            self.interned[key] = idx
        return idx

    def materialize(self, v) -> int:
        if isinstance(v, _Ref):
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
        num = self.materialize(Fraction(v.numerator))
        den = self.materialize(Fraction(v.denominator))
        return self.gate(DIV, (num, den))

    # scalar operations with constant folding ----------------------------

    def sadd(self, a, b):
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            return a + b
        if isinstance(a, Fraction) and a == 0:
            return b
        if isinstance(b, Fraction) and b == 0:
            return a
        return _Ref(self.gate(SUM, (self.materialize(a),
                                    self.materialize(b))))

    def smul(self, a, b):
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            return a * b
        for x, y in ((a, b), (b, a)):
            if isinstance(x, Fraction):
                if x == 0:
                    return Fraction(0)
                if x == 1:
                    return y
        return _Ref(self.gate(PROD, (self.materialize(a),
                                     self.materialize(b))))

    def sdiv(self, a, b):
        if isinstance(a, Fraction) and isinstance(b, Fraction) and b != 0:
            return a / b
        if isinstance(b, Fraction) and b == 1:
            return a
        return _Ref(self.gate(DIV, (self.materialize(a),
                                    self.materialize(b))))


def _frac_matrix(rows, cols, fn):
    return KMatrix(rows, cols,
                   tuple(fn(i, j) for i in range(rows) for j in range(cols)))


class _Compiler:
    def __init__(self, schema, dims, builder, nodes):
        self.types = dict(schema.vars) if schema is not None else {}
        self.dims = dict(dims)
        self.dims[UNIT] = 1
        self.b = builder
        self.cache = {}
        self.nodes = nodes
        self.canon = {}

    def dim(self, sym, what):
        try:
            return self.dims[sym]
        except KeyError:
            raise UnassignedSymbol(
                f"no dimension assigned to size symbol '{sym}' "
                f"({what})") from None

    def basis(self, i, n):
        key = (i, n)
        got = self.canon.get(key)
        if got is None:
            got = _frac_matrix(n, 1,
                               lambda r, _: Fraction(1 if r == i - 1 else 0))
            self.canon[key] = got
        return got

    def iter_sym(self, node):
        if node.var_sym is not None:
            return node.var_sym
        t = self.types.get(node.var)
        if t is None:
            raise UnassignedSymbol(
                f"cannot resolve the size symbol of iterator '{node.var}'")
        return t.rows

    def input_matrix(self, name):
        t = self.types.get(name)
        if t is None:
            raise UnassignedSymbol(
                f"variable '{name}' is not declared in the schema")
        rows = self.dim(t.rows, f"variable '{name}'")
        cols = self.dim(t.cols, f"variable '{name}'")
        return _frac_matrix(
            rows, cols,
            lambda i, j: _Ref(self.b.gate(INPUT, ref=(name, i + 1, j + 1))))

    # matrix-level operations --------------------------------------------

    def madd(self, a, b):
        return KMatrix(a.rows, a.cols,
                       tuple(self.b.sadd(x, y)
                             for x, y in zip(a.entries, b.entries)))

    def mmul(self, a, b):
        out = []
        for i in range(a.rows):
            for j in range(b.cols):
                acc = Fraction(0)
                for k in range(a.cols):
                    acc = self.b.sadd(acc,
                                      self.b.smul(a.get(i, k), b.get(k, j)))
                out.append(acc)
        return KMatrix(a.rows, b.cols, tuple(out))

    def mscale(self, s, a):
        return KMatrix(a.rows, a.cols,
                       tuple(self.b.smul(s, x) for x in a.entries))

    def compile(self, e, env):
        if e.__class__ is Var:
            try:
                return env[e.name]
            except KeyError:
                raise UnassignedSymbol(
                    f"no value bound to variable '{e.name}'") from None
        number, fv = self.nodes[id(e)]
        key = (number, *map(env.get, fv))
        got = self.cache.get(key)
        if got is None:
            got = self._compile(e, env)
            self.cache[key] = got
        return got

    def _compile(self, e, env):
        if isinstance(e, Const):
            if isinstance(e.value, float) and (e.value != e.value
                                               or e.value in (float("inf"),
                                                              float("-inf"))):
                raise UnsupportedConstant(
                    f"literal {e.value!r} cannot appear in a circuit")
            return KMatrix(1, 1, (Fraction(e.value),))

        if isinstance(e, Transpose):
            a = self.compile(e.arg, env)
            return KMatrix(a.cols, a.rows,
                           tuple(a.get(i, j) for j in range(a.cols)
                                 for i in range(a.rows)))

        if isinstance(e, MatMul):
            return self.mmul(self.compile(e.left, env),
                             self.compile(e.right, env))

        if isinstance(e, Add):
            return self.madd(self.compile(e.left, env),
                             self.compile(e.right, env))

        if isinstance(e, ScalarMul):
            s = self.compile(e.scalar, env)
            return self.mscale(s.get(0, 0), self.compile(e.arg, env))

        if isinstance(e, Apply):
            return self._apply(e, env)

        if isinstance(e, For):
            n = self.dim(self.iter_sym(e), f"iterator '{e.var}'")
            if e.init is not None:
                acc = self.compile(e.init, env)
            else:
                t = (e.acc_type if e.acc_type is not None
                     else self.types.get(e.acc))
                if t is None:
                    raise UnassignedSymbol(
                        f"cannot resolve the type of accumulator '{e.acc}'")
                acc = _frac_matrix(self.dim(t.rows, e.acc),
                                   self.dim(t.cols, e.acc),
                                   lambda i, j: Fraction(0))
            inner = dict(env)
            for i in range(1, n + 1):
                inner[e.var] = self.basis(i, n)
                inner[e.acc] = acc
                acc = self.compile(e.body, inner)
            return acc

        if isinstance(e, (Sum, Prod, Hadamard)):
            n = self.dim(self.iter_sym(e), f"iterator '{e.var}'")
            inner = dict(env)
            acc = None
            for i in range(1, n + 1):
                inner[e.var] = self.basis(i, n)
                val = self.compile(e.body, inner)
                if acc is None:
                    acc = val
                elif isinstance(e, Sum):
                    acc = self.madd(acc, val)
                elif isinstance(e, Prod):
                    acc = self.mmul(acc, val)
                else:
                    acc = KMatrix(acc.rows, acc.cols,
                                  tuple(self.b.smul(x, y) for x, y in
                                        zip(acc.entries, val.entries)))
            return acc

        if isinstance(e, Ones):
            a = self.compile(e.arg, env)
            return _frac_matrix(a.rows, 1, lambda i, j: Fraction(1))

        if isinstance(e, Diag):
            a = self.compile(e.arg, env)
            n = a.rows
            return _frac_matrix(
                n, n,
                lambda i, j: a.get(i, 0) if i == j else Fraction(0))

        if isinstance(e, OrderPrim):
            n = self.dim(e.sym, f"order primitive {e.kind.value}")
            if e.kind is OrderKind.EMIN:
                return self.basis(1, n)
            if e.kind is OrderKind.EMAX:
                return self.basis(n, n)
            if e.kind is OrderKind.SLESS:
                return _frac_matrix(
                    n, n, lambda i, j: Fraction(1 if i < j else 0))
            return _frac_matrix(
                n, n, lambda i, j: Fraction(1 if i == j + 1 else 0))

        raise MatforError(f"cannot compile node {type(e).__name__}")

    def _apply(self, e, env):
        name = e.func
        args = [self.compile(a, env) for a in e.args]
        first = args[0]
        if name == "div":
            num, den = args
            ent = tuple(self.b.sdiv(x, y)
                        for x, y in zip(num.entries, den.entries))
            return KMatrix(first.rows, first.cols, ent)
        if name.startswith("hprod") and name[5:].isdigit():
            fold, unit = self.b.smul, Fraction(1)
        elif name.startswith("hsum") and name[4:].isdigit():
            fold, unit = self.b.sadd, Fraction(0)
        else:
            raise UnsupportedFunction(
                f"function '{name}' has no sum/product/division circuit")
        out = []
        for idx in range(first.rows * first.cols):
            acc = unit
            for a in args:
                acc = fold(acc, a.entries[idx])
            out.append(acc)
        return KMatrix(first.rows, first.cols, tuple(out))


def compile_expr(e: ast.Expr, schema: ast.Schema,
                 dims: dict[str, int]) -> Circuit:
    """Unroll `e` into a circuit for the given dimension assignment.

    Free variables become input gates laid out by their schema type; the
    outputs are labelled with the 1-based positions of the result matrix.
    """
    builder = _Builder()
    nodes = ast.node_table(e)
    comp = _Compiler(schema, dims, builder, nodes)
    env = {name: comp.input_matrix(name) for name in nodes[id(e)][1]}
    result = comp.compile(e, env)
    outputs = []
    for i in range(result.rows):
        for j in range(result.cols):
            outputs.append(((i + 1, j + 1),
                            builder.materialize(result.get(i, j))))
    return prune(Circuit(builder.gates, outputs))


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
