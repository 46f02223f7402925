"""Iterative semantics of expressions over a semiring instance.

A ``for v, X . e`` loop starts the accumulator at the zero matrix (or at the
value of its explicit initialiser), then performs one sequential iteration
per canonical vector b_1 .. b_n in ascending index order, n being the
dimension assigned to the iterator's size symbol.  The quantifier sugar is
evaluated directly by folding: ``sum`` with +, ``prod`` with matrix product,
``hprod`` with the entrywise product.

Evaluation is pure, so results of a subexpression can be memoised per
call, keyed by the node's structure and the values currently bound to its
free variables.  Builders share subtrees by reference, which turns deeply
nested library expressions into DAGs and keeps evaluation polynomial.  A
memo key is the flat tuple ``(number, value, ...)``: ``number`` is the
node's value number, equal for structurally equal nodes, so two equal but
distinct subtrees are evaluated once; the values are those of the node's
free variables.  One linear pass (``ast.node_table``) gives both for the
whole DAG.  ``Var`` leaves are read straight from the environment.

A node is memoised only where a second read of its entry is possible: its
value number is reached by more than one parent edge, or some loop
enclosing it binds none of its free variables (for ``for`` neither the
iterator nor the accumulator, for the quantifiers the iterator), so its key
recurs across that loop's iterations.  Any other node is evaluated afresh
each time its parent is: its key changes with every iteration of the loops
around it, so its entry would be written and not read again, and in a deep
loop nest such entries grow with the iteration count.  Nor is a node
memoised that runs once per key anyway: its one parent edge is not a loop's
body or initialiser and leads to a parent with the same free variables that
is the root, memoised, or runs once per key itself, so the node runs only when
that parent does, under the same key.  A left-deep product thus keeps one
entry for its longest loop-invariant prefix.  One more linear pass
(`_memo_numbers`) finds the memoised numbers.  Which nodes are memoised
changes only how often a node is computed, never what it computes:
evaluation is deterministic, so every result is bit-identical to memoising
every node.

Nothing here depends on the carrier beyond the semiring's operations,
constants and pointwise functions: ``circuit_compile`` builds a circuit
by running `evaluate` over a semiring whose carrier values are constants or
gate references.

``iteration_order`` replaces the ascending visit order of every loop with a
caller-supplied permutation; over exact semirings a pure ``sum`` expression
must produce the same result for every order.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from . import ast, matrix
from .ast import (Add, Apply, Const, Diag, For, Hadamard, MatMul, Ones,
                  OrderKind, OrderPrim, Prod, ScalarMul, Sum, Transpose, UNIT,
                  Var)
from .errors import (EvalError, FormatError, MatforError, MissingDimension,
                     ShapeMismatch)
from .functions import resolve
from .instance import Instance
from .matrix import KMatrix, mat_add, mat_map, mat_mul, mat_scale, mat_transpose
from .semiring import Semiring

canonical_vector = matrix.canonical_vector
mat_equal = matrix.mat_equal


def _memo_numbers(root, nodes):
    """Value numbers of the nodes under `root` whose memo entry can be read.

    `nodes` is ``ast.node_table(root)``.  A number qualifies when it is
    reached by more than one parent edge (``Add(e, e)`` counts twice), or
    when some loop enclosing it on some path binds none of its free
    variables, unless it runs once per key: it has one parent edge, not a
    loop's body or initialiser, into a parent with the same free variables
    that is the root, memoised, or itself runs once per key.  Edges are
    counted once per parent value number, so equal but distinct subtrees
    count as one.  One pass collects a node per value number in post-order;
    a second walks them parents first, so every edge into a node is
    counted, its parents decided, and the binder sets of every loop
    enclosing it collected, before the node itself is decided.  A ``For``
    encloses its body, not its initialiser.
    """
    order, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif nodes[id(node)][0] not in seen:
            seen.add(nodes[id(node)][0])
            stack.append((node, True))
            stack.extend((c, False) for c in ast.children(node))

    memo, edges, enclosing, empty = set(), {}, {}, frozenset()
    once, inherits = {nodes[id(root)][0]}, {}
    for node in reversed(order):
        number, fv = nodes[id(node)]
        outer = enclosing.get(number, empty)
        if edges.get(number) == 1 and inherits[number]:
            once.add(number)
        elif edges.get(number, 0) > 1 or any(b.isdisjoint(fv) for b in outer):
            memo.add(number)
            once.add(number)
        loop = isinstance(node, (For, Sum, Prod, Hadamard))
        if isinstance(node, For):
            body = outer | {frozenset((node.var, node.acc))}
        elif loop:
            body = outer | {frozenset((node.var,))}
        else:
            body = outer
        kids = ast.children(node)
        for slot, c in enumerate(kids):
            num, child_fv = nodes[id(c)]
            edges[num] = edges.get(num, 0) + 1
            inherits[num] = not loop and number in once and child_fv == fv
            enclosing[num] = enclosing.get(num, empty) | (
                body if slot == len(kids) - 1 else outer)
    return memo


class _Ctx:
    def __init__(self, inst, sr, schema, order, nodes, memo):
        self.inst = inst
        self.sr = sr
        self.types = dict(schema.vars) if schema is not None else {}
        self.order = order
        self.cache = {}
        self.nodes = nodes
        self.memo = memo
        self.canon = {}

    def basis(self, i, n):
        key = (i, n)
        got = self.canon.get(key)
        if got is None:
            got = canonical_vector(i, n, self.sr)
            self.canon[key] = got
        return got

    def dim(self, sym, what):
        if sym == UNIT:
            return 1
        try:
            return self.inst.dims[sym]
        except KeyError:
            raise MissingDimension(
                f"no dimension assigned to size symbol '{sym}' ({what})"
            ) from None

    def iter_sym(self, node):
        if node.var_sym is not None:
            return node.var_sym
        t = self.types.get(node.var)
        if t is not None:
            return t.rows
        raise MissingDimension(
            f"cannot resolve the size symbol of loop iterator '{node.var}'; "
            f"declare it in the schema")

    def acc_shape(self, node):
        t = node.acc_type if node.acc_type is not None else self.types.get(node.acc)
        if t is None:
            raise MissingDimension(
                f"cannot resolve the type of loop accumulator '{node.acc}'; "
                f"declare it in the schema or give the loop an initialiser")
        return (self.dim(t.rows, f"accumulator '{node.acc}'"),
                self.dim(t.cols, f"accumulator '{node.acc}'"))

    def indices(self, n):
        if self.order is None:
            return range(1, n + 1)
        seq = list(self.order(n))
        if sorted(seq) != list(range(1, n + 1)):
            raise EvalError(
                f"iteration_order({n}) is not a permutation of 1..{n}")
        return seq


def evaluate(e: ast.Expr,
             inst: Instance,
             sr: Semiring,
             schema: Optional[ast.Schema] = None,
             iteration_order: Optional[Callable[[int], Sequence[int]]] = None
             ) -> KMatrix:
    """Evaluate a (well-typed) expression on an instance.

    `schema` supplies types for loop binders that carry no inline annotation.
    """
    nodes = ast.node_table(e)
    ctx = _Ctx(inst, sr, schema, iteration_order, nodes,
               _memo_numbers(e, nodes))
    return _eval(e, dict(inst.mats), ctx)


def _eval(e, env, ctx):
    if e.__class__ is Var:
        try:
            return env[e.name]
        except KeyError:
            raise EvalError(
                f"no value bound to variable '{e.name}'") from None
    number, fv = ctx.nodes[id(e)]
    if number not in ctx.memo:
        return _eval_raw(e, env, ctx)
    key = (number, *map(env.get, fv))
    got = ctx.cache.get(key)
    if got is not None:
        return got
    out = _eval_raw(e, env, ctx)
    ctx.cache[key] = out
    return out


def _eval_raw(e, env, ctx):
    sr = ctx.sr

    if isinstance(e, MatMul):
        return mat_mul(_eval(e.left, env, ctx), _eval(e.right, env, ctx), sr)

    if isinstance(e, Add):
        return mat_add(_eval(e.left, env, ctx), _eval(e.right, env, ctx), sr)

    if isinstance(e, ScalarMul):
        s = _eval(e.scalar, env, ctx)
        if s.shape != (1, 1):
            raise ShapeMismatch(
                f"scalar product needs a 1 x 1 left operand, got {s.shape}")
        return mat_scale(s.entries[0], _eval(e.arg, env, ctx), sr)

    if isinstance(e, Transpose):
        return mat_transpose(_eval(e.arg, env, ctx))

    if isinstance(e, Const):
        try:
            return matrix.scalar(sr.from_literal(e.value))
        except FormatError as exc:
            raise EvalError(
                f"literal not in the {sr.name} carrier: {exc}") from None

    if isinstance(e, Apply):
        arity, impl = resolve(e.func, sr)
        if arity != len(e.args):
            raise EvalError(
                f"function '{e.func}' expects {arity} arguments, "
                f"got {len(e.args)}")
        return mat_map(impl, [_eval(a, env, ctx) for a in e.args])

    if isinstance(e, For):
        n = ctx.dim(ctx.iter_sym(e), f"iterator '{e.var}'")
        if e.init is not None:
            acc = _eval(e.init, env, ctx)
        else:
            acc = matrix.zeros(*ctx.acc_shape(e), sr)
        inner = dict(env)
        for step, i in enumerate(ctx.indices(n), start=1):
            inner[e.var] = ctx.basis(i, n)
            inner[e.acc] = acc
            try:
                acc = _eval(e.body, inner, ctx)
            except EvalError as exc:
                exc.add_context(
                    f"loop over '{e.var}', iteration {step} of {n}")
                raise
        return acc

    if isinstance(e, (Sum, Prod, Hadamard)):
        n = ctx.dim(ctx.iter_sym(e), f"iterator '{e.var}'")
        inner = dict(env)
        acc = None
        for step, i in enumerate(ctx.indices(n), start=1):
            inner[e.var] = ctx.basis(i, n)
            try:
                val = _eval(e.body, inner, ctx)
            except EvalError as exc:
                exc.add_context(
                    f"loop over '{e.var}', iteration {step} of {n}")
                raise
            if acc is None:
                acc = val
            elif isinstance(e, Sum):
                acc = mat_add(acc, val, sr)
            elif isinstance(e, Prod):
                acc = mat_mul(acc, val, sr)
            else:
                acc = mat_map(sr.times, [acc, val])
        return acc

    if isinstance(e, Ones):
        val = _eval(e.arg, env, ctx)
        return KMatrix(val.rows, 1, (sr.one,) * val.rows)

    if isinstance(e, Diag):
        val = _eval(e.arg, env, ctx)
        if val.cols != 1:
            raise ShapeMismatch(
                f"diag needs a column vector, got {val.shape}")
        n = val.rows
        ent = [sr.zero] * (n * n)
        for i in range(n):
            ent[i * n + i] = val.entries[i]
        return KMatrix(n, n, tuple(ent))

    if isinstance(e, OrderPrim):
        n = ctx.dim(e.sym, f"order primitive {e.kind.value}")
        if e.kind is OrderKind.EMIN:
            return ctx.basis(1, n)
        if e.kind is OrderKind.EMAX:
            return ctx.basis(n, n)
        ent = [sr.zero] * (n * n)
        if e.kind is OrderKind.SLESS:
            for i in range(n):
                for j in range(i + 1, n):
                    ent[i * n + j] = sr.one
        else:  # NSHIFT: maps b_j to b_{j+1}, kills b_n
            for j in range(n - 1):
                ent[(j + 1) * n + j] = sr.one
        return KMatrix(n, n, tuple(ent))

    raise MatforError(f"cannot evaluate node {type(e).__name__}")
