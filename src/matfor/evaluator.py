"""Iterative semantics of expressions over a semiring instance.

A ``for v, X . e`` loop starts the accumulator at the zero matrix (or at the
value of its explicit initialiser), then performs one sequential iteration
per canonical vector b_1 .. b_n in ascending index order, n being the
dimension assigned to the iterator's size symbol.  The quantifier sugar is
evaluated directly by folding: ``sum`` with +, ``prod`` with matrix product,
``hprod`` with the entrywise product.

Evaluation is staged: `evaluate` builds one closure per DAG node, then runs
the root's.  The build runs on `ast.drive`, so it never recurses, and it
hands each node the shapes of the names in scope: instance matrices, and
loop binders sized by typecheck's own `binder_types` over the schema with
the scope laid over it (or by a ``for`` loop's initialiser).  The build
gives every node a concrete shape or raises: an unbound name, operands
whose shapes do not fit (the kernels' own `ShapeMismatch`), a loop body
whose shape differs from its accumulator's, or a missing dimension, literal
or function is an error before any kernel runs, and carries no loop
context.  A closure serves every occurrence of a value number under one
build key, the shapes of its free variables and of the `_resized` names, so
a node shared under binders of different sizes gets one per size.  A left-
deep ``+`` or ``*`` spine, up to a memoised node, is one closure that folds
its operands from left to right, so its length costs no stack.  Other nodes
still nest their closures, and a nest too deep for Python's stack raises
`EvalError`.

A loop ``Σx.S`` (`ast.summand`; a ``for``'s ``X + S`` with X on the left)
over canonical vectors x with n > 1 is lifted into one fold when its term S
is a left-deep ``*`` spine of 1 x 1 factors, cut at its first x-free node,
each free of x or a selection ``R * x`` or ``x^T * C`` with R and C free of x.
Its body is never built: once per run of the loop each factor (R or C for
a selection) is evaluated by its own closure, and the loop folds over the
visit order with C-level `map`.  The selection at b_i is the kernel's one
term whose basis entry is not zero, ``plus(zero, times(R[i], one))`` or
``plus(zero, times(one, C[i]))``; the spine steps, the start and the
``plus`` fold are the loop's own.  The kernel's other terms hold a `zero`
factor, and leave its sum as it was exactly where the zero-term path
leaves them out: where ``times(zero, y) == zero`` for every entry y of R or
C.  A factor with an entry that fails this (+-inf or nan over the reals,
-inf or nan over min-plus) takes the kernel's products against b_i
instead.  So the fold is bit-identical to the loop, and an error in a
factor carries the loop's first iteration as its context, as the loop's
would.  This is the loop-lifting of Grust, Sakr and Teubner (XQuery on SQL
Hosts, VLDB 2004), applied to the paper's sum over canonical vectors.

A node that is 1 x 1 at build time, like a 1 x 1 variable, is carried as a
bare carrier value, not a `KMatrix`; with dimension one even the canonical
vectors are.  Its operations are the kernel's own on 1 x 1 matrices, in the
kernel's order (``plus(zero, times(a, b))``, ``plus(a, b)``, ``times(s,
x)``, ``impl(*args)``), so results and compiled circuits are bit-identical
to the kernels'.  Other nodes call the kernels through this module's
globals (`mat_mul`, `mat_add`, ...).

Evaluation is pure, so results of a subexpression can be memoised per call,
keyed by the node's structure and the values currently bound to its free
variables.  Builders share subtrees by reference, which turns deeply nested
library expressions into DAGs and keeps evaluation polynomial.  A memo key
is the flat tuple ``(number, size, ..., value, ...)``: ``number`` is the
node's value number, equal for structurally equal nodes, so two equal but
distinct subtrees are evaluated once; the sizes are the build key's; the
values are those of the node's free variables.  One linear pass
(``ast.node_table``) gives numbers and free variables for the whole DAG.
``Var`` leaves are read straight from the environment.  A `KMatrix` in a key
compares by identity, a bare value by value, so a bare float enters the key
with the sign of its zero (``-0.0`` must not answer for ``0.0``) and any
other bare value with its class (`_scalar_key`).

A node is memoised only where a second read of its entry is possible: its
value number is reached by more than one parent edge, or some loop
enclosing it binds none of its free variables (for ``for`` neither the
iterator nor the accumulator, for the quantifiers the iterator), so its key
recurs across that loop's iterations, and it does not inherit its key.  A
node inherits its parent's key when its one parent edge is not a loop's
body or initialiser and the parent has the same free variables: it runs
only when that parent does.  Any other node is evaluated afresh, since its
entry would be written and not read again.  A left-deep product thus keeps
one entry for its longest loop-invariant prefix.  One more linear pass
(`_memo_numbers`) finds the memoised numbers.  Which nodes are memoised
changes only how often a node is computed, never what it computes:
evaluation is deterministic, so every result is bit-identical to memoising
every node.

Each evaluation also keeps a product cache (`_Products`).  A product whose
build-time shapes have rows, inner and cols all above one, in a ``*`` or a
``prod`` fold, is looked up by its shape and its operands' entries: floats
by their bits, so -0.0 and 0.0, and nan payloads, stay apart; int, bool
and `Fraction` entries by value and class.  Operands with entries of
mixed classes or of another class (the compiler's gates, an unknown
carrier) go to the kernel, as do selections, 1 x 1 values and the row
fold's terms.  A miss calls this module's `mat_mul`, so a wrapper around it
sees only the products that run.  The cache holds at most
`_PRODUCT_ENTRIES` matrix entries; a product past that is not inserted.
This is hash-consing (Filliâtre and Conchon, "Type-Safe Modular
Hash-Consing", ML Workshop 2006) applied to kernel calls.  The memo and
the cache skip different repeats.  The memo skips a node whose key recurs,
and with it the node's whole subtree; it keys a `KMatrix` by identity, so
it cannot see equal operands that no DAG node shares, such as the prefix
products ``A^(p-1) * A`` that `stdlib._pow` rebuilds as fresh stages of a
``prod`` for each power.  The cache sees those, but only once both
operands have been computed, so it saves the one kernel call and none of
the work that made them, which the memo skips.

Nothing here depends on the carrier beyond the semiring's operations,
constants and pointwise functions: ``circuit_compile`` builds a circuit
by running `evaluate` over a semiring whose carrier values are constants or
unbuilt gates.

``iteration_order`` replaces the ascending visit order of every loop with a
caller-supplied permutation; over exact semirings a pure ``sum`` expression
must produce the same result for every order.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import reduce
from itertools import repeat
from math import copysign
from operator import eq, itemgetter
from typing import Callable, Optional, Sequence

from . import ast, matrix
from .ast import (Add, Apply, Const, Diag, For, Hadamard, MatMul, MatrixType,
                  Ones, OrderKind, OrderPrim, Prod, ScalarMul, Sum, Transpose,
                  UNIT, Var)
from .errors import (EvalError, FormatError, MatforError, MissingDimension,
                     ShapeMismatch, UnboundVariable, _echo)
from .functions import resolve
from .instance import Instance
from .matrix import KMatrix, mat_add, mat_map, mat_mul, mat_scale, mat_transpose
from .printer import _literal
from .semiring import Semiring
from .typecheck import binder_types, iterator_type

canonical_vector = matrix.canonical_vector
mat_equal = matrix.mat_equal

#: the shape of a node or variable carried as a bare carrier value
_SC = (1, 1)

#: the most matrix entries one evaluation's product cache holds, summed
#: over its products' operands and results (`_Products`)
_PRODUCT_ENTRIES = 1 << 18


def _memo_numbers(root, nodes):
    """Value numbers of the nodes under `root` whose memo entry can be read.

    `nodes` is ``ast.node_table(root)``.  A number qualifies when it is
    reached by more than one parent edge (``Add(e, e)`` counts twice), or
    when some loop enclosing it on some path binds none of its free
    variables, unless it inherits its key: it has one parent edge, not a
    loop's body or initialiser, into a parent with the same free variables.
    Edges are counted once per parent value number, so equal but distinct
    subtrees count as one.  `ast.distinct` gives a node per value number in
    post-order; a pass walks them parents first, so every edge into a node
    is counted, and the binder sets of every loop enclosing it collected,
    before the node itself is decided.  A ``For`` encloses its body, not its
    initialiser.
    """
    memo, edges, enclosing, inherits, empty = set(), {}, {}, {}, frozenset()
    for node in reversed([*ast.distinct(root, lambda n: nodes[id(n)][0])]):
        number, fv = nodes[id(node)]
        outer = enclosing.get(number, empty)
        if edges.get(number, 0) > 1 or (not inherits.get(number) and any(
                b.isdisjoint(fv) for b in outer)):
            memo.add(number)
        bound = ast.binders(node)
        body = outer | {frozenset(bound)} if bound else outer
        kids = ast.children(node)
        for slot, c in enumerate(kids):
            num, child_fv = nodes[id(c)]
            edges[num] = edges.get(num, 0) + 1
            inherits[num] = not bound and child_fv == fv
            enclosing[num] = enclosing.get(num, empty) | (
                body if slot == len(kids) - 1 else outer)
    return memo


def _scalar_key(x):
    """The memo-key form of a bare value: equal keys mean equal bits."""
    if x.__class__ is float:
        return (x, copysign(1.0, x))
    return (x.__class__, x)


def _memoised(cache, raw, prefix, fv, scope):
    """`raw` behind a memo entry keyed by `prefix` (number and sizes) and
    the values of the free variables `fv`, whose shapes `scope` gives."""
    bare = [scope[name] == _SC for name in fv]
    if len(fv) > 1 and not any(bare):
        get = itemgetter(*fv)
    else:
        parts = list(zip(fv, bare))

        def get(env):
            return tuple([_scalar_key(env[name]) if b else env[name]
                          for name, b in parts])

    def run(env):
        key = prefix + get(env)
        got = cache.get(key)
        if got is None:
            got = cache[key] = raw(env)
        return got
    return run


def _entries_key(entries):
    """The product-cache form of a matrix's entries, equal only for equal
    entries of one class, floats compared by their bits; None where the
    entries are of mixed or other classes (a gate, an unknown carrier)."""
    kinds = set(map(type, entries))
    if len(kinds) != 1:
        return None
    kind = kinds.pop()
    if kind is float:
        return array("d", entries).tobytes()
    return (kind, entries) if kind in (int, bool, Fraction) else None


class _Products(dict):
    """One evaluation's products over `sr`: the result of `mat_mul` keyed
    by ``(rows, inner, cols, key(a), key(b))`` (`_entries_key`).  `held`
    counts the matrix entries of the operands and results it holds; a
    product that would take it past `_PRODUCT_ENTRIES` is computed and not
    inserted."""

    __slots__ = ("sr", "held")

    def __init__(self, sr):
        super().__init__()
        self.sr = sr
        self.held = 0

    def mul(self, a, b):
        ka, kb = _entries_key(a.entries), _entries_key(b.entries)
        if ka is None or kb is None:
            return mat_mul(a, b, self.sr)
        key = (a.rows, a.cols, b.cols, ka, kb)
        got = self.get(key)
        if got is None:
            got = mat_mul(a, b, self.sr)
            size = len(a.entries) + len(b.entries) + len(got.entries)
            if self.held + size <= _PRODUCT_ENTRIES:
                self[key] = got
                self.held += size
        return got


def _step(cls, sr, left, right, products):
    """The operation that combines carried values of shapes `left` and
    `right` by `cls` (`Add`, `MatMul` or entrywise `Hadamard`), and the
    shape of its result; `ShapeMismatch` if the shapes do not fit.  A
    product whose rows, inner and cols are all above one goes through
    `products`."""
    plus, times, zero = sr.plus, sr.times, sr.zero
    if cls is MatMul:
        if left[1] != right[0]:
            raise ShapeMismatch(f"cannot multiply {left} by {right}")
        out = (left[0], right[1])
        if min(left[0], left[1], right[1]) > 1:
            return products.mul, out
    elif left != right:
        raise ShapeMismatch(f"cannot add {left} and {right}")
    else:
        out = left
    if left == right == _SC:
        if cls is MatMul:
            return (lambda a, b: plus(zero, times(a, b))), _SC
        return (plus if cls is Add else times), _SC
    if cls is Hadamard:
        return (lambda a, b: mat_map(times, [a, b])), out
    lift_a, lift_b, unwrap = left == _SC, right == _SC, out == _SC

    def op(a, b):
        if lift_a:
            a = KMatrix(1, 1, (a,))
        if lift_b:
            b = KMatrix(1, 1, (b,))
        r = mat_add(a, b, sr) if cls is Add else mat_mul(a, b, sr)
        return r.entries[0] if unwrap else r
    return op, out


def _selections(e, nodes):
    """The factors of loop `e`'s body when it sums a spine of selections.

    That is a loop ``Σx.S`` (`ast.summand`; a ``for``'s ``X + S`` with X
    on the left, as min-plus ``plus`` is not symmetric in a nan) whose term
    S mentions x and is a left-deep ``*`` spine, cut at its first x-free
    node, of factors each free of x, or ``R * x`` or ``x^T * C`` with R and
    C free of x.  Each factor is ``(kind, node)``: kind None for an x-free
    factor, "row" for R and "col" for C.  None for any other loop.
    """
    var, body = e.var, ast.summand(e, nodes)
    if body is None or (e.__class__ is For and body is not e.body.right):
        return None

    def free(node):
        return var not in nodes[id(node)][1]

    def factor(node):
        if free(node):
            return None, node
        if node.__class__ is MatMul:
            left, right = node.left, node.right
            if right.__class__ is Var and right.name == var and free(left):
                return "row", left
            if (left.__class__ is Transpose and left.arg.__class__ is Var
                    and left.arg.name == var and free(right)):
                return "col", right
        return None

    if free(body):
        return None
    spine = []
    while body.__class__ is MatMul and not free(body) and not factor(body):
        spine.append(body.right)
        body = body.left
    spine.append(body)
    out = [factor(node) for node in reversed(spine)]
    return None if None in out else out


def _resized(root, nodes):
    """The names that one loop under `root` sizes itself (by annotation or
    initialiser) and another looks up: the enclosing scope then sizes the
    latter, so the scope's shapes of these names enter the keys."""
    own, looked_up = set(), set()
    for node in ast.distinct(root, lambda n: nodes[id(n)][0]):
        if ast.binders(node):
            (own if node.var_sym else looked_up).add(node.var)
        if node.__class__ is For:
            (own if node.acc_type or node.init else looked_up).add(node.acc)
    return sorted(own & looked_up)


class _Ctx:
    def __init__(self, inst, sr, schema, order, root):
        self.inst = inst
        self.sr = sr
        self.schema = schema.vars if schema is not None else {}
        self.order = order
        self.cache = {}
        self.products = _Products(sr)
        self.nodes = nodes = ast.node_table(root)
        self.memo = _memo_numbers(root, nodes)
        self.resized = _resized(root, nodes)
        self.canon = {}

    def bases(self, n):
        """The canonical vectors b_1 .. b_n as carried: bare when n = 1."""
        got = self.canon.get(n)
        if got is None:
            got = self.canon[n] = [self.sr.one] if n == 1 else [
                canonical_vector(i, n, self.sr) for i in range(1, n + 1)]
        return got

    def dim(self, sym, what):
        if sym.__class__ is int:
            return sym
        if sym == UNIT:
            return 1
        try:
            return self.inst.dims[sym]
        except KeyError:
            raise MissingDimension(
                f"no dimension assigned to size symbol {_echo(sym)} ({what})"
            ) from None

    def binder_sizes(self, e, shapes):
        """The iterator size of loop `e` and, unless an initialiser gives
        it, its accumulator's shape: typecheck's rule over the schema, with
        the scope's shapes of `e`'s binders laid over it as sized types."""
        env = {**self.schema, **{name: MatrixType(*shapes[name])
                                 for name in ast.binders(e) if name in shapes}}
        try:
            it, acc = iterator_type(e, env), (
                binder_types(e, env)[e.acc]
                if e.__class__ is For and e.init is None else None)
        except UnboundVariable as exc:
            raise MissingDimension(f"no type for loop binder {_echo(exc.name)}"
                                   f" in the schema or the scope") from None
        what = f"binder of loop over {_echo(e.var)}"
        return self.dim(it.rows, what), acc and (self.dim(acc.rows, what),
                                                 self.dim(acc.cols, what))

    def indices(self, n):
        if self.order is None:
            return range(1, n + 1)
        seq = list(self.order(n))
        if sorted(seq) != list(range(1, n + 1)):
            raise EvalError(
                f"iteration_order({n}) is not a permutation of 1..{n}")
        return seq

    def build(self, root, shapes):
        """The closure and concrete shape of `root`, given the shapes of the
        names in scope.  `_node` runs once per value number and
        free-variable shapes, behind the memo where `_memo_numbers` puts
        it.  A node that cannot be given a shape (an unbound name, operands
        that do not fit, a missing dimension, literal or function) raises
        here, before any closure runs."""
        done = {}

        def cached(node, scope):
            number, fv = self.nodes[id(node)]
            sized = (number, *map(scope.get, self.resized))
            key = (*sized, *map(scope.get, fv))
            got = done.get(key)
            if got is None:
                run, shape = yield from self._node(node, scope)
                if number in self.memo and node.__class__ is not Var:
                    run = _memoised(self.cache, run, sized, fv, scope)
                got = done[key] = run, shape
            return got
        return ast.drive(root, shapes, cached)

    def _node(self, e, shapes):
        sr = self.sr
        cls = e.__class__

        if cls is Var:
            if e.name not in shapes:
                raise EvalError(f"no value bound to variable {_echo(e.name)}")
            return itemgetter(e.name), shapes[e.name]

        if cls is MatMul or cls is Add:
            # a left-deep spine up to a memoised node folds in one closure
            operands, left = [e.right], e.left
            while (left.__class__ is cls
                   and self.nodes[id(left)][0] not in self.memo):
                operands.append(left.right)
                left = left.left
            first, shape = yield left, shapes
            steps = []
            for c in reversed(operands):
                f, s = yield c, shapes
                op, shape = _step(cls, sr, shape, s, self.products)
                steps.append((op, f))

            def run(env):
                acc = first(env)
                for op, f in steps:
                    acc = op(acc, f(env))
                return acc
            return run, shape

        if cls is ScalarMul:
            fs, ss = yield e.scalar, shapes
            fa, sa = yield e.arg, shapes
            if ss != _SC:
                raise ShapeMismatch(
                    f"scalar product needs a 1 x 1 left operand, got {ss}")
            if sa == _SC:
                times = sr.times
                return (lambda env: times(fs(env), fa(env))), _SC
            return (lambda env: mat_scale(fs(env), fa(env), sr)), sa

        if cls is Transpose:
            f, s = yield e.arg, shapes
            if s == _SC:
                return f, s
            return (lambda env: mat_transpose(f(env))), (s[1], s[0])

        if cls is Const:
            try:
                value = sr.parse(_literal(e.value))
            except FormatError as exc:
                raise EvalError(
                    f"literal not in the {sr.name} carrier: {exc}") from None
            return (lambda env: value), _SC

        if cls is Apply:
            arity, impl = resolve(e.func, sr)
            if arity != len(e.args):
                raise EvalError(
                    f"function {_echo(e.func)} expects {arity} arguments, "
                    f"got {len(e.args)}")
            fs, ss = [], []
            for a in e.args:
                f, s = yield a, shapes
                fs.append(f)
                ss.append(s)
            if any(s != ss[0] for s in ss):
                raise ShapeMismatch("pointwise application needs equal shapes")
            if all(s == _SC for s in ss):
                return (lambda env: impl(*[f(env) for f in fs])), _SC
            return (lambda env: mat_map(impl, [f(env) for f in fs])), ss[0]

        if cls is For:
            n, s0 = self.binder_sizes(e, shapes)
            if e.init is not None:
                start, s0 = yield e.init, shapes
            else:
                zero = sr.zero if s0 == _SC else matrix.zeros(*s0, sr)

                def start(env):
                    return zero
            scope = {**shapes, e.var: (n, 1), e.acc: s0}
            run = yield from self._row_fold(e, n, scope)
            if run is not None:
                return run, s0
            body, s1 = yield e.body, scope
            if s1 != s0:
                raise ShapeMismatch(
                    f"loop body has shape {s1}, its accumulator "
                    f"{_echo(e.acc)} {s0}")
            return self._loop(e, n, start, body), s0

        if cls is Sum or cls is Prod or cls is Hadamard:
            n, _ = self.binder_sizes(e, shapes)
            scope = {**shapes, e.var: (n, 1)}
            run = yield from self._row_fold(e, n, scope)
            if run is not None:
                return run, _SC
            body, s = yield e.body, scope
            fold, _ = _step({Sum: Add, Prod: MatMul}.get(cls, Hadamard), sr,
                            s, s, self.products)
            return self._loop(e, n, None, body, fold), s

        if cls is Ones:
            # the argument is built for its shape and never run
            _, (rows, _) = yield e.arg, shapes
            out = sr.one if rows == 1 else KMatrix(rows, 1, (sr.one,) * rows)
            return (lambda env: out), (rows, 1)

        if cls is Diag:
            f, s = yield e.arg, shapes
            if s[1] != 1:
                raise ShapeMismatch(f"diag needs a column vector, got {s}")
            if s == _SC:
                return f, s
            n = s[0]

            def run(env):
                val = f(env)
                ent = [sr.zero] * (n * n)
                for i in range(n):
                    ent[i * n + i] = val.entries[i]
                return KMatrix(n, n, tuple(ent))
            return run, (n, n)

        if cls is OrderPrim:
            n = self.dim(e.sym, f"order primitive {e.kind.value}")
            if e.kind is OrderKind.EMIN or e.kind is OrderKind.EMAX:
                out = self.bases(n)[0 if e.kind is OrderKind.EMIN else -1]
                return (lambda env: out), (n, 1)
            ent = [sr.zero] * (n * n)
            if e.kind is OrderKind.SLESS:
                for i in range(n):
                    for j in range(i + 1, n):
                        ent[i * n + j] = sr.one
            else:  # NSHIFT: maps b_j to b_{j+1}, kills b_n
                for j in range(n - 1):
                    ent[(j + 1) * n + j] = sr.one
            out = ent[0] if n == 1 else KMatrix(n, n, tuple(ent))
            return (lambda env: out), (n, n)

        raise MatforError(f"cannot evaluate node {cls.__name__}")

    def _row_fold(self, e, n, scope):
        """Loop `e` run as one fold over the rows its body selects (see
        `_selections`), or None where the body is not such a sum, n is 1 or
        a factor's shape does not fit; the body is then built as usual, and
        raises any error there.
        The factors are built, and once per run evaluated, in spine order,
        so a factor's error is the one the first iteration would raise."""
        factors = _selections(e, self.nodes) if n > 1 else None
        if factors is None or (e.__class__ is For and scope[e.acc] != _SC):
            return None
        fit = {None: _SC, "row": (1, n), "col": (n, 1)}
        fs = []
        for kind, node in factors:
            f, s = yield node, scope
            if s != fit[kind]:
                return None
            fs.append(f)
        sr, bases, indices, var = self.sr, self.bases(n), self.indices, e.var
        plus, times = sr.plus, sr.times
        zeros, ones = repeat(sr.zero), repeat(sr.one)
        kernel, _ = _step(MatMul, sr, (1, n), (n, 1), self.products)
        first = (sr.zero,) if e.__class__ is For else ()  # a for from zero

        def run(env):
            seq = indices(n)
            try:
                vals = [f(env) for f in fs]
            except EvalError as exc:
                exc.add_context(f"loop over {_echo(var)}, iteration 1 of {n}")
                raise
            # each iteration's term, in index order
            terms = None
            for (kind, _), val in zip(factors, vals):
                if kind is None:
                    col = repeat(val)
                elif all(map(eq, map(times, zeros, val.entries), zeros)):
                    # the kernel's one term whose basis entry is not zero
                    col = map(plus, zeros, map(times, val.entries, ones)
                              if kind == "row" else
                              map(times, ones, val.entries))
                elif kind == "row":
                    col = map(kernel, repeat(val), bases)
                else:
                    col = map(kernel, map(mat_transpose, bases), repeat(val))
                terms = col if terms is None else map(
                    plus, zeros, map(times, terms, col))
            if self.order is not None:
                terms = itemgetter(*[i - 1 for i in seq])(tuple(terms))
            return reduce(plus, terms, *first)
        return run

    def _loop(self, e, n, start, body, fold=None):
        """A ``for`` loop (`start` is its initial accumulator) or, with
        `fold`, a quantifier."""
        bases, indices, var = self.bases(n), self.indices, e.var
        acc_name = e.acc if start is not None else None

        def run(env):
            acc = start(env) if start is not None else None
            inner = dict(env)
            for step, i in enumerate(indices(n), start=1):
                inner[var] = bases[i - 1]
                if acc_name is not None:
                    inner[acc_name] = acc
                try:
                    val = body(inner)
                except EvalError as exc:
                    exc.add_context(
                        f"loop over {_echo(var)}, iteration {step} of {n}")
                    raise
                acc = val if fold is None or step == 1 else fold(acc, val)
            return acc
        return run


def evaluate(e: ast.Expr,
             inst: Instance,
             sr: Semiring,
             schema: Optional[ast.Schema] = None,
             iteration_order: Optional[Callable[[int], Sequence[int]]] = None
             ) -> KMatrix:
    """Evaluate a (well-typed) expression on an instance.

    `schema` types the unannotated loop binders no enclosing loop binds.
    """
    ctx = _Ctx(inst, sr, schema, iteration_order, e)
    run, shape = ctx.build(e, {name: m.shape for name, m in inst.mats.items()})
    try:
        out = run({name: m.entries[0] if m.shape == _SC else m
                   for name, m in inst.mats.items()})
    except RecursionError:
        raise EvalError("expression nested too deeply to evaluate") from None
    return matrix.scalar(out) if shape == _SC else out
