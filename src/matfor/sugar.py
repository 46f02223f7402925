"""Desugaring passes that lower sugar forms to the core calculus.

``desugar`` replaces the quantifier and ones/diag sugar by their loop
templates:

* ``sum v . e``    ->  ``for v, X . X + e``
* ``prod v . e``   ->  ``for v, X = <identity> . X * e``
* ``hprod v . e``  ->  ``for v, X = <all-ones> . hprod2(X, e)``
* ``ones(e)``      ->  the all-ones column loop for the row symbol of e
* ``diag(e)``      ->  ``for v, X . X + (v^T * e) .* (v * v^T)``

``reduce_apply_to_scalars`` rewrites every pointwise application whose
arguments are not scalars into a double sum over canonical vectors applying
the function to picked-out entries, so that afterwards every application has
(1, 1) arguments.

Both passes need the type of each subtree, and both get it one way: their
`drive` rules return ``(rewrite, outcome)`` pairs through `_typed`, which
runs the type checker's rule on the children's outcomes as it leaves a
node.  An outcome is a type or the first type error, so each node is typed
once and the passes stay linear.

Both passes run on one driver, `_lowered`.  Their fresh names come from
`_Fresh` (a prefix and a counter), which avoids the schema's names and
every name in the expression.  Fresh binders carry inline type
annotations, so the schema itself never has to change.

Both passes preserve types and are idempotent.  Their templates multiply
values y by the ``zero`` entries of canonical vectors, so they preserve
values where ``times(zero, y) == zero`` (`matrix.absorbs`): over ``nat``
always, over ``real`` while every value is finite, up to the sign of a
zero.  Over ``real``, ``0.0 * inf`` is nan: ``prod v . V`` and ``diag(u)``
can give nan desugared where an entry is inf.
"""

from __future__ import annotations

from . import ast
from .ast import (Add, Apply, Const, Diag, For, Hadamard, MatMul, MatrixType,
                  Ones, Prod, ScalarMul, Sum, Transpose, UNIT, Var)
from .errors import ArityMismatch, TypeCheckError, _echo
from .typecheck import _check, binder_types, type_in_env


class _Fresh:
    def __init__(self, taken):
        self.taken = set(taken)
        self.counter = 0

    def name(self, prefix):
        while True:
            self.counter += 1
            cand = f"{prefix}{self.counter}"
            if cand not in self.taken:
                self.taken.add(cand)
                return cand


def _ones_col(sym, fresh):
    if sym == UNIT:
        return Const(1)
    v, x = fresh.name("_v"), fresh.name("_acc")
    return For(v, x, Add(Var(x), Var(v)),
               var_sym=sym, acc_type=MatrixType(sym, UNIT))


def identity_template(sym, fresh):
    """Identity matrix as a core loop: sum of v * v^T over canonical vectors."""
    if sym == UNIT:
        return Const(1)
    v, x = fresh.name("_v"), fresh.name("_acc")
    return For(v, x, Add(Var(x), MatMul(Var(v), Transpose(Var(v)))),
               var_sym=sym, acc_type=MatrixType(sym, sym))


def allones_template(t, fresh):
    """All-ones matrix of type `t` built from ones-column loops."""
    if t.is_scalar:
        return Const(1)
    if t.cols == UNIT:
        return _ones_col(t.rows, fresh)
    if t.rows == UNIT:
        return Transpose(_ones_col(t.cols, fresh))
    return MatMul(_ones_col(t.rows, fresh), Transpose(_ones_col(t.cols, fresh)))


def _lowered(e, schema, rule):
    """`e` rewritten by the `drive` rule ``rule(node, env, fresh)``."""
    fresh = _Fresh({*schema.vars, *ast.free_vars(e), *ast.bound_names(e)})
    out, _ = ast.drive(e, dict(schema.vars),
                       lambda node, env: rule(node, env, fresh))
    return out


def desugar(e: ast.Expr, schema: ast.Schema) -> ast.Expr:
    """Lower all sugar nodes; the result contains only core constructs.

    A template reads the type of the body or argument it wraps from that
    child's outcome (`_typed`), without walking the child again."""
    return _lowered(e, schema, _desugar)


def _desugar(e, env, fresh):
    """The rewrite of `e` and its outcome in `env`.  A quantifier or
    ``diag`` whose body or argument does not type raises that error.
    ``ones`` types its argument in one walk and drops it unlowered."""
    if isinstance(e, Ones):
        t = type_in_env(e.arg, env)
        return _ones_col(t.rows, fresh), MatrixType(t.rows, UNIT)
    out, outcome, outcomes = yield from _typed(e, env)
    if not isinstance(e, (Sum, Prod, Hadamard, Diag)):
        return out, outcome
    t = _type_or_raise(outcomes[0])
    if isinstance(e, Diag):
        if t.rows == UNIT:
            return out.arg, outcome
        v, x = fresh.name("_v"), fresh.name("_acc")
        body = Add(Var(x), ScalarMul(MatMul(Transpose(Var(v)), out.arg),
                                     MatMul(Var(v), Transpose(Var(v)))))
        return For(v, x, body, var_sym=t.rows,
                   acc_type=MatrixType(t.rows, t.rows)), outcome
    acc = fresh.name("_acc")
    if isinstance(e, Sum):
        body, init = Add(Var(acc), out.body), None
    elif isinstance(e, Prod):
        body = MatMul(Var(acc), out.body)
        init = identity_template(t.rows, fresh)
    else:
        body = Apply("hprod2", (Var(acc), out.body))
        init = allones_template(t, fresh)
    return For(e.var, acc, body, init, e.var_sym, t), outcome


def reduce_apply_to_scalars(e: ast.Expr, schema: ast.Schema) -> ast.Expr:
    """Rewrite non-scalar pointwise applications to the double-sum form.

    An application reads its first argument's type from that argument's
    outcome (`_typed`), without walking the argument again."""
    return _lowered(e, schema, _reduce)


def _reduce(e, env, fresh):
    """The rewrite of `e` and its outcome in `env`.  An application whose
    first argument does not type raises that error."""
    if isinstance(e, Apply) and not e.args:
        raise ArityMismatch(
            f"function {_echo(e.func)} applied to no arguments")
    out, outcome, outcomes = yield from _typed(e, env)
    if not isinstance(e, Apply):
        return out, outcome
    t = _type_or_raise(outcomes[0])
    if t.is_scalar:
        return out, outcome
    return _scalarised_apply(e.func, out.args, t, fresh), outcome


def _typed(e, env):
    """For a `drive` rule that returns ``(rewrite, outcome)`` pairs: `e`
    rebuilt from its children's rewrites, its outcome in `env`, and its
    children's outcomes.  An outcome is what typing a node in its
    environment gives: its type, or the first type error `_check` raises."""
    inner = binder_types(e, env) if ast.binders(e) else env
    rebuild, reply, outcomes = ast.rebuilt(e, env, inner), None, []
    while True:
        try:
            child, child_env = rebuild.send(reply)
        except StopIteration as stop:
            return stop.value, _outcome(e, env, outcomes), outcomes
        reply, outcome = yield child, child_env
        outcomes.append(outcome)


def _type_or_raise(outcome):
    """`outcome` if it is a type; raised if it is an error."""
    if isinstance(outcome, TypeCheckError):
        raise outcome
    return outcome


def _outcome(e, env, outcomes):
    """What the type checker's rule gives for `e` in `env` when its children
    give `outcomes`, in the order it visits them."""
    check = _check(e, env)
    try:
        check.send(None)
        for got in outcomes:
            if isinstance(got, TypeCheckError):
                return got
            check.send(got)
    except StopIteration as stop:
        return stop.value
    except TypeCheckError as exc:
        return exc


def _scalarised_apply(func, args, t, fresh):
    if t.cols == UNIT:                       # column vector (alpha, 1)
        vi = fresh.name("_i")
        picked = tuple(MatMul(Transpose(Var(vi)), a) for a in args)
        return Sum(vi, ScalarMul(Apply(func, picked), Var(vi)),
                   var_sym=t.rows)
    if t.rows == UNIT:                       # row vector (1, beta)
        vj = fresh.name("_j")
        picked = tuple(MatMul(a, Var(vj)) for a in args)
        return Sum(vj, ScalarMul(Apply(func, picked), Transpose(Var(vj))),
                   var_sym=t.cols)
    vi, vj = fresh.name("_i"), fresh.name("_j")
    picked = tuple(MatMul(MatMul(Transpose(Var(vi)), a), Var(vj))
                   for a in args)
    inner = ScalarMul(Apply(func, picked), MatMul(Var(vi), Transpose(Var(vj))))
    return Sum(vi, Sum(vj, inner, var_sym=t.cols), var_sym=t.rows)
