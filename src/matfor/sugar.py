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

Fresh accumulator/iterator names use an underscore-and-counter scheme and
are guaranteed not to collide with schema names or names appearing in the
expression.  Fresh binders carry inline type annotations, so the schema
itself never has to change.  Both passes preserve types and semantics and
are idempotent.
"""

from __future__ import annotations

from . import ast
from .ast import (Add, Apply, Const, Diag, For, Hadamard, MatMul, MatrixType,
                  Ones, Prod, ScalarMul, Sum, Transpose, UNIT, Var)
from .errors import ArityMismatch
from .typecheck import binder_types, type_in_env


class _Fresh:
    def __init__(self, e, schema):
        self.taken = set(schema.vars) | ast.free_vars(e) | ast.bound_names(e)
        self.counter = 0

    def name(self, base):
        while True:
            self.counter += 1
            cand = f"_{base}{self.counter}"
            if cand not in self.taken:
                self.taken.add(cand)
                return cand


def _ones_col(sym, fresh):
    if sym == UNIT:
        return Const(1)
    v, x = fresh.name("v"), fresh.name("acc")
    return For(v, x, Add(Var(x), Var(v)),
               var_sym=sym, acc_type=MatrixType(sym, UNIT))


def identity_template(sym, fresh):
    """Identity matrix as a core loop: sum of v * v^T over canonical vectors."""
    if sym == UNIT:
        return Const(1)
    v, x = fresh.name("v"), fresh.name("acc")
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


def desugar(e: ast.Expr, schema: ast.Schema) -> ast.Expr:
    """Lower all sugar nodes; the result contains only core constructs."""
    fresh = _Fresh(e, schema)
    return ast.drive(e, dict(schema.vars),
                     lambda node, env: _desugar(node, env, fresh))


def _desugar(e, env, fresh):
    if isinstance(e, (Sum, Prod, Hadamard)):
        inner = binder_types(e, env)
        body = yield e.body, inner
        body_t = type_in_env(body, inner)
        acc = fresh.name("acc")
        if isinstance(e, Sum):
            return For(e.var, acc, Add(Var(acc), body),
                       var_sym=e.var_sym, acc_type=body_t)
        if isinstance(e, Prod):
            return For(e.var, acc, MatMul(Var(acc), body),
                       init=identity_template(body_t.rows, fresh),
                       var_sym=e.var_sym, acc_type=body_t)
        return For(e.var, acc, Apply("hprod2", (Var(acc), body)),
                   init=allones_template(body_t, fresh),
                   var_sym=e.var_sym, acc_type=body_t)

    if isinstance(e, Ones):
        t = type_in_env(e.arg, env)
        return _ones_col(t.rows, fresh)

    if isinstance(e, Diag):
        arg = yield e.arg, env
        t = type_in_env(e.arg, env)
        if t.rows == UNIT:
            return arg
        v, x = fresh.name("v"), fresh.name("acc")
        body = Add(Var(x), ScalarMul(MatMul(Transpose(Var(v)), arg),
                                     MatMul(Var(v), Transpose(Var(v)))))
        return For(v, x, body, var_sym=t.rows, acc_type=MatrixType(t.rows, t.rows))

    inner = binder_types(e, env) if isinstance(e, For) else env
    return (yield from ast.rebuilt(e, env, inner))


def reduce_apply_to_scalars(e: ast.Expr, schema: ast.Schema) -> ast.Expr:
    """Rewrite non-scalar pointwise applications to the double-sum form."""
    fresh = _Fresh(e, schema)
    return ast.drive(e, dict(schema.vars),
                     lambda node, env: _reduce(node, env, fresh))


def _reduce(e, env, fresh):
    if isinstance(e, Apply) and not e.args:
        raise ArityMismatch(f"function '{e.func}' applied to no arguments")
    loop = isinstance(e, (For, Sum, Prod, Hadamard))
    out = yield from ast.rebuilt(e, env, binder_types(e, env) if loop else env)
    if not isinstance(e, Apply):
        return out
    t = type_in_env(e.args[0], env)
    if t.is_scalar:
        return out
    return _scalarised_apply(e.func, out.args, t, fresh)


def _scalarised_apply(func, args, t, fresh):
    if t.cols == UNIT:                       # column vector (alpha, 1)
        vi = fresh.name("i")
        picked = tuple(MatMul(Transpose(Var(vi)), a) for a in args)
        return Sum(vi, ScalarMul(Apply(func, picked), Var(vi)),
                   var_sym=t.rows)
    if t.rows == UNIT:                       # row vector (1, beta)
        vj = fresh.name("j")
        picked = tuple(MatMul(a, Var(vj)) for a in args)
        return Sum(vj, ScalarMul(Apply(func, picked), Transpose(Var(vj))),
                   var_sym=t.cols)
    vi, vj = fresh.name("i"), fresh.name("j")
    picked = tuple(MatMul(MatMul(Transpose(Var(vi)), a), Var(vj))
                   for a in args)
    inner = ScalarMul(Apply(func, picked), MatMul(Var(vi), Transpose(Var(vj))))
    return Sum(vi, Sum(vj, inner, var_sym=t.cols), var_sym=t.rows)
