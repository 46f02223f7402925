"""Type checker for expressions against a schema.

Typing is deterministic: every well-typed expression has exactly one type.
Loop iterators must have type (gamma, 1) for a non-unit symbol gamma; loop
bodies must preserve the accumulator type.  Pointwise applications require
all arguments to share one type, which is also the result type.
"""

from __future__ import annotations

from . import ast
from .ast import (Add, Apply, Const, Diag, For, Hadamard, MatMul, MatrixType,
                  Ones, OrderKind, OrderPrim, Prod, ScalarMul, Sum, Transpose,
                  UNIT, Var)
from .errors import (ArityMismatch, IteratorNotVector, TypeMismatch,
                     UnboundVariable, _echo)
from .functions import builtin_arity


def typecheck(e: ast.Expr, schema: ast.Schema) -> MatrixType:
    """Return the unique type of `e`, or raise a TypeCheckError subclass."""
    return ast.drive(e, dict(schema.vars), _check)


def type_in_env(e: ast.Expr, env: dict[str, MatrixType]) -> MatrixType:
    """Type of `e` under an explicit variable-type environment.  A pass that
    rewrites a tree types it on the way instead, from each node's children's
    outcomes (`sugar._typed`)."""
    return ast.drive(e, env, _check)


def iterator_type(loop, env) -> MatrixType:
    """Type of the iterator of a loop or quantifier: from its ``var_sym``
    annotation if it has one, else from `env`."""
    if loop.var_sym is not None:
        return MatrixType(loop.var_sym, UNIT)
    if loop.var in env:
        return env[loop.var]
    raise UnboundVariable(loop.var)


def binder_types(loop, env) -> dict[str, MatrixType]:
    """The environment of the body of a loop or quantifier: `env` with its
    iterator and, for a ``for`` loop, its accumulator bound to their types,
    from the loop's annotations, else from `env` (the enclosing binders over
    the schema), the iterator first.  This is the one binder rule: typecheck,
    desugar and the evaluator, over its build scope's sizes, all use it."""
    inner = {**env, loop.var: iterator_type(loop, env)}
    if isinstance(loop, For):
        if loop.acc_type is None and loop.acc not in env:
            raise UnboundVariable(loop.acc)
        inner[loop.acc] = loop.acc_type or env[loop.acc]
    return inner


def _vector_iterator_type(loop, env):
    t = iterator_type(loop, env)
    if t.cols != UNIT or t.rows == UNIT:
        raise IteratorNotVector(
            f"loop iterator {_echo(loop.var)} must have type (gamma, 1) with "
            f"gamma != 1, got {t}")
    return t


def _check(e, env):
    if isinstance(e, Var):
        if e.name not in env:
            raise UnboundVariable(e.name)
        return env[e.name]

    if isinstance(e, Const):
        return ast.SCALAR

    if isinstance(e, Transpose):
        return (yield e.arg, env).transposed()

    if isinstance(e, MatMul):
        lt = yield e.left, env
        rt = yield e.right, env
        if lt.cols != rt.rows:
            raise TypeMismatch(
                f"matrix product needs matching inner symbols: {lt} vs {rt}")
        return MatrixType(lt.rows, rt.cols)

    if isinstance(e, Add):
        lt = yield e.left, env
        rt = yield e.right, env
        if lt != rt:
            raise TypeMismatch(f"addition needs equal types: {lt} vs {rt}")
        return lt

    if isinstance(e, ScalarMul):
        st = yield e.scalar, env
        if not st.is_scalar:
            raise TypeMismatch(
                f"scalar product needs a (1, 1) left operand, got {st}")
        return (yield e.arg, env)

    if isinstance(e, Apply):
        if not e.args:
            raise ArityMismatch(
                f"function {_echo(e.func)} applied to no arguments")
        arity = builtin_arity(e.func)
        if arity is not None and arity != len(e.args):
            raise ArityMismatch(
                f"function {_echo(e.func)} expects {arity} arguments, "
                f"got {len(e.args)}")
        t0 = yield e.args[0], env
        for a in e.args[1:]:
            t = yield a, env
            if t != t0:
                raise TypeMismatch(
                    f"pointwise application needs one common argument type: "
                    f"{t0} vs {t}")
        return t0

    if isinstance(e, For):
        _vector_iterator_type(e, env)
        inner = binder_types(e, env)
        acc_t = inner[e.acc]
        if e.init is not None:
            it = yield e.init, env
            if it != acc_t:
                raise TypeMismatch(
                    f"loop initialiser type {it} differs from accumulator "
                    f"type {acc_t}")
        bt = yield e.body, inner
        if bt != acc_t:
            raise TypeMismatch(
                f"loop body type {bt} differs from accumulator type {acc_t}")
        return acc_t

    if isinstance(e, (Sum, Prod, Hadamard)):
        _vector_iterator_type(e, env)
        bt = yield e.body, binder_types(e, env)
        if isinstance(e, Prod) and bt.rows != bt.cols:
            raise TypeMismatch(
                f"prod quantifier needs a square or scalar body, got {bt}")
        return bt

    if isinstance(e, Ones):
        t = yield e.arg, env
        return MatrixType(t.rows, UNIT)

    if isinstance(e, Diag):
        t = yield e.arg, env
        if t.cols != UNIT:
            raise TypeMismatch(
                f"diag needs a column vector argument, got {t}")
        return MatrixType(t.rows, t.rows)

    if isinstance(e, OrderPrim):
        if e.kind in (OrderKind.SLESS, OrderKind.NSHIFT):
            return MatrixType(e.sym, e.sym)
        return MatrixType(e.sym, UNIT)

    raise TypeError(f"not an expression node: {e!r}")
