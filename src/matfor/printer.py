"""Pretty-printer emitting the concrete syntax with minimal parentheses.

`parse_expr(pretty(e))` is structurally equal to `e` (spans aside) for every
expression the parser can produce.  Loop-binder type annotations have no
concrete syntax; they are internal normal forms, so annotated trees print
the same as their unannotated counterparts.
"""

from __future__ import annotations

import math

from .ast import (Add, Apply, Const, Diag, Expr, For, Hadamard, MatMul, Ones,
                  OrderPrim, Prod, ScalarMul, Sum, Transpose, Var, drive)
from .semiring import _fmt_nat

_BINDER, _ADD, _SCAL, _MUL, _POST, _ATOM = range(6)


def _literal(value) -> str:
    """The text of a literal, which every semiring's ``parse`` reads as the
    carrier element the literal denotes."""
    if value.__class__ is int:
        return ("-" if value < 0 else "") + _fmt_nat(abs(value))
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return repr(value)


def pretty(e: Expr) -> str:
    return drive(e, _BINDER, _pp)


def _pp(e, min_level):
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Const):
        return f"[{_literal(e.value)}]"
    if isinstance(e, OrderPrim):
        return f"{e.kind.value}[{e.sym}]"
    if isinstance(e, Apply):
        args = []
        for a in e.args:
            args.append((yield a, _BINDER))
        return f"{e.func}({', '.join(args)})"
    if isinstance(e, Ones):
        return f"ones({(yield e.arg, _BINDER)})"
    if isinstance(e, Diag):
        return f"diag({(yield e.arg, _BINDER)})"
    if isinstance(e, Transpose):
        return _wrap(f"{(yield e.arg, _POST)}^T", _POST, min_level)
    if isinstance(e, MatMul):
        s = f"{(yield e.left, _MUL)} * {(yield e.right, _MUL + 1)}"
        return _wrap(s, _MUL, min_level)
    if isinstance(e, ScalarMul):
        s = f"{(yield e.scalar, _SCAL)} .* {(yield e.arg, _SCAL + 1)}"
        return _wrap(s, _SCAL, min_level)
    if isinstance(e, Add):
        s = f"{(yield e.left, _ADD)} + {(yield e.right, _ADD + 1)}"
        return _wrap(s, _ADD, min_level)
    if isinstance(e, For):
        head = f"for {e.var}, {e.acc}"
        if e.init is not None:
            head += f" = {(yield e.init, _ADD)}"
        return _wrap(f"{head} . {(yield e.body, _BINDER)}", _BINDER, min_level)
    if isinstance(e, (Sum, Prod, Hadamard)):
        kw = {Sum: "sum", Prod: "prod", Hadamard: "hprod"}[type(e)]
        return _wrap(f"{kw} {e.var} . {(yield e.body, _BINDER)}",
                     _BINDER, min_level)
    raise TypeError(f"not an expression node: {e!r}")


def _wrap(s, level, min_level):
    return f"({s})" if level < min_level else s
