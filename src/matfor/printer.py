"""Pretty-printer emitting the concrete syntax with minimal parentheses.

`parse_expr(pretty(e))` is structurally equal to `e` (spans aside) for every
expression the parser can produce.  Loop-binder type annotations have no
concrete syntax; they are internal normal forms, so annotated trees print
the same as their unannotated counterparts.
"""

from __future__ import annotations

import math

from .ast import (Apply, Const, Expr, For, OrderPrim, Transpose, Var, children,
                  drive)
from .parser import CALLS, INFIX, QUANTIFIERS
from .semiring import _fmt_nat

# levels, loosest first: binders, the `INFIX` operators, then ``^T``
_BINDER, _POST = 0, len(INFIX) + 1
_INFIX = {cls: (level, text) for level, (cls, _, text) in enumerate(INFIX, 1)}
_QUANTIFIERS = {cls: kw for kw, cls in QUANTIFIERS.items()}
_CALLS = {cls: name for name, cls in CALLS.items()}


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
    if e.__class__ in _CALLS:
        return f"{_CALLS[e.__class__]}({(yield e.arg, _BINDER)})"
    if isinstance(e, Transpose):
        return _wrap(f"{(yield e.arg, _POST)}^T", _POST, min_level)
    if e.__class__ in _INFIX:
        level, op = _INFIX[e.__class__]
        left, right = children(e)
        s = f"{(yield left, level)} {op} {(yield right, level + 1)}"
        return _wrap(s, level, min_level)
    if isinstance(e, For):
        head = f"for {e.var}, {e.acc}"
        if e.init is not None:
            head += f" = {(yield e.init, _BINDER + 1)}"
        return _wrap(f"{head} . {(yield e.body, _BINDER)}", _BINDER, min_level)
    if e.__class__ in _QUANTIFIERS:
        return _wrap(f"{_QUANTIFIERS[e.__class__]} {e.var} . "
                     f"{(yield e.body, _BINDER)}", _BINDER, min_level)
    raise TypeError(f"not an expression node: {e!r}")


def _wrap(s, level, min_level):
    return f"({s})" if level < min_level else s
