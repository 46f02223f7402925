"""Syntactic classification of expressions into the loop-fragment hierarchy.

Fragments are linearly ordered::

    CORE < SUM < FO < PROD < FULL

CORE has no loops at all.  A loop counts towards SUM when it is additive
(the ``sum`` quantifier, or a raw loop with no initialiser whose body adds
something independent of the accumulator to the accumulator), towards FO
when it is a pointwise-product fold started from the all-ones matrix, and
towards PROD when it is a matrix-product fold started from the identity
with the accumulator on the left.  Anything else makes the expression FULL.

Recognition is purely syntactic; no attempt is made to prove a FULL loop
semantically equivalent to a recognisable one.  Addition commutes, so both
argument orders of the additive body are accepted; matrix product does not,
so only `acc * e` matches the product pattern.
"""

from __future__ import annotations

import enum

from .ast import (Add, Apply, Const, Expr, For, Hadamard, MatMul, Ones, Prod,
                  Sum, Transpose, Var, children, node_table)


class Fragment(enum.IntEnum):
    CORE = 0
    SUM = 1
    FO = 2
    PROD = 3
    FULL = 4

    def __str__(self):
        return self.name.lower()


class LoopPattern(enum.Enum):
    SIGMA = "sigma"
    PI = "pi"
    HADAMARD = "hadamard"
    GENERAL = "general"


def _is_outer_product_body(body, var):
    return (isinstance(body, MatMul)
            and body.left == Var(var)
            and isinstance(body.right, Transpose)
            and body.right.arg == Var(var))


def is_identity_expr(e: Expr) -> bool:
    """Recognise the identity-matrix templates (sugar or lowered form)."""
    if e == Const(1):
        return True
    if isinstance(e, Sum):
        return _is_outer_product_body(e.body, e.var)
    if isinstance(e, For) and e.init is None and isinstance(e.body, Add):
        for acc_side, other in ((e.body.left, e.body.right),
                                (e.body.right, e.body.left)):
            if acc_side == Var(e.acc) and _is_outer_product_body(other, e.var):
                return True
    return False


def _is_ones_column(e: Expr) -> bool:
    if isinstance(e, Ones):
        return True
    if isinstance(e, Sum):
        return e.body == Var(e.var)
    if isinstance(e, For) and e.init is None and isinstance(e.body, Add):
        pair = {e.body.left, e.body.right}
        return pair == {Var(e.acc), Var(e.var)}
    return False


def is_allones_expr(e: Expr) -> bool:
    """Recognise the all-ones templates of any shape."""
    if e == Const(1) or _is_ones_column(e):
        return True
    if isinstance(e, Transpose):
        return _is_ones_column(e.arg)
    if isinstance(e, MatMul):
        return (_is_ones_column(e.left)
                and isinstance(e.right, Transpose)
                and _is_ones_column(e.right.arg))
    return False


def recognize_loop_pattern(loop: For, table=None) -> LoopPattern:
    """Match a raw loop against the three quantifier templates; `table` is
    the ``node_table`` of a tree that holds `loop`, if there is one."""
    if not isinstance(loop, For):
        raise TypeError("recognize_loop_pattern expects a For node")
    if table is None:
        table = node_table(loop)
    acc = Var(loop.acc)
    if loop.init is None and isinstance(loop.body, Add):
        for acc_side, other in ((loop.body.left, loop.body.right),
                                (loop.body.right, loop.body.left)):
            if acc_side == acc and loop.acc not in table[id(other)][1]:
                return LoopPattern.SIGMA
    if (loop.init is not None and is_identity_expr(loop.init)
            and isinstance(loop.body, MatMul)
            and loop.body.left == acc
            and loop.acc not in table[id(loop.body.right)][1]):
        return LoopPattern.PI
    if (loop.init is not None and is_allones_expr(loop.init)
            and isinstance(loop.body, Apply)
            and loop.body.func == "hprod2" and len(loop.body.args) == 2):
        for acc_side, other in (loop.body.args, loop.body.args[::-1]):
            if acc_side == acc and loop.acc not in table[id(other)][1]:
                return LoopPattern.HADAMARD
    return LoopPattern.GENERAL


_PATTERN_TIER = {
    LoopPattern.SIGMA: Fragment.SUM,
    LoopPattern.HADAMARD: Fragment.FO,
    LoopPattern.PI: Fragment.PROD,
    LoopPattern.GENERAL: Fragment.FULL,
}


def classify(e: Expr) -> Fragment:
    """Least fragment containing the expression."""
    tier = Fragment.CORE
    table = node_table(e)
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Sum):
            tier = max(tier, Fragment.SUM)
        elif isinstance(node, Hadamard):
            tier = max(tier, Fragment.FO)
        elif isinstance(node, Prod):
            tier = max(tier, Fragment.PROD)
        elif isinstance(node, For):
            pattern = recognize_loop_pattern(node, table)
            tier = max(tier, _PATTERN_TIER[pattern])
        if tier is Fragment.FULL:
            return tier
        stack.extend(children(node))
    return tier
