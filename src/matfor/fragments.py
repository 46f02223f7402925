"""Syntactic classification of expressions into the loop-fragment hierarchy.

Fragments are linearly ordered::

    CORE < SUM < FO < PROD < FULL

CORE has no loops at all.  A loop counts towards SUM when it is the paper's
``Σv.e := for v, X . X + e``, as `ast.summand` finds it: the ``sum``
quantifier, or a raw loop with no initialiser whose body adds a term free
of the accumulator to the accumulator.  It counts towards FO when it is a
pointwise-product fold started from the all-ones matrix, and towards PROD
when it is a matrix-product fold started from the identity with the
accumulator on the left.  Anything else makes the expression FULL.

Recognition is purely syntactic; no attempt is made to prove a FULL loop
semantically equivalent to a recognisable one.  Addition and the pointwise
product commute, so both argument orders are accepted; matrix product does
not, so only `acc * e` matches the product pattern.
"""

from __future__ import annotations

import enum

from .ast import (Apply, Const, Expr, For, Hadamard, MatMul, Ones, Prod,
                  Transpose, Var, distinct, node_table, paired, summand)


class Fragment(enum.IntEnum):
    CORE = 0
    SUM = 1
    FO = 2
    PROD = 3
    FULL = 4

    def __str__(self):
        return self.name.lower()


def _is_var(e, name):
    return e.__class__ is Var and e.name == name


def _is_identity(e, table):
    """The identity-matrix templates: ``[1]`` or ``Σj. j * j^T``."""
    t = summand(e, table)
    return (e.__class__ is Const and e.value == 1) or (
        t.__class__ is MatMul and _is_var(t.left, e.var)
        and t.right.__class__ is Transpose and _is_var(t.right.arg, e.var))


def _is_ones_column(e, table):
    t = summand(e, table)
    return e.__class__ is Ones or (t.__class__ is Var and t.name == e.var)


def _is_allones(e, table):
    """The all-ones templates of any shape."""
    if _is_ones_column(e, table) or e.__class__ is Const and e.value == 1:
        return True
    if e.__class__ is Transpose:
        return _is_ones_column(e.arg, table)
    return (e.__class__ is MatMul and _is_ones_column(e.left, table)
            and e.right.__class__ is Transpose
            and _is_ones_column(e.right.arg, table))


def _fragment(node, table) -> Fragment:
    """The least fragment of a node's own construct, its children aside."""
    if summand(node, table) is not None:
        return Fragment.SUM
    if node.__class__ is not For:
        return {Hadamard: Fragment.FO, Prod: Fragment.PROD}.get(
            node.__class__, Fragment.CORE)
    body, init, acc = node.body, node.init, node.acc
    if init is None:
        return Fragment.FULL
    if (body.__class__ is MatMul and _is_identity(init, table)
            and paired(acc, (body.left, body.right), table) is body.right):
        return Fragment.PROD
    if (body.__class__ is Apply and body.func == "hprod2"
            and len(body.args) == 2 and _is_allones(init, table)
            and paired(acc, body.args, table) is not None):
        return Fragment.FO
    return Fragment.FULL


def classify(e: Expr) -> Fragment:
    """Least fragment containing the expression."""
    table = node_table(e)
    return max(_fragment(node, table) for node in distinct(e))
