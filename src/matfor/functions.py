"""Pointwise scalar functions and how their names resolve over a semiring.

Built-ins:

* ``div``  - binary division, over a semiring that defines ``div`` (``real``,
  ``rational`` and the gate-building semiring of ``circuit_compile``).
* ``gtz``  - strictly-positive indicator, over a semiring that defines
  ``gtz`` (``real`` and ``rational``).
* ``hprodN`` / ``hsumN`` for every N >= 1 - N-fold semiring product / sum,
  available over every semiring.  These give pointwise (Hadamard-style)
  combination of equally shaped matrices; ``hprod2`` is the binary
  pointwise product used by the Hadamard quantifier's desugaring.  N has
  at most 18 digits, as no argument list is longer; a name with a longer N
  is an unknown function.

Unknown names parse fine and only fail here at evaluation time, which keeps
the parser independent of the set of functions.
"""

from __future__ import annotations

import re
from functools import reduce
from typing import Callable, Optional

from .errors import FunctionUnavailableForSemiring, UnknownFunction, _echo
from .semiring import _count

_POINTWISE = re.compile(r"(hprod|hsum)([1-9][0-9]{0,17})")

#: arity of each function that is a field of `Semiring`
_FIXED = {"div": 2, "gtz": 1}


def pointwise(name: str) -> Optional[tuple[str, int]]:
    """``("hprod", N)`` or ``("hsum", N)`` for a pointwise family name,
    None for any other name."""
    m = _POINTWISE.fullmatch(name)
    return (m.group(1), _count(m.group(2), "arity")) if m else None


def builtin_arity(name: str) -> Optional[int]:
    """Arity of a built-in name, or None when the name is not built in."""
    if name in _FIXED:
        return _FIXED[name]
    p = pointwise(name)
    return p[1] if p else None


def resolve(name: str, sr) -> tuple[int, Callable]:
    """Arity and implementation of function `name` over semiring `sr`.

    The implementation takes and returns carrier values.
    """
    p = pointwise(name)
    if p is not None:
        kind, arity = p
        op, unit = ((sr.times, sr.one) if kind == "hprod"
                    else (sr.plus, sr.zero))
        return arity, lambda *xs: reduce(op, xs, unit)
    if name not in _FIXED:
        raise UnknownFunction(f"unknown function {_echo(name)}")
    impl = getattr(sr, name)
    if impl is None:
        raise FunctionUnavailableForSemiring(
            f"function {_echo(name)} is not available over the "
            f"{sr.name} semiring")
    return _FIXED[name], impl
