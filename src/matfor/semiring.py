"""Commutative semirings and the four provided instances.

A semiring bundles carrier operations (plus, times), the two constants, a
parser/printer for carrier values in text formats, and an equality test.
It may also define the pointwise functions ``div`` and ``gtz``; a semiring
that leaves one as None rejects it (see ``functions.resolve``).
The provided instances:

* ``real``     - double precision floats.
* ``nat``      - arbitrary-precision non-negative integers (exact).
* ``bool``     - {0, 1} with or/and.
* ``tropical`` - min-plus over the reals extended with +infinity
                 (zero = inf, one = 0.0).

Equality is exact except over the reals, where an absolute tolerance is
honoured.  Floating addition is not associative, so order-sensitive laws are
only asserted over the exact semirings.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .errors import DivisionByZero, FormatError, MatforError


@dataclass(frozen=True)
class Semiring:
    name: str
    zero: Any
    one: Any
    plus: Callable[[Any, Any], Any]
    times: Callable[[Any, Any], Any]
    parse: Callable[[str], Any]
    fmt: Callable[[Any], str]
    from_literal: Callable[[Any], Any]
    div: Optional[Callable[[Any, Any], Any]] = None
    gtz: Optional[Callable[[Any], Any]] = None

    def eq(self, a, b, tol=0.0):
        if self.name == "real" and tol > 0.0:
            if math.isinf(a) or math.isinf(b):
                return a == b
            return abs(a - b) <= tol
        return a == b

    def __repr__(self):
        return f"Semiring({self.name})"


def _parse_real(text):
    try:
        v = float(text)
    except ValueError:
        raise FormatError(f"not a real number: {text!r}") from None
    if math.isnan(v):
        raise FormatError("NaN is not in the real carrier")
    return v


def _fmt_real(v):
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return "%.17g" % v


def _parse_nat(text):
    try:
        v = int(text)
    except ValueError:
        raise FormatError(f"not a natural number: {text!r}") from None
    if v < 0:
        raise FormatError(f"negative value {v} is not a natural number")
    return v


# Python refuses `str` of an int past its int-string limit, which is never
# set below 640 digits, so a nat is printed in chunks of fewer digits.
_NAT_CHUNK_DIGITS = 600
_NAT_CHUNK = 10 ** _NAT_CHUNK_DIGITS


def _fmt_nat(v):
    chunks = []
    while v >= _NAT_CHUNK:
        v, r = divmod(v, _NAT_CHUNK)
        chunks.append(str(r).zfill(_NAT_CHUNK_DIGITS))
    chunks.append(str(v))
    return "".join(reversed(chunks))


def _parse_bool(text):
    if text == "0":
        return 0
    if text == "1":
        return 1
    raise FormatError(f"boolean carrier admits only 0 and 1, got {text!r}")


def _parse_tropical(text):
    if text == "inf":
        return math.inf
    v = _parse_real(text)
    if v == -math.inf:
        raise FormatError("-inf is not in the min-plus carrier")
    return v


def _fmt_tropical(v):
    return "inf" if math.isinf(v) else "%.17g" % v


def _div_real(x, y):
    try:
        return x / y
    except ZeroDivisionError:
        raise DivisionByZero(f"division by zero: {x!r} / {y!r}") from None


def _gtz_real(x):
    return 1.0 if x > 0 else 0.0


def _real_literal(v):
    return float(v)


def _nat_literal(v):
    if isinstance(v, int) and v >= 0:
        return v
    raise FormatError(f"literal {v!r} is not a natural number")


def _bool_literal(v):
    if v in (0, 1):
        return int(v)
    raise FormatError(f"literal {v!r} is not a boolean")


def _tropical_literal(v):
    v = float(v)
    if v == -math.inf or math.isnan(v):
        raise FormatError(f"literal {v!r} is not in the min-plus carrier")
    return v


REAL = Semiring("real", 0.0, 1.0, operator.add, operator.mul,
                _parse_real, _fmt_real, _real_literal, _div_real, _gtz_real)

NAT = Semiring("nat", 0, 1, operator.add, operator.mul,
               _parse_nat, _fmt_nat, _nat_literal)

BOOL = Semiring("bool", 0, 1, operator.or_, operator.and_,
                _parse_bool, str, _bool_literal)

TROPICAL = Semiring("tropical", math.inf, 0.0, min, operator.add,
                    _parse_tropical, _fmt_tropical, _tropical_literal)

SEMIRINGS = {sr.name: sr for sr in (REAL, NAT, BOOL, TROPICAL)}


def by_name(name: str) -> Semiring:
    try:
        return SEMIRINGS[name]
    except KeyError:
        raise MatforError(
            f"unknown semiring '{name}' (available: "
            f"{', '.join(sorted(SEMIRINGS))})") from None
