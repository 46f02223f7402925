"""Commutative semirings and the five provided instances.

A semiring bundles carrier operations (plus, times), the two constants, a
parser/printer for carrier values in text, and an equality test.  The parser
is the one rule from text to carrier: it reads instance and relation files,
and an expression literal ``[c]`` is its printed text ``c`` read by it.
It may also define the pointwise functions ``div`` and ``gtz``; a semiring
that leaves one as None rejects it (see ``functions.resolve``).
The provided instances:

* ``real``     - double precision floats.
* ``nat``      - arbitrary-precision non-negative integers (exact).
* ``bool``     - {0, 1} with or/and.
* ``tropical`` - min-plus over the reals extended with +infinity
                 (zero = inf, one = 0.0).  A sum past the float range
                 reaches -inf, which it prints as the reals do.
* ``rational`` - exact fractions (`fractions.Fraction`).  Text is read as
                 an exact value: ``0.1`` is 1/10, not the nearest float, and
                 ``1/3`` is a third.

Equality is exact except over the reals, where an absolute tolerance is
honoured.  Floating addition is not associative, so order-sensitive laws are
only asserted over the exact semirings.

Instance, relation, schema and circuit files read their lines through
`records`, and the files with a carrier read its ``semiring NAME`` line
through `read_semiring_line`.  A count written in text (a dimension, a
tuple value, a gate index or position, a function's arity) becomes an int
only through `_count`, and a token quoted back in a message goes through
`errors._echo`, which cuts a long one short.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

from .errors import DivisionByZero, FormatError, MatforError, _echo


@dataclass(frozen=True)
class Semiring:
    name: str
    zero: Any
    one: Any
    plus: Callable[[Any, Any], Any]
    times: Callable[[Any, Any], Any]
    parse: Callable[[str], Any]
    fmt: Callable[[Any], str]
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


def _count(text, what, line=None):
    """The int `text` writes, else a `FormatError` that quotes it."""
    try:
        return int(text)
    except ValueError:
        raise FormatError(f"bad {what} {_echo(text)}", line) from None


def _parse_real(text):
    try:
        v = float(text)
    except ValueError:
        raise FormatError(f"not a real number: {_echo(text)}") from None
    if math.isnan(v):
        raise FormatError("NaN is not in the real carrier")
    return v


def _fmt_real(v):
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return "%.17g" % v


# Python refuses `int` of a string and `str` of an int past its int-string
# limit, which is never set below 640 digits, so a nat is read and printed
# in chunks of fewer digits.
_NAT_CHUNK_DIGITS = 600
_NAT_CHUNK = 10 ** _NAT_CHUNK_DIGITS


def _parse_nat(text):
    try:
        v = int(text)
    except ValueError:
        if not (text.isascii() and text.isdigit()):
            raise FormatError(
                f"not a natural number: {_echo(text)}") from None
        v = 0
        for i in range(0, len(text), _NAT_CHUNK_DIGITS):
            chunk = text[i:i + _NAT_CHUNK_DIGITS]
            v = v * 10 ** len(chunk) + int(chunk)
    if v < 0:
        raise FormatError(
            f"negative value {_echo(text)} is not a natural number")
    return v


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
    raise FormatError(
        f"boolean carrier admits only 0 and 1, got {_echo(text)}")


def _parse_tropical(text):
    if text == "inf":
        return math.inf
    v = _parse_real(text)
    if v == -math.inf:
        raise FormatError("-inf is not in the min-plus carrier")
    return v


def _div(x, y):
    try:
        return x / y
    except ZeroDivisionError:
        # no operand is printed: past the int-string limit a rational has
        # no `repr`
        raise DivisionByZero("division by zero") from None


def _gtz_real(x):
    return 1.0 if x > 0 else 0.0


# the forms `_fmt_rational` prints, read through `_parse_nat` so that they
# load back past the int-string limit
_RATIO = re.compile(r"(-?)(\d+)(?:/(\d+))?")


def _parse_rational(text):
    ratio = _RATIO.fullmatch(text)
    try:
        if ratio is not None:
            sign, num, den = ratio.groups()
            value = Fraction(_parse_nat(num), _parse_nat(den or "1"))
            return -value if sign else value
        # an exponent is spelt out as an exact power of ten, so a huge one
        # is refused before it is built
        _, e, exponent = text.lower().partition("e")
        if e and len(exponent.strip().lstrip("+-").lstrip("0")) > 4:
            raise ValueError(exponent)
        return Fraction(text)
    except (FormatError, ValueError, ZeroDivisionError):
        raise FormatError(f"not a rational number: {_echo(text)}") from None


def _fmt_rational(v):
    num = ("-" if v < 0 else "") + _fmt_nat(abs(v.numerator))
    return num if v.denominator == 1 else f"{num}/{_fmt_nat(v.denominator)}"


def _gtz_rational(x):
    return Fraction(1) if x > 0 else Fraction(0)


REAL = Semiring("real", 0.0, 1.0, operator.add, operator.mul,
                _parse_real, _fmt_real, _div, _gtz_real)

NAT = Semiring("nat", 0, 1, operator.add, operator.mul,
               _parse_nat, _fmt_nat)

BOOL = Semiring("bool", 0, 1, operator.or_, operator.and_,
                _parse_bool, str)

TROPICAL = Semiring("tropical", math.inf, 0.0, min, operator.add,
                    _parse_tropical, _fmt_real)

RATIONAL = Semiring("rational", Fraction(0), Fraction(1), operator.add,
                    operator.mul, _parse_rational, _fmt_rational, _div,
                    _gtz_rational)

SEMIRINGS = {sr.name: sr for sr in (REAL, NAT, BOOL, TROPICAL, RATIONAL)}


def by_name(name: str) -> Semiring:
    try:
        return SEMIRINGS[name]
    except KeyError:
        raise MatforError(
            f"unknown semiring {_echo(name)} (available: "
            f"{', '.join(sorted(SEMIRINGS))})") from None


def records(text):
    """The one line rule of instance, relation, schema and circuit files:
    `#` starts a comment, and a line that holds nothing else is skipped.
    Yields (line number, text stripped of its comment and blanks)."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def read_semiring_line(parts, lineno, late, blocks):
    """The semiring a file's ``semiring NAME`` line names (split in `parts`);
    `late` tells that one of the file's `blocks` has come before it."""
    if len(parts) != 2:
        raise FormatError("expected: semiring NAME", lineno)
    if late:
        raise FormatError(
            f"a 'semiring' line must precede {blocks} blocks", lineno)
    try:
        return by_name(parts[1])
    except MatforError as exc:
        raise FormatError(str(exc), lineno) from None
