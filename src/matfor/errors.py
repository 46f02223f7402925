"""Exception hierarchy shared by all matfor modules.

Every error raised on purpose derives from MatforError so callers (and the
CLI) can distinguish our diagnostics from genuine bugs.  Evaluation errors
carry a context trail (which loop iteration was running) that the evaluator
appends as exceptions propagate outward.
"""

from __future__ import annotations


def _echo(text, quote=repr):
    """`text` quoted by `quote` for an error message, cut short if it is
    long; ``quote=str`` prints a number or a size symbol as it is."""
    text = str(text)
    return quote(text) if len(text) <= 40 else f"{quote(text[:37])}..."


#: how many names `_echo_names` prints before it counts the rest
_ECHO_NAMES = 8


def _echo_names(names):
    """The sorted `names` printed as a list, each through `_echo`; past the
    first `_ECHO_NAMES` only the number of the rest is printed."""
    names = sorted(names)
    shown = ", ".join(map(_echo, names[:_ECHO_NAMES]))
    rest = len(names) - _ECHO_NAMES
    return f"[{shown}, ... {rest} more]" if rest > 0 else f"[{shown}]"


class MatforError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# Parsing / schema errors


class ParseError(MatforError):
    """Syntax error with a source span and the set of expected tokens."""

    def __init__(self, message, span=None, expected=()):
        super().__init__(message)
        self.span = span
        self.expected = frozenset(expected)

    def __str__(self):
        base = super().__str__()
        if self.span is not None:
            base = f"{self.span}: {base}"
        if self.expected:
            base += " (expected: " + ", ".join(sorted(self.expected)) + ")"
        return base


class DuplicateVariable(MatforError):
    pass


class FormatError(MatforError):
    """Malformed instance / relation / circuit file; carries a line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ShapeError(MatforError):
    pass


# ---------------------------------------------------------------------------
# Type checking


class TypeCheckError(MatforError):
    pass


class UnboundVariable(TypeCheckError):
    def __init__(self, name):
        super().__init__(f"unbound variable {_echo(name)}")
        self.name = name


class TypeMismatch(TypeCheckError):
    pass


class IteratorNotVector(TypeCheckError):
    pass


class ArityMismatch(TypeCheckError):
    pass


# ---------------------------------------------------------------------------
# Evaluation


class EvalError(MatforError):
    """Runtime evaluation failure; collects loop context as it propagates."""

    def __init__(self, message):
        super().__init__(message)
        self.context = []

    def add_context(self, note):
        self.context.append(note)

    def __str__(self):
        base = super().__str__()
        if self.context:
            base += " [" + "; ".join(self.context) + "]"
        return base


class DivisionByZero(EvalError):
    pass


class UnknownFunction(EvalError):
    pass


class FunctionUnavailableForSemiring(EvalError):
    pass


class MissingDimension(EvalError):
    pass


class ShapeMismatch(EvalError):
    pass


class IndexOutOfRange(EvalError):
    pass


# ---------------------------------------------------------------------------
# Relational algebra and the bridge translations


class RelalgError(MatforError):
    pass


class SignatureViolation(RelalgError):
    pass


class UnknownRelation(RelalgError):
    pass


class SchemaNotBinary(RelalgError):
    pass


class OutputArityTooLarge(RelalgError):
    pass


class EmptyActiveDomain(RelalgError):
    pass


class NotInSumFragment(MatforError):
    pass


class UnsupportedFunction(MatforError):
    """Function outside the translatable / compilable set (e.g. gtz)."""


# ---------------------------------------------------------------------------
# Circuits


class CircuitError(MatforError):
    pass


class MissingInput(CircuitError):
    pass


class UnassignedSymbol(CircuitError):
    pass


class UnsupportedConstant(CircuitError):
    """A literal that cannot be synthesised from 0/1 with +, *, /."""
