"""Concrete syntax for expressions and schemas.

Expression grammar, loosest binding last::

    e      ::= binder | add
    binder ::= "for" ID "," ID ["=" add] "." e
             | ("sum" | "prod" | "hprod") ID "." e
    add    ::= scal { "+" scal }
    scal   ::= mul { ".*" mul }
    mul    ::= post { "*" post }
    post   ::= atom { "^T" }
    atom   ::= "(" e ")" | "[" literal "]"
             | ("Sless" | "Emin" | "Emax" | "Nshift") "[" ID "]"
             | ("ones" | "diag") "(" e ")"
             | ID "(" e { "," e } ")" | ID

All binary operators associate to the left.  `literal` is a decimal number
with optional sign, fraction and exponent, or `inf`.  Function names are
plain identifiers; `functions.resolve` looks them up at evaluation time,
not here.

The rules run on `ast.drive`, so text of any depth parses without Python
stack in proportion to its nesting.  The three binary levels and the
``^T`` suffixes are one loop over a stack of pending operators, which
takes precedence from the `INFIX` table that `printer.pretty` also reads.

`relalg.parse_ra` reads relational expressions from the same tokens.  The
arrow ``->`` of its renamings is a token of its own, which no rule above
accepts.

Schemas are line based: ``var NAME : SYM x SYM`` where SYM is an identifier
or `1`; `#` starts a comment.  The letter `x` is the dimension separator and
is therefore not usable as a size-symbol name in schema files.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .ast import (Add, Apply, Const, Diag, Expr, For, Hadamard, MatMul,
                  MatrixType, Ones, OrderKind, OrderPrim, Prod, Schema,
                  ScalarMul, SourceSpan, Sum, Transpose, Var, drive)
from .errors import DuplicateVariable, ParseError, _echo
from .semiring import _parse_nat, records

#: The binary operators as (node class, token kind, text), loosest first;
#: the parser and `printer.pretty` both read precedence from here.
INFIX = ((Add, "+", "+"), (ScalarMul, "scalmul", ".*"), (MatMul, "*", "*"))
_LEVELS = {kind: level for level, (_, kind, _) in enumerate(INFIX)}

QUANTIFIERS = {"sum": Sum, "prod": Prod, "hprod": Hadamard}
CALLS = {"ones": Ones, "diag": Diag}
_ORDER_NAMES = {kind.value for kind in OrderKind}
KEYWORDS = {"for", *QUANTIFIERS, *CALLS, *_ORDER_NAMES, "inf"}

_TOKEN_RE = re.compile(r"""
      (?P<ws>\s+)
    | (?P<transpose>\^T)
    | (?P<scalmul>\.\*)
    | (?P<number>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<punct>->|[()\[\],.+*=-])
""", re.VERBOSE)


class Token(NamedTuple):
    kind: str
    text: str
    span: SourceSpan


def _tokenize(text):
    tokens = []
    pos = 0
    line, line_start = 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            span = SourceSpan(pos, pos + 1, line, pos - line_start + 1)
            raise ParseError(f"unexpected character {text[pos]!r}", span)
        kind = m.lastgroup
        lexeme = m.group()
        span = SourceSpan(pos, m.end(), line, pos - line_start + 1)
        if kind == "ws":
            line += lexeme.count("\n")
            if "\n" in lexeme:
                line_start = pos + lexeme.rindex("\n") + 1
        elif kind == "punct":
            tokens.append(Token(lexeme, lexeme, span))
        elif kind == "ident" and lexeme in KEYWORDS:
            tokens.append(Token(lexeme, lexeme, span))
        else:
            tokens.append(Token(kind, lexeme, span))
        pos = m.end()
    tokens.append(Token("eof", "", SourceSpan(pos, pos, line,
                                              pos - line_start + 1)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def reject(self, tok, expected, form="unexpected {}", end=""):
        """Raise a `ParseError` quoting `tok` (or `end` at eof) in `form`."""
        raise ParseError(form.format(_echo(tok.text or end)), tok.span,
                         expected)

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            self.reject(tok, {kind})
        return self.advance()

    def at(self, *kinds):
        return self.peek().kind in kinds

    def whole(self, rule):
        """The result of the grammar rule `rule`, which must read the input
        to its end.  A rule is a generator method: it yields ``(sub_rule,
        None)`` where a recursive descent would call `sub_rule`, and is
        sent back its result."""
        node = drive(rule, None, lambda sub_rule, _: sub_rule())
        tok = self.peek()
        if tok.kind != "eof":
            self.reject(tok, {"end"}, "trailing input {}")
        return node

    # ---- grammar -------------------------------------------------------

    def expr(self):
        tok = self.peek()
        if tok.kind == "for":
            self.advance()
            var = self.expect("ident").text
            self.expect(",")
            acc = self.expect("ident").text
            init = None
            if self.at("="):
                self.advance()
                init = yield self.operators, None
            self.expect(".")
            body = yield self.expr, None
            return For(var, acc, body, init, span=tok.span)
        if tok.kind in QUANTIFIERS:
            self.advance()
            var = self.expect("ident").text
            self.expect(".")
            body = yield self.expr, None
            return QUANTIFIERS[tok.kind](var, body, span=tok.span)
        return (yield self.operators, None)

    def operators(self):
        """Operands, each an atom and its ``^T`` suffixes, joined by the
        `INFIX` operators.  An operator waits on `pending` until the next
        one binds no tighter, so each level associates to the left."""
        pending = []  # (left operand, operator level, operator span)
        while True:
            node = yield self.atom, None
            while self.at("transpose"):
                node = Transpose(node, span=self.advance().span)
            level = _LEVELS.get(self.peek().kind)
            while pending and (level is None or pending[-1][1] >= level):
                left, top, span = pending.pop()
                node = INFIX[top][0](left, node, span=span)
            if level is None:
                return node
            pending.append((node, level, self.advance().span))

    def atom(self):
        tok = self.peek()
        if tok.kind == "(":
            self.advance()
            node = yield self.expr, None
            self.expect(")")
            return node
        if tok.kind == "[":
            self.advance()
            value = self.literal()
            self.expect("]")
            return Const(value, span=tok.span)
        if tok.kind in _ORDER_NAMES:
            self.advance()
            self.expect("[")
            sym = self.expect("ident").text
            self.expect("]")
            return OrderPrim(OrderKind(tok.kind), sym, span=tok.span)
        if tok.kind in CALLS:
            self.advance()
            self.expect("(")
            arg = yield self.expr, None
            self.expect(")")
            return CALLS[tok.kind](arg, span=tok.span)
        if tok.kind == "ident":
            self.advance()
            if self.at("("):
                self.advance()
                args = [(yield self.expr, None)]
                while self.at(","):
                    self.advance()
                    args.append((yield self.expr, None))
                self.expect(")")
                return Apply(tok.text, tuple(args), span=tok.span)
            return Var(tok.text, span=tok.span)
        self.reject(tok, {"(", "[", "identifier", "for", *QUANTIFIERS,
                          *CALLS}, end="end of input")

    def literal(self):
        sign = 1
        if self.at("+", "-"):
            sign = -1 if self.advance().kind == "-" else 1
        tok = self.peek()
        if tok.kind == "inf":
            self.advance()
            return sign * float("inf")
        if tok.kind == "number":
            self.advance()
            text = tok.text
            if re.fullmatch(r"\d+", text):
                return sign * _parse_nat(text)
            return sign * float(text)
        self.reject(tok, {"number", "inf"}, "unexpected {} in scalar literal")


def parse_expr(text: str) -> Expr:
    p = _Parser(text)
    return p.whole(p.expr)


_SCHEMA_LINE = re.compile(
    r"^var\s+(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*:\s*"
    r"(?P<rows>[A-Za-z_][A-Za-z0-9_]*|1)\s+x\s+"
    r"(?P<cols>[A-Za-z_][A-Za-z0-9_]*|1)\s*$")


def parse_schema(text: str) -> Schema:
    schema = Schema()
    for lineno, line in records(text):
        m = _SCHEMA_LINE.match(line)
        if m is None:
            span = SourceSpan(0, len(line), lineno, 1)
            raise ParseError("expected: var NAME : SYM x SYM", span)
        try:
            schema.declare(m.group("name"),
                           MatrixType(m.group("rows"), m.group("cols")))
        except DuplicateVariable as exc:
            raise DuplicateVariable(f"line {lineno}: {exc}") from None
    return schema


def format_schema(schema: Schema) -> str:
    return "\n".join(f"var {name} : {t.rows} x {t.cols}"
                     for name, t in schema.vars.items())
