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
                  ScalarMul, SourceSpan, Sum, Transpose, Var)
from .errors import DuplicateVariable, ParseError, _echo
from .semiring import _parse_nat, records

KEYWORDS = {"for", "sum", "prod", "hprod", "ones", "diag",
            "Sless", "Emin", "Emax", "Nshift", "inf"}

_ORDER_KINDS = {"Sless": OrderKind.SLESS, "Emin": OrderKind.EMIN,
                "Emax": OrderKind.EMAX, "Nshift": OrderKind.NSHIFT}

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

    def whole(self, rule, what):
        """The result of `rule`, which must read the input to its end."""
        try:
            node = rule()
        except RecursionError:
            raise ParseError(f"{what} nested too deeply",
                             self.peek().span) from None
        tok = self.peek()
        if tok.kind != "eof":
            self.reject(tok, {"end"}, "trailing input {}")
        return node

    # ---- grammar -------------------------------------------------------

    def expr(self):
        if self.at("for", "sum", "prod", "hprod"):
            return self.binder()
        return self.add()

    def binder(self):
        tok = self.advance()
        if tok.kind == "for":
            var = self.expect("ident").text
            self.expect(",")
            acc = self.expect("ident").text
            init = None
            if self.at("="):
                self.advance()
                init = self.add()
            self.expect(".")
            body = self.expr()
            return For(var, acc, body, init, span=tok.span)
        var = self.expect("ident").text
        self.expect(".")
        body = self.expr()
        node = {"sum": Sum, "prod": Prod, "hprod": Hadamard}[tok.kind]
        return node(var, body, span=tok.span)

    def add(self):
        left = self.scal()
        while self.at("+"):
            tok = self.advance()
            left = Add(left, self.scal(), span=tok.span)
        return left

    def scal(self):
        left = self.mul()
        while self.at("scalmul"):
            tok = self.advance()
            left = ScalarMul(left, self.mul(), span=tok.span)
        return left

    def mul(self):
        left = self.post()
        while self.at("*"):
            tok = self.advance()
            left = MatMul(left, self.post(), span=tok.span)
        return left

    def post(self):
        node = self.atom()
        while self.at("transpose"):
            tok = self.advance()
            node = Transpose(node, span=tok.span)
        return node

    def atom(self):
        tok = self.peek()
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind == "[":
            self.advance()
            value = self.literal()
            self.expect("]")
            return Const(value, span=tok.span)
        if tok.kind in _ORDER_KINDS:
            self.advance()
            self.expect("[")
            sym = self.expect("ident").text
            self.expect("]")
            return OrderPrim(_ORDER_KINDS[tok.kind], sym, span=tok.span)
        if tok.kind in ("ones", "diag"):
            self.advance()
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            node = Ones if tok.kind == "ones" else Diag
            return node(arg, span=tok.span)
        if tok.kind == "ident":
            self.advance()
            if self.at("("):
                self.advance()
                args = [self.expr()]
                while self.at(","):
                    self.advance()
                    args.append(self.expr())
                self.expect(")")
                return Apply(tok.text, tuple(args), span=tok.span)
            return Var(tok.text, span=tok.span)
        self.reject(tok, {"(", "[", "identifier", "for", "sum", "prod",
                          "hprod", "ones", "diag"}, end="end of input")

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
    return p.whole(p.expr, "expression")


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
