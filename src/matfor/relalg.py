"""Positive relational algebra over semiring-annotated relations.

A K-relation maps tuples to semiring values with finite support; stored
support never contains the semiring zero (absence encodes zero).  Tuples
are total maps from the signature's attributes to positive integers,
represented canonically as attribute-sorted pairs.

Operators: relation lookup, union (pointwise sum), projection (sum over the
removed attributes), selection (keep tuples whose selected attributes all
agree), attribute renaming (a bijection from new names to the operand's
names), and natural join (product of the operands' annotations on tuples
that agree on shared attributes).

Text form of expressions (prefix):

    rel NAME
    union(Q, Q)    join(Q, Q)
    project[a, b](Q)    select[a, b](Q)    rename[new->old, ...](Q)

Relation files: a `relation NAME attr...` header per relation followed by
data lines `v1 v2 ... : annotation`; `#` starts a comment.  An optional
leading `semiring NAME` line fixes how annotations are parsed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .ast import drive
from .errors import (FormatError, ParseError, SignatureViolation,
                     UnknownRelation)
from .semiring import REAL, Semiring, by_name

Tuple_ = tuple  # tuples of (attr, value) pairs sorted by attr


def make_tuple(assignment: dict[str, int]) -> Tuple_:
    return tuple(sorted(assignment.items()))


def tuple_restrict(t: Tuple_, attrs) -> Tuple_:
    return tuple((a, v) for a, v in t if a in attrs)


@dataclass
class KRelation:
    """Finite-support annotated relation over a fixed attribute signature."""

    signature: frozenset[str]
    support: dict[Tuple_, object] = field(default_factory=dict)

    def __post_init__(self):
        self.signature = frozenset(self.signature)

    @classmethod
    def build(cls, signature, items, sr: Semiring):
        """Construct, dropping zero annotations and merging duplicates."""
        out = {}
        sig = frozenset(signature)
        for t, v in items:
            if frozenset(a for a, _ in t) != sig:
                raise SignatureViolation(
                    f"tuple {t} does not match signature {sorted(sig)}")
            if t in out:
                v = sr.plus(out[t], v)
            out[t] = v
        for t in [t for t, v in out.items() if v == sr.zero]:
            del out[t]
        return cls(sig, out)

    def value(self, t: Tuple_, sr: Semiring):
        return self.support.get(t, sr.zero)

    def adom(self) -> set[int]:
        return {v for t in self.support for _, v in t}

    def __eq__(self, other):
        return (isinstance(other, KRelation)
                and self.signature == other.signature
                and self.support == other.support)


# ---------------------------------------------------------------------------
# Expressions


@dataclass(frozen=True)
class RAExpr:
    pass


@dataclass(frozen=True)
class Rel(RAExpr):
    name: str


@dataclass(frozen=True)
class Union(RAExpr):
    left: RAExpr
    right: RAExpr


@dataclass(frozen=True)
class Project(RAExpr):
    attrs: frozenset[str]
    arg: RAExpr

    def __post_init__(self):
        object.__setattr__(self, "attrs", frozenset(self.attrs))


@dataclass(frozen=True)
class Select(RAExpr):
    attrs: frozenset[str]
    arg: RAExpr

    def __post_init__(self):
        object.__setattr__(self, "attrs", frozenset(self.attrs))


@dataclass(frozen=True)
class Rename(RAExpr):
    """`mapping` sends each new attribute name to an operand attribute."""

    mapping: tuple[tuple[str, str], ...]
    arg: RAExpr

    def __post_init__(self):
        object.__setattr__(self, "mapping",
                           tuple(sorted(dict(self.mapping).items())))


@dataclass(frozen=True)
class Join(RAExpr):
    left: RAExpr
    right: RAExpr


def signature_of(q: RAExpr, relschema: dict[str, frozenset[str]]) -> frozenset[str]:
    """Signature of the expression, validating the arity rules on the way."""
    return drive(q, relschema, _signature)


def _signature(q, relschema):
    if isinstance(q, Rel):
        if q.name not in relschema:
            raise UnknownRelation(f"unknown relation '{q.name}'")
        return frozenset(relschema[q.name])
    if isinstance(q, Union):
        ls = yield q.left, relschema
        rs = yield q.right, relschema
        if ls != rs:
            raise SignatureViolation(
                f"union operands must share a signature: "
                f"{sorted(ls)} vs {sorted(rs)}")
        return ls
    if isinstance(q, (Project, Select)):
        s = yield q.arg, relschema
        if not q.attrs <= s:
            raise SignatureViolation(
                f"attributes {sorted(q.attrs - s)} not in operand signature")
        return q.attrs if isinstance(q, Project) else s
    if isinstance(q, Rename):
        s = yield q.arg, relschema
        mapping = dict(q.mapping)
        old = set(mapping.values())
        if len(old) != len(mapping) or old != set(s):
            raise SignatureViolation(
                "rename must be a bijection onto the operand signature")
        return frozenset(mapping)
    if isinstance(q, Join):
        return (yield q.left, relschema) | (yield q.right, relschema)
    raise TypeError(f"not a relational expression: {q!r}")


def eval_ra(q: RAExpr, inst: dict[str, KRelation], sr: Semiring) -> KRelation:
    """Evaluate over an instance; output support never stores zero."""
    relschema = {name: rel.signature for name, rel in inst.items()}
    signature_of(q, relschema)
    return drive(q, None, lambda node, _: _eval(node, inst, sr))


def _eval(q, inst, sr):
    if isinstance(q, Rel):
        return inst[q.name]

    if isinstance(q, Union):
        left = yield q.left, None
        right = yield q.right, None
        items = list(left.support.items()) + list(right.support.items())
        return KRelation.build(left.signature, items, sr)

    if isinstance(q, Project):
        rel = yield q.arg, None
        items = [(tuple_restrict(t, q.attrs), v)
                 for t, v in rel.support.items()]
        return KRelation.build(q.attrs, items, sr)

    if isinstance(q, Select):
        rel = yield q.arg, None
        items = []
        for t, v in rel.support.items():
            picked = {val for a, val in t if a in q.attrs}
            if len(picked) <= 1:
                items.append((t, v))
        return KRelation.build(rel.signature, items, sr)

    if isinstance(q, Rename):
        rel = yield q.arg, None
        mapping = dict(q.mapping)
        items = []
        for t, v in rel.support.items():
            vals = dict(t)
            items.append((make_tuple({new: vals[old]
                                      for new, old in mapping.items()}), v))
        return KRelation.build(frozenset(mapping), items, sr)

    if isinstance(q, Join):
        left = yield q.left, None
        right = yield q.right, None
        shared = left.signature & right.signature
        buckets: dict[Tuple_, list] = {}
        for t, v in right.support.items():
            buckets.setdefault(tuple_restrict(t, shared), []).append((t, v))
        sig = left.signature | right.signature
        items = []
        for t1, v1 in left.support.items():
            for t2, v2 in buckets.get(tuple_restrict(t1, shared), ()):
                merged = dict(t1)
                merged.update(dict(t2))
                items.append((make_tuple(merged), sr.times(v1, v2)))
        return KRelation.build(sig, items, sr)

    raise TypeError(f"not a relational expression: {q!r}")


# ---------------------------------------------------------------------------
# Text formats


_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"


class _RAParser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, msg):
        return ParseError(f"at offset {self.pos}: {msg}")

    def ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def lit(self, s):
        self.ws()
        if not self.text.startswith(s, self.pos):
            raise self.error(f"expected {s!r}")
        self.pos += len(s)

    def ident(self):
        self.ws()
        m = re.compile(_IDENT).match(self.text, self.pos)
        if not m:
            raise self.error("expected an identifier")
        self.pos = m.end()
        return m.group()

    def attr_list(self):
        self.lit("[")
        attrs = []
        self.ws()
        if not self.text.startswith("]", self.pos):
            attrs.append(self.ident())
            self.ws()
            while self.text.startswith(",", self.pos):
                self.pos += 1
                attrs.append(self.ident())
                self.ws()
        self.lit("]")
        return attrs

    def rename_list(self):
        self.lit("[")
        pairs = []
        while True:
            new = self.ident()
            self.lit("->")
            old = self.ident()
            pairs.append((new, old))
            self.ws()
            if self.text.startswith(",", self.pos):
                self.pos += 1
                continue
            break
        self.lit("]")
        return tuple(pairs)

    def expr(self):
        self.ws()
        head_m = re.compile(_IDENT).match(self.text, self.pos)
        if not head_m:
            raise self.error("expected a relational operator")
        head = head_m.group()
        if head == "rel":
            self.pos = head_m.end()
            return Rel(self.ident())
        if head in ("union", "join"):
            self.pos = head_m.end()
            self.lit("(")
            left = self.expr()
            self.lit(",")
            right = self.expr()
            self.lit(")")
            return (Union if head == "union" else Join)(left, right)
        if head in ("project", "select"):
            self.pos = head_m.end()
            attrs = self.attr_list()
            self.lit("(")
            arg = self.expr()
            self.lit(")")
            node = Project if head == "project" else Select
            return node(frozenset(attrs), arg)
        if head == "rename":
            self.pos = head_m.end()
            pairs = self.rename_list()
            self.lit("(")
            arg = self.expr()
            self.lit(")")
            return Rename(pairs, arg)
        raise self.error(f"unknown relational operator {head!r}")


def parse_ra(text: str) -> RAExpr:
    p = _RAParser(text)
    try:
        q = p.expr()
    except RecursionError:
        raise p.error("relational expression nested too deeply") from None
    p.ws()
    if p.pos != len(p.text):
        raise p.error("trailing input")
    return q


def format_ra(q: RAExpr) -> str:
    out: list[str] = []
    drive(q, out, _format)
    return "".join(out)


def _format(q, out):
    """A `drive` rule that appends the text of `q` to `out`."""
    if isinstance(q, Rel):
        out.append(f"rel {q.name}")
    elif isinstance(q, (Union, Join)):
        out.append("union(" if isinstance(q, Union) else "join(")
        yield q.left, out
        out.append(", ")
        yield q.right, out
        out.append(")")
    elif isinstance(q, (Project, Select)):
        op = "project" if isinstance(q, Project) else "select"
        out.append(f"{op}[{', '.join(sorted(q.attrs))}](")
        yield q.arg, out
        out.append(")")
    elif isinstance(q, Rename):
        pairs = ", ".join(f"{new}->{old}" for new, old in q.mapping)
        out.append(f"rename[{pairs}](")
        yield q.arg, out
        out.append(")")
    else:
        raise TypeError(f"not a relational expression: {q!r}")


def parse_relations(text: str):
    """Parse a relation file: (semiring, name -> KRelation)."""
    sr = REAL
    rels: dict[str, KRelation] = {}
    current_name = None
    current_sig: list[str] = []
    current_items: list = []

    def flush():
        nonlocal current_name, current_sig, current_items
        if current_name is not None:
            rels[current_name] = KRelation.build(
                frozenset(current_sig), current_items, sr)
        current_name, current_sig, current_items = None, [], []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "semiring":
            if len(parts) != 2:
                raise FormatError("expected: semiring NAME", lineno)
            if current_name is not None:
                raise FormatError(
                    "a 'semiring' line must precede relation blocks", lineno)
            sr = by_name(parts[1])
        elif parts[0] == "relation":
            flush()
            if len(parts) < 2:
                raise FormatError("expected: relation NAME attr...", lineno)
            current_name = parts[1]
            current_sig = parts[2:]
            if len(set(current_sig)) != len(current_sig):
                raise FormatError("duplicate attribute names", lineno)
            if current_name in rels:
                raise FormatError(
                    f"relation '{current_name}' declared twice", lineno)
        else:
            if current_name is None:
                raise FormatError(
                    "data line before any relation header", lineno)
            if ":" not in line:
                raise FormatError("expected: v1 v2 ... : annotation", lineno)
            left, _, right = line.rpartition(":")
            vals = left.split()
            if len(vals) != len(current_sig):
                raise FormatError(
                    f"tuple has {len(vals)} values, expected "
                    f"{len(current_sig)}", lineno)
            try:
                point = [int(v) for v in vals]
            except ValueError:
                raise FormatError("tuple values must be integers",
                                  lineno) from None
            if any(v < 1 for v in point):
                raise FormatError("tuple values must be positive", lineno)
            try:
                ann = sr.parse(right.strip())
            except FormatError as exc:
                raise FormatError(str(exc), lineno) from None
            current_items.append(
                (make_tuple(dict(zip(current_sig, point))), ann))
    flush()
    return sr, rels


def format_relations(rels: dict[str, KRelation], sr: Semiring) -> str:
    lines = [f"semiring {sr.name}"]
    for name in sorted(rels):
        rel = rels[name]
        attrs = sorted(rel.signature)
        lines.append(f"relation {name} {' '.join(attrs)}".rstrip())
        for t in sorted(rel.support):
            vals = dict(t)
            point = " ".join(str(vals[a]) for a in attrs)
            lines.append(f"{point} : {sr.fmt(rel.support[t])}".lstrip())
    return "\n".join(lines)
