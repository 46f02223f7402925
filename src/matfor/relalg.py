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

Text form of expressions (prefix), read from the tokens of the expression
language (`parser`), with ``->`` one token:

    Q    ::= "rel" NAME
           | ("union" | "join") "(" Q "," Q ")"
           | ("project" | "select") "[" [NAME {"," NAME}] "]" "(" Q ")"
           | "rename" "[" NAME "->" NAME {"," NAME "->" NAME} "]" "(" Q ")"

A NAME is any identifier, expression keywords such as ``sum`` and ``inf``
included.  Every syntax error reads ``at offset N: ...``, N counting
characters from the start of the text.

Relation files: a `relation NAME attr...` header per relation followed by
data lines `v1 v2 ... : annotation`, lines read by `semiring.records`.  An
optional leading `semiring NAME` line fixes how annotations are parsed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ast import drive
from .errors import (FormatError, ParseError, SignatureViolation,
                     UnknownRelation, _echo)
from .parser import KEYWORDS, _Parser
from .semiring import REAL, Semiring, _count, read_semiring_line, records

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
            raise UnknownRelation(f"unknown relation {_echo(q.name)}")
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


_OPERATORS = {"rel": Rel, "union": Union, "join": Join, "project": Project,
              "select": Select, "rename": Rename}
_NAMES = {op: name for name, op in _OPERATORS.items()}


class _RAParser(_Parser):
    """The grammar above as `ast.drive` rules over the expression tokens."""

    def name(self):
        tok = self.advance()
        if tok.kind != "ident" and tok.kind not in KEYWORDS:
            self.reject(tok, {"identifier"})
        return tok.text

    def query(self):
        tok = self.advance()
        op = _OPERATORS.get(tok.text)
        if op is None:
            self.reject(tok, set(_OPERATORS))
        if op is Rel:
            return Rel(self.name())
        if op is Union or op is Join:
            self.expect("(")
            left = yield self.query, None
            self.expect(",")
            right = yield self.query, None
            self.expect(")")
            return op(left, right)
        self.expect("[")
        items = []
        if op is Rename or not self.at("]"):
            items.append(self.item(op))
            while self.at(","):
                self.advance()
                items.append(self.item(op))
        self.expect("]")
        self.expect("(")
        arg = yield self.query, None
        self.expect(")")
        return op(items, arg)

    def item(self, op):
        """A projected or selected attribute, or a renaming's pair."""
        new = self.name()
        if op is not Rename:
            return new
        self.expect("->")
        return new, self.name()


def parse_ra(text: str) -> RAExpr:
    try:
        p = _RAParser(text)
        return p.whole(p.query)
    except ParseError as exc:
        raise ParseError(f"at offset {exc.span.start}: {exc.args[0]}",
                         expected=exc.expected) from None


def format_ra(q: RAExpr) -> str:
    out: list[str] = []
    drive(q, out, _format)
    return "".join(out)


def _format(q, out):
    """A `drive` rule that appends the text of `q` to `out`."""
    name = _NAMES.get(q.__class__)
    if name is None:
        raise TypeError(f"not a relational expression: {q!r}")
    if q.__class__ is Rel:
        out.append(f"{name} {q.name}")
    elif q.__class__ is Union or q.__class__ is Join:
        out.append(f"{name}(")
        yield q.left, out
        out.append(", ")
        yield q.right, out
        out.append(")")
    else:
        items = (sorted(q.attrs) if q.__class__ is not Rename else
                 [f"{new}->{old}" for new, old in q.mapping])
        out.append(f"{name}[{', '.join(items)}](")
        yield q.arg, out
        out.append(")")


def parse_relations(text: str):
    """Parse a relation file: (semiring, name -> KRelation)."""
    sr = REAL
    blocks: dict[str, tuple[list[str], list]] = {}
    sig = items = None
    for lineno, line in records(text):
        parts = line.split()
        if parts[0] == "semiring":
            sr = read_semiring_line(parts, lineno, bool(blocks), "relation")
        elif parts[0] == "relation":
            if len(parts) < 2:
                raise FormatError("expected: relation NAME attr...", lineno)
            name, sig, items = parts[1], parts[2:], []
            if len(set(sig)) != len(sig):
                raise FormatError("duplicate attribute names", lineno)
            if name in blocks:
                raise FormatError(
                    f"relation {_echo(name)} declared twice", lineno)
            blocks[name] = sig, items
        else:
            if sig is None:
                raise FormatError(
                    "data line before any relation header", lineno)
            if ":" not in line:
                raise FormatError("expected: v1 v2 ... : annotation", lineno)
            left, _, right = line.rpartition(":")
            vals = left.split()
            if len(vals) != len(sig):
                raise FormatError(
                    f"tuple has {len(vals)} values, expected {len(sig)}",
                    lineno)
            point = [_count(v, "tuple value", lineno) for v in vals]
            if any(v < 1 for v in point):
                raise FormatError("tuple values must be positive", lineno)
            try:
                ann = sr.parse(right.strip())
            except FormatError as exc:
                raise FormatError(str(exc), lineno) from None
            items.append((make_tuple(dict(zip(sig, point))), ann))
    # no semiring line may follow a block, so every block is read in `sr`
    return sr, {name: KRelation.build(sig, items, sr)
                for name, (sig, items) in blocks.items()}


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
