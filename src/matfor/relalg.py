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

Position plans: pairs sit in signature order, so an attribute has one index
in every tuple of a relation.  Each operator works out once, from its
operands' signatures, the indexes its output pairs or values come from, and
builds every output tuple with them (`_getter`), without a `dict` or a
`sorted` per tuple.  Union, projection and join results pass through
`_merge`, the one rule that sums equal tuples and drops zeros.  Signatures
are checked only where tuples come from outside: by `KRelation.build`, and
by `KRelation.check`, which `eval_ra` runs once per relation a query names
and `bridge.mat_encode` once per relation it encodes.

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
from itertools import chain
from operator import itemgetter

from .ast import Tree, drive, treeclass
from .errors import (FormatError, ParseError, SignatureViolation,
                     UnknownRelation, _echo, _echo_names)
from .parser import KEYWORDS, _Parser
from .semiring import REAL, Semiring, _count, read_semiring_line, records

Tuple_ = tuple  # tuples of (attr, value) pairs sorted by attr


def make_tuple(assignment: dict[str, int]) -> Tuple_:
    return tuple(sorted(assignment.items()))


_attr = itemgetter(0)
_value = itemgetter(1)


def _getter(positions):
    """An `itemgetter` over `positions` that always returns a tuple."""
    if len(positions) == 1:
        return lambda t, i=positions[0]: (t[i],)
    return itemgetter(*positions) if positions else lambda t: ()


def _merge(items, sr: Semiring) -> dict:
    """The one merge rule: sum the annotations of equal tuples, drop zeros."""
    out = {}
    for t, v in items:
        if t in out:
            v = sr.plus(out[t], v)
        out[t] = v
    return {t: v for t, v in out.items() if v != sr.zero}


@dataclass
class KRelation:
    """Finite-support annotated relation over a fixed attribute signature."""

    signature: frozenset[str]
    support: dict[Tuple_, object] = field(default_factory=dict)

    def __post_init__(self):
        self.signature = frozenset(self.signature)

    @classmethod
    def build(cls, signature, items, sr: Semiring):
        """Construct from outside tuples: merge them, then check signatures."""
        return cls(signature, _merge(items, sr)).check()

    def check(self):
        """`self`; raises `SignatureViolation` unless the attributes of
        every tuple are the signature in sorted order."""
        order = tuple(sorted(self.signature))
        for t in self.support:
            if tuple(map(_attr, t)) != order:
                raise SignatureViolation(
                    f"tuple {_echo(t, str)} does not match signature "
                    f"{_echo_names(order)}")
        return self

    def value(self, t: Tuple_, sr: Semiring):
        return self.support.get(t, sr.zero)

    def adom(self) -> set[int]:
        return {v for t in self.support for _, v in t}


# ---------------------------------------------------------------------------
# Expressions


@treeclass
class RAExpr(Tree):
    pass


@treeclass
class Rel(RAExpr):
    name: str


@treeclass
class Union(RAExpr):
    left: RAExpr
    right: RAExpr


@treeclass
class Project(RAExpr):
    attrs: frozenset[str]
    arg: RAExpr

    def __post_init__(self):
        object.__setattr__(self, "attrs", frozenset(self.attrs))


@treeclass
class Select(RAExpr):
    attrs: frozenset[str]
    arg: RAExpr

    def __post_init__(self):
        object.__setattr__(self, "attrs", frozenset(self.attrs))


@treeclass
class Rename(RAExpr):
    """`mapping` sends each new attribute name to an operand attribute."""

    mapping: tuple[tuple[str, str], ...]
    arg: RAExpr

    def __post_init__(self):
        object.__setattr__(self, "mapping",
                           tuple(sorted(dict(self.mapping).items())))


@treeclass
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
                f"{_echo_names(ls)} vs {_echo_names(rs)}")
        return ls
    if isinstance(q, (Project, Select)):
        s = yield q.arg, relschema
        if not q.attrs <= s:
            raise SignatureViolation(
                f"attributes {_echo_names(q.attrs - s)} not in operand "
                f"signature")
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
    checked = {}
    return drive(q, None, lambda node, _: _eval(node, inst, checked, sr))


def _eval(q, inst, checked, sr):
    if isinstance(q, Rel):
        if q.name not in checked:
            checked[q.name] = inst[q.name].check()
        return checked[q.name]

    if isinstance(q, Union):
        left = yield q.left, None
        right = yield q.right, None
        return KRelation(left.signature, _merge(
            chain(left.support.items(), right.support.items()), sr))

    rel = yield (q.left if isinstance(q, Join) else q.arg), None
    order = sorted(rel.signature)

    if isinstance(q, (Project, Select)):
        get = _getter([i for i, a in enumerate(order) if a in q.attrs])
        if isinstance(q, Project):
            return KRelation(q.attrs, _merge(
                ((get(t), v) for t, v in rel.support.items()), sr))
        return KRelation(rel.signature, {
            t: v for t, v in rel.support.items()
            if len(set(map(_value, get(t)))) <= 1})

    if isinstance(q, Rename):
        names = [new for new, _ in q.mapping]
        get = _getter([order.index(old) for _, old in q.mapping])
        return KRelation(frozenset(names), {
            tuple(zip(names, map(_value, get(t)))): v
            for t, v in rel.support.items()})

    # a Join: `signature_of` has rejected every other node
    right = yield q.right, None
    other = sorted(right.signature)
    shared = sorted(rel.signature & right.signature)
    left_key = _getter([order.index(a) for a in shared])
    right_key = _getter([other.index(a) for a in shared])
    sig = rel.signature | right.signature
    build = _getter([order.index(a) if a in rel.signature
                     else len(order) + other.index(a)
                     for a in sorted(sig)])
    buckets: dict[Tuple_, list] = {}
    for t, v in right.support.items():
        buckets.setdefault(right_key(t), []).append((t, v))
    return KRelation(sig, _merge(
        ((build(t1 + t2), sr.times(v1, v2))
         for t1, v1 in rel.support.items()
         for t2, v2 in buckets.get(left_key(t1), ())), sr))


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
