"""Pinned outputs of the expression and relational passes.

Every pass runs over one corpus: the standard library, the phi corpus of the
acceptance tests, the psi translations of the psi test queries, well-typed
`TypedGen` trees and a seeded set of random, mostly ill-typed, trees.  Each
input gives one line: the printed result, or the class and message of the
first error raised.  The sha256 of a pass's lines pins its results, fresh
names and first errors together.

psi runs over queries of its own: the psi test queries with random, mostly
ill-signed, ones, and separately a seeded set of well-signed queries, every
one of which translates.
"""

import hashlib
import math
import random

import pytest

from conftest import TypedGen
from matfor import stdlib
from matfor.ast import (Add, Apply, Const, Diag, For, Hadamard, MatMul,
                        MatrixType, Ones, OrderKind, OrderPrim, Prod,
                        ScalarMul, Schema, Sum, Transpose, UNIT, Var,
                        substitute)
from matfor.bridge import mat_schema, phi_translate, psi_translate
from matfor.parser import parse_expr
from matfor.printer import pretty
from matfor.relalg import (Join, Project, Rel, Rename, Select, Union,
                           format_ra, parse_ra)
from matfor.sugar import desugar, reduce_apply_to_scalars
from matfor.typecheck import typecheck
from test_acceptance import PHI_CORPUS, PHI_SCHEMA
from test_bridge_psi import BINARY, QUERIES

_NAMES = ("V", "W", "M", "Q", "u", "v", "w", "s", "x", "X")
_SYMS = ("alpha", "beta", "gamma", UNIT)
_FUNCS = ("hprod2", "hsum2", "div", "gtz", "hsum3", "frob")
_TYPES = [MatrixType(r, c) for r in ("alpha", "beta", UNIT)
          for c in ("alpha", UNIT)]
_MAPPING = {"u": MatMul(Var("Q"), Var("u")), "s": Const(3), "v": Var("x")}


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        pick = rng.random()
        if pick < 0.6:
            return Var(rng.choice(_NAMES))
        if pick < 0.8:
            return Const(rng.choice((0, 1, -2, 2.5, -0.0, math.inf)))
        return OrderPrim(rng.choice(list(OrderKind)), rng.choice(_SYMS))

    def sub():
        return _random_tree(rng, depth - 1)

    def var_sym():
        return rng.choice(_SYMS) if rng.random() < 0.4 else None

    def acc_type():
        return rng.choice(_TYPES) if rng.random() < 0.4 else None

    kind = rng.randrange(13)
    if kind == 0:
        return Transpose(sub())
    if kind == 1:
        return MatMul(sub(), sub())
    if kind == 2:
        return Add(sub(), sub())
    if kind == 3:
        return ScalarMul(sub(), sub())
    if kind == 4:
        return Apply(rng.choice(_FUNCS),
                     tuple(sub() for _ in range(rng.randint(1, 3))))
    if kind == 5:
        return Ones(sub())
    if kind == 6:
        return Diag(sub())
    if kind in (7, 8):
        return rng.choice((Sum, Prod, Hadamard))(
            rng.choice(_NAMES), sub(), var_sym())
    if kind == 9:
        acc = rng.choice(_NAMES)
        return For(rng.choice(_NAMES), acc, Add(Var(acc), sub()),
                   var_sym=var_sym(), acc_type=acc_type())
    init = sub() if rng.random() < 0.5 else None
    return For(rng.choice(_NAMES), rng.choice(_NAMES), sub(), init,
               var_sym(), acc_type())


def _corpus():
    """(expression, schema) pairs."""
    out = [(item.expr, item.schema)
           for _, item in sorted(stdlib.all_named().items())]
    out += [(parse_expr(text), PHI_SCHEMA) for text in PHI_CORPUS]
    out += [(psi_translate(parse_ra(text), BINARY), mat_schema(BINARY))
            for text in QUERIES]
    rng = random.Random(4242)
    for _ in range(1500):
        decls = dict(PHI_SCHEMA.vars)
        gen = TypedGen(rng, decls, loops=rng.choice(("all", "sum")))
        e = gen.expr(rng.choice(_TYPES[:4]), rng.randrange(1, 4))
        out.append((e, Schema(decls)))
    for _ in range(3000):
        out.append((_random_tree(rng, rng.randrange(1, 6)), PHI_SCHEMA))
    return out


def _random_query(rng, depth):
    attrs = ("a", "b", "c")
    if depth == 0 or rng.random() < 0.25:
        return Rel(rng.choice(("R", "S", "T", "Z", "X")))

    def sub():
        return _random_query(rng, depth - 1)

    def some():
        return frozenset(a for a in attrs if rng.random() < 0.5)

    kind = rng.randrange(5)
    if kind == 0:
        return Union(sub(), sub())
    if kind == 1:
        return Join(sub(), sub())
    if kind == 2:
        return Project(some(), sub())
    if kind == 3:
        return Select(some(), sub())
    olds = sorted(some())
    news = rng.sample(("a", "b", "c", "d"), len(olds))
    return Rename(tuple(zip(news, olds)), sub())


def _queries():
    rng = random.Random(4343)
    return ([parse_ra(text) for text in QUERIES]
            + [_random_query(rng, rng.randrange(1, 5)) for _ in range(400)])


_RENAMED = ("a", "b", "c", "d", "e")


def _renamed(rng, q, sig, news):
    """`q` renamed by a bijection from ``sorted(sig)`` onto `news`."""
    news = rng.sample(sorted(news), len(news))
    return Rename(tuple(zip(news, sorted(sig))), q), frozenset(news)


def _signed_query(rng, depth):
    """A well-signed query over `BINARY` and its signature."""
    if depth == 0 or rng.random() < 0.2:
        name = rng.choice(sorted(BINARY))
        return Rel(name), BINARY[name]
    q, sig = _signed_query(rng, depth - 1)
    kind = rng.randrange(5)
    if kind == 0:
        q2, sig2 = _signed_query(rng, depth - 1)
        if len(sig2) < len(sig):
            q2, sig2 = q, sig
        keep = sorted(sig2)[:len(sig)]
        if len(keep) < len(sig2):
            q2 = Project(frozenset(keep), q2)
        q2, _ = _renamed(rng, q2, keep, sig)
        return Union(q, q2), sig
    if kind == 1:
        q2, sig2 = _signed_query(rng, depth - 1)
        return Join(q, q2), sig | sig2
    some = frozenset(a for a in sorted(sig) if rng.random() < 0.5)
    if kind == 2:
        return Project(some, q), some
    if kind == 3:
        return Select(some, q), sig
    news = rng.sample(_RENAMED, len(sig))
    return _renamed(rng, q, sig, news)


def _signed_queries():
    """Well-signed queries whose root projects to at most two attributes."""
    rng = random.Random(4545)
    out = []
    for _ in range(1500):
        q, sig = _signed_query(rng, rng.randrange(1, 7))
        attrs = rng.sample(sorted(sig), rng.randint(0, min(2, len(sig))))
        out.append(Project(frozenset(attrs), q))
    return out


def _line(run, *args):
    try:
        return run(*args)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


PASSES = {
    "typecheck": lambda e, schema: str(typecheck(e, schema)),
    "desugar": lambda e, schema: pretty(desugar(e, schema)),
    "scalarise": lambda e, schema: pretty(
        reduce_apply_to_scalars(e, schema)),
    "pretty": lambda e, schema: pretty(e),
    "substitute": lambda e, schema: pretty(substitute(e, _MAPPING)),
    "phi": lambda e, schema: format_ra(phi_translate(e, schema)),
}

# sha256 of the newline-joined lines of each pass over the corpus
PINS = {
    "typecheck": (
        "44b320f2205ec0c8ce42cb28f7350031a12108d4d99fad56ee06f2caf59b32aa"),
    "desugar": (
        "cf0ad64bc0d60c689d890dfe4dae00bc5372321a55e6834ece3bc913fd170f5b"),
    "scalarise": (
        "b10fc471c4e026201e2a3599822a47adb1139bda67f1f84b82ba65d06e929008"),
    "pretty": (
        "a101f0310be0b7b88cd51e20fb6581ab3a94646879b99ceffc2dd217e44ad467"),
    "substitute": (
        "afb1d942bd149ea6eee050b156d59e7a803fd136e950dbff0b28ffacdb1333aa"),
    "phi": (
        "b5abf8c14ee4ae00284d8eba101d476430c77b536e2a9fdb064860b4a6fdbbb9"),
    "psi": (
        "fa8bc3835a5471644d23166a979c467273255e8695816b2cedb841b23a151e2a"),
    "psi_signed": (
        "b2aa2b742b7d666233861bf5426323ca710bc90bdd5ecc57a2b2a8e089b40985"),
}


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


def _expression_lines(name, corpus):
    run = PASSES[name]
    return [_line(run, e, schema) for e, schema in corpus]


def _psi_lines():
    return [_line(lambda q: pretty(psi_translate(q, BINARY)), q)
            for q in _queries()]


def _psi_signed_lines():
    return [_line(lambda q: f"{format_ra(q)} => "
                  f"{pretty(psi_translate(q, BINARY))}", q)
            for q in _signed_queries()]


@pytest.mark.parametrize("name", sorted(PASSES))
def test_expression_pass_output_is_pinned(corpus, name):
    assert _digest(_expression_lines(name, corpus)) == PINS[name]


def test_psi_output_is_pinned():
    assert _digest(_psi_lines()) == PINS["psi"]


def test_psi_output_over_well_signed_queries_is_pinned():
    assert _digest(_psi_signed_lines()) == PINS["psi_signed"]


if __name__ == "__main__":
    # ``python tests/test_pass_pins.py NAME`` prints the lines that
    # ``PINS[NAME]`` digests, one per input, so two versions of a pass can
    # be diffed line by line before a re-pin
    import sys
    name = sys.argv[1]
    if name == "psi":
        lines = _psi_lines()
    elif name == "psi_signed":
        lines = _psi_signed_lines()
    else:
        lines = _expression_lines(name, _corpus())
    print("\n".join(lines))
