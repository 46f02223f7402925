"""Encodings and translations between the additive fragment and annotated
relational algebra.

Matrix side -> relational side: a variable V of type (alpha, beta) becomes a
relation R_V over attributes ``row_alpha`` / ``col_beta`` (dropped for unit
dimensions) whose support holds the nonzero entries, and every non-unit size
symbol gets a unary domain relation D_sym listing 1..dims[sym] with
annotation one.  Domain relations matter because absence encodes zero: an
expression may be nonzero at indices its inputs never mention (an all-ones
vector, say), and only the domain relations can supply those indices.

`phi_translate` maps any additive-fragment expression to a relational
expression satisfying, entry for entry,

    evaluate(e)[i, j] == eval_ra(phi(e))(row_alpha: i, col_beta: j)

Bound iterators become fresh attributes and a product's inner dimension
another, named ``it_`` and ``mid_`` with one `sugar._Fresh` counter.  An
occurrence of the iterator is the diagonal relation over (row_sym, attr)
built from two renamed copies of the domain relation, an additive
quantifier joins the body with the domain relation on the iterator
attribute and projects the attribute away, and union-like nodes pad either
side with missing iterator attributes.

Relational side -> matrix side: for a binary input schema, `mat_encode`
collapses the active domain to {d_1 < ... < d_n}, assigns every relation a
square/vector/scalar variable over one symbol, and `psi_translate` produces
an additive-fragment expression whose (i, j) entry equals the query's value
at (d_i, d_j).  Intermediate signatures of any arity are handled by keeping
one canonical-vector variable per attribute, named ``_t`` with a
`sugar._Fresh` counter.  Its name sits in a scope cell that the first
relation to reach the attribute fills, and both operands of a union or
join read the same cells, so the left operand's name wins and no
translated subtree is ever renamed.  A subquery translates to a list of 1x1
factors whose product is its value, and a projection sums each
dropped attribute's iterator over only the factors that mention it, leaving
the others outside the sum (variable elimination).  By distributivity this
equals summing the whole product in any commutative semiring, so ``nat``,
``bool`` and integer-valued ``tropical`` results are exact; over ``real``
the regrouped products may round differently.
"""

from __future__ import annotations

from functools import reduce

from . import relalg
from .ast import (Add, Apply, Expr, For, MatMul, MatrixType, ScalarMul,
                  Schema, Sum, Transpose, UNIT, Var, children, drive,
                  node_table, summand)
from .errors import (EmptyActiveDomain, NotInSumFragment, OutputArityTooLarge,
                     SchemaNotBinary, SignatureViolation, UnsupportedFunction,
                     _echo, _echo_names)
from .functions import pointwise
from .instance import Instance
from .matrix import KMatrix
from .relalg import (Join, KRelation, Project, RAExpr, Rel, Rename, Select,
                     Union)
from .semiring import Semiring
from .sugar import _Fresh, desugar
from .typecheck import iterator_type, type_in_env

MAT_SYM = "alpha"


def rel_name(var: str) -> str:
    return f"R_{var}"


def dom_name(sym: str) -> str:
    return f"D_{sym}"


def row_attr(sym: str) -> str:
    return f"row_{sym}"


def col_attr(sym: str) -> str:
    return f"col_{sym}"


def type_attrs(t: MatrixType) -> frozenset[str]:
    attrs = set()
    if t.rows != UNIT:
        attrs.add(row_attr(t.rows))
    if t.cols != UNIT:
        attrs.add(col_attr(t.cols))
    return frozenset(attrs)


def rel_schema_of(schema: Schema, dims=None) -> dict[str, frozenset[str]]:
    """Relational schema of the encoding of a matrix schema."""
    out = {}
    syms = set()
    for name, t in schema.vars.items():
        out[rel_name(name)] = type_attrs(t)
        syms.update(s for s in (t.rows, t.cols) if s != UNIT)
    if dims:
        syms.update(s for s in dims if s != UNIT)
    for sym in syms:
        out[dom_name(sym)] = frozenset({sym})
    return out


def rel_encode(schema: Schema, inst: Instance, sr: Semiring):
    """Encode an instance; returns (relational schema, relation instance)."""
    relschema = rel_schema_of(schema, inst.dims)
    rels: dict[str, KRelation] = {}
    for name, t in schema.vars.items():
        mat = inst.mats.get(name)
        if mat is None:
            continue
        # `col_<sym>` sorts before `row_<sym>`, so a column pair goes first
        rows = [((row_attr(t.rows), i),) if t.rows != UNIT else ()
                for i in range(1, mat.rows + 1)]
        cols = [((col_attr(t.cols), j),) if t.cols != UNIT else ()
                for j in range(1, mat.cols + 1)]
        keys = (col + row for row in rows for col in cols)
        items = [(k, v) for k, v in zip(keys, mat.entries) if v != sr.zero]
        rels[rel_name(name)] = KRelation.build(relschema[rel_name(name)],
                                               items, sr)
    for sym, n in inst.dims.items():
        if sym == UNIT:
            continue
        items = [(((sym, i),), sr.one) for i in range(1, n + 1)]
        rels[dom_name(sym)] = KRelation.build(frozenset({sym}), items, sr)
    return relschema, rels


# ---------------------------------------------------------------------------
# phi: additive fragment -> relational algebra


class _Phi:
    def __init__(self, table):
        self.table = table
        self.fresh = _Fresh(())

    def dom_join(self, attr, sym):
        return Rename(((attr, sym),), Rel(dom_name(sym)))

    def rename_keeping(self, q, sig, changes):
        """Rename `changes` (new -> old) and keep every other attribute."""
        mapping = dict(changes)
        touched = set(mapping.values())
        for a in sig:
            if a not in touched:
                mapping[a] = a
        new_sig = frozenset(mapping)
        if all(new == old for new, old in mapping.items()):
            return q, sig
        return Rename(tuple(mapping.items()), q), new_sig

    def pad(self, q, sig, missing, itersyms):
        for attr in sorted(missing):
            q = Join(q, self.dom_join(attr, itersyms[attr]))
            sig = sig | {attr}
        return q, sig

    def translate(self, e, scope):
        """A `drive` rule returning (relational expr, signature).

        `scope` is ``(types, env, itersyms)``: `types` gives the type of
        every name in scope, `env` maps bound iterator names to attributes,
        `itersyms` attributes back to their size symbols.  The ``row_`` and
        ``col_`` attributes of a signature are the non-unit symbols of its
        node's type, so transposes and products read them from there.
        """
        types, env, itersyms = scope

        if isinstance(e, Var):
            if e.name in env:
                attr = env[e.name]
                sym = itersyms[attr]
                ra = row_attr(sym)
                q = Select(frozenset({ra, attr}),
                           Join(self.dom_join(ra, sym),
                                self.dom_join(attr, sym)))
                return q, frozenset({ra, attr})
            return Rel(rel_name(e.name)), type_attrs(types[e.name])

        if isinstance(e, Transpose):
            q, sig = yield e.arg, scope
            swap = {"row_": "col_", "col_": "row_"}
            return self.rename_keeping(q, sig, {
                swap[a[:4]] + a[4:]: a for a in sig if a[:4] in swap})

        if isinstance(e, (Add, ScalarMul, Apply)):
            # a sum of operands is a union, each padded to one signature;
            # a product of them is a join
            op = "hsum" if isinstance(e, Add) else "hprod"
            if isinstance(e, Apply):
                p = pointwise(e.func)
                if p is None:
                    raise UnsupportedFunction(
                        f"function {_echo(e.func)} has no relational "
                        f"counterpart")
                op = p[0]
            first, *rest = children(e)
            q, sig = yield first, scope
            for c in rest:
                q2, s2 = yield c, scope
                if op == "hprod":
                    q, sig = Join(q, q2), sig | s2
                else:
                    q, sig = self.pad(q, sig, s2 - sig, itersyms)
                    q2, s2 = self.pad(q2, s2, sig - s2, itersyms)
                    q = Union(q, q2)
            return q, sig

        if isinstance(e, MatMul):
            q1, s1 = yield e.left, scope
            q2, s2 = yield e.right, scope
            inner = [a[4:] for a in s1 if a.startswith("col_")]
            if not inner:
                return Join(q1, q2), s1 | s2
            mid = self.fresh.name("mid_")
            q1, s1 = self.rename_keeping(q1, s1, {mid: col_attr(*inner)})
            q2, s2 = self.rename_keeping(q2, s2, {mid: row_attr(*inner)})
            out_sig = (s1 | s2) - {mid}
            return Project(out_sig, Join(q1, q2)), out_sig

        if isinstance(e, For):
            body = summand(e, self.table)
            if body is None:
                raise NotInSumFragment(
                    "only additive loops can be translated")
            sym = iterator_type(e, types).rows
            attr = self.fresh.name("it_")
            inner_types = dict(types)
            inner_types[e.var] = MatrixType(sym, UNIT)
            inner_env = dict(env)
            inner_env[e.var] = attr
            inner_syms = dict(itersyms)
            inner_syms[attr] = sym
            q, sig = yield body, (inner_types, inner_env, inner_syms)
            q, sig = self.pad(q, sig, {attr} - sig, inner_syms)
            out_sig = sig - {attr}
            return Project(out_sig, q), out_sig

        raise NotInSumFragment(
            f"{type(e).__name__} nodes have no relational counterpart")


def phi_translate(e: Expr, schema: Schema) -> RAExpr:
    """Translate an additive-fragment expression over `schema` to relational
    algebra over its encoding."""
    core = desugar(e, schema)
    types = dict(schema.vars)
    type_in_env(core, types)
    q, _ = drive(core, (types, {}, {}), _Phi(node_table(core)).translate)
    return q


# ---------------------------------------------------------------------------
# psi: relational algebra -> additive fragment


def active_domain(rels: dict[str, KRelation]) -> list[int]:
    dom = set()
    for rel in rels.values():
        dom |= rel.adom()
    return sorted(dom)


def check_binary(relschema: dict[str, frozenset[str]]):
    for name, attrs in relschema.items():
        if len(attrs) > 2:
            raise SchemaNotBinary(
                f"relation {_echo(name)} has arity {len(attrs)} > 2")


def mat_var(name: str) -> str:
    return f"V_{name}"


def mat_schema(relschema: dict[str, frozenset[str]]) -> Schema:
    check_binary(relschema)
    schema = Schema()
    for name, attrs in relschema.items():
        if len(attrs) == 2:
            t = MatrixType(MAT_SYM, MAT_SYM)
        elif len(attrs) == 1:
            t = MatrixType(MAT_SYM, UNIT)
        else:
            t = MatrixType(UNIT, UNIT)
        schema.declare(mat_var(name), t)
    return schema


def mat_encode(relschema: dict[str, frozenset[str]],
               rels: dict[str, KRelation],
               sr: Semiring):
    """Encode a binary relation instance as matrices over the active domain
    (taken in ascending order); returns (schema, instance)."""
    schema = mat_schema(relschema)
    dom = active_domain(rels)
    if not dom:
        raise EmptyActiveDomain(
            "cannot encode an instance with an empty active domain")
    n = len(dom)
    mats = {}
    index = {d: i for i, d in enumerate(dom)}
    for name, attrs in relschema.items():
        rel = rels.get(name, KRelation(attrs))
        if rel.signature != attrs:
            raise SignatureViolation(
                f"relation {_echo(name)} has signature "
                f"{_echo_names(rel.signature)}, not {_echo_names(attrs)}")
        shape = ((1, 1), (n, 1), (n, n))[len(attrs)]
        ent = [sr.zero] * (shape[0] * shape[1])
        for t, v in rel.check().support.items():
            at = 0
            for _, d in t:
                at = at * n + index[d]
            ent[at] = v
        mats[mat_var(name)] = KMatrix(*shape, tuple(ent))
    return schema, Instance({MAT_SYM: n}, mats)


def product(factors: list[tuple[Expr, frozenset[str]]]) -> Expr:
    """Left-deep matrix product of a non-empty list of factors, each an
    expression paired with the iterator names free in it."""
    return reduce(MatMul, [e for e, _ in factors])


class _Psi:
    def __init__(self, relschema):
        self.relschema = relschema
        self.fresh = _Fresh(())

    def translate(self, q, scope):
        """A `drive` rule returning the query's factors.

        Each factor is a 1x1 expression paired with the iterator names free
        in it; the query's value is the product of the factors.  `scope`
        maps each attribute to its cell, a one-item list that holds the
        attribute's iterator name once a relation has named it.  The
        operands of a union or join share their parent's scope, and the
        left one is visited first, so its name wins for a shared attribute.
        A projection gives its operand the parent's cells for the kept
        attributes, then sums each dropped attribute's iterator over only
        the factors that mention it and leaves the others outside the sum.
        """
        if isinstance(q, Rel):
            names = []
            for attr in sorted(self.relschema[q.name]):
                cell = scope.setdefault(attr, [None])
                name = self.fresh.name("_t")
                if cell[0] is None:
                    cell[0] = name
                names.append(cell[0])
            v = Var(mat_var(q.name))
            if len(names) == 2:
                a, b = names
                v = MatMul(MatMul(Transpose(Var(a)), v), Var(b))
            elif names:
                v = MatMul(Transpose(Var(names[0])), v)
            return [(v, frozenset(names))]

        if isinstance(q, Union):
            left = yield q.left, scope
            right = yield q.right, scope
            return [(Add(product(left), product(right)), free(left))]

        if isinstance(q, Join):
            left = yield q.left, scope
            return left + (yield q.right, scope)

        if isinstance(q, Project):
            inner = {a: scope.setdefault(a, [None]) for a in q.attrs}
            factors = yield q.arg, inner
            for attr in sorted(inner.keys() - q.attrs):
                t = inner[attr][0]
                uses = [t in ts for _, ts in factors]
                inside = [f for f, u in zip(factors, uses) if u]
                first = uses.index(True)
                summed = (Sum(t, product(inside), var_sym=MAT_SYM),
                          free(inside) - {t})
                factors = (factors[:first] + [summed]
                           + [f for f, u in zip(factors[first:], uses[first:])
                              if not u])
            return factors

        if isinstance(q, Select):
            factors = yield q.arg, scope
            names = [scope[a][0] for a in sorted(q.attrs)]
            return factors + [(MatMul(Transpose(Var(a)), Var(b)),
                               frozenset((a, b)))
                              for a, b in zip(names, names[1:])]

        if isinstance(q, Rename):
            return (yield q.arg, {old: scope.setdefault(new, [None])
                                  for new, old in q.mapping})

        raise TypeError(f"not a relational expression: {q!r}")


def free(factors) -> frozenset[str]:
    """The iterator names free in any of `factors`."""
    return frozenset().union(*[ts for _, ts in factors])


def psi_translate(q: RAExpr, relschema: dict[str, frozenset[str]]) -> Expr:
    """Translate a query over a binary schema to an additive-fragment
    expression over `mat_schema(relschema)`.

    Loop binders carry inline type annotations, so the returned expression
    evaluates with just that schema.  A binary query's output loop is
    ``sum va . (outer) .* (va * (sum vb . (inner) .* vb^T))``: the factors
    that mention ``vb`` are summed over ``vb`` into a row once per ``va``,
    which is O(n^3) semiring work for the n x n result where summing the
    whole product times ``va * vb^T`` over both would be O(n^4).
    """
    check_binary(relschema)
    sig = relalg.signature_of(q, relschema)
    if len(sig) > 2:
        raise OutputArityTooLarge(
            f"query signature {_echo_names(sig)} has arity {len(sig)} > 2")
    scope = {}
    factors = drive(q, scope, _Psi(relschema).translate)
    order = sorted(sig)
    if len(order) == 2:
        va, vb = scope[order[0]][0], scope[order[1]][0]
        inner = [f for f in factors if vb in f[1]]
        outer = [f for f in factors if vb not in f[1]]
        row = Sum(vb, ScalarMul(product(inner), Transpose(Var(vb))),
                  var_sym=MAT_SYM)
        body = MatMul(Var(va), row)
        if outer:
            body = ScalarMul(product(outer), body)
        return Sum(va, body, var_sym=MAT_SYM)
    if len(order) == 1:
        va = scope[order[0]][0]
        return Sum(va, ScalarMul(product(factors), Var(va)), var_sym=MAT_SYM)
    return product(factors)
