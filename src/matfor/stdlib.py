"""Library of named expressions: the programs the language exists for.

Every entry is a `NamedExpr`: an expression over a schema template with a
single size symbol ``alpha``, whose free declared names are the input
variables an instance must provide.  Subexpressions used several times are
shared by object reference, which the evaluator's memoisation turns into
DAG-cost evaluation.

Groups:

* basics - ones vector, diagonal embedding, identity, the order predicates
  over canonical vectors (index comparison, first/last tests, index shift).
* graph queries - ordered-4-clique counting and reflexive-transitive
  closure via `gtz((I + A)^n)`.
* LU suite - column extraction below a pivot, one elimination step, and the
  loops producing U and the unit lower-triangular L with L*U = A for
  LU-factorizable inputs.
* PLU suite - row-pivoted elimination: a transform M and upper-triangular U
  with M*A = U for arbitrary square A (first nonzero entry at or below the
  diagonal is chosen as pivot; columns with no pivot are skipped).
* characteristic-polynomial suite - matrix powers and traces, triangular
  inversion as a product of elementary column stages, the Newton-identity
  triangular system for the characteristic-polynomial coefficients,
  determinant and inverse.

The coefficient convention: with p(x) = x^n + c_1 x^(n-1) + ... + c_n the
coefficients satisfy the lower-triangular system (D + N) * c = -b, where
D = diag(1..n), N holds the power traces tr(A^(i-j)) below the diagonal,
and b = (tr(A^1), ..., tr(A^n)).  Then
det(A) = (-1)^n c_n and, by Cayley-Hamilton,
A^{-1} = -(1/c_n) * (A^(n-1) + sum_{i=1..n-1} c_i A^(n-1-i)).
`inverse` weighs A^k there by e_max^T S^k w and I by e_max^T w, where S is
the shift and w = S c + e_min = (1, c_1, ..., c_(n-1)); the evaluator's memo
shares A^k and S^k with the trace vector and the Newton system.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ast import (Add, Apply, Const, Expr, For, MatMul, MatrixType, Ones,
                  OrderKind, OrderPrim, Prod, Schema, ScalarMul, Sum,
                  Transpose, UNIT, Var, free_vars)

ALPHA = "alpha"
_COL = MatrixType(ALPHA, UNIT)
_SQ = MatrixType(ALPHA, ALPHA)
_SC = MatrixType(UNIT, UNIT)


@dataclass(frozen=True)
class NamedExpr:
    """A library program.  Its `inputs`, the variables an instance must
    provide, are the names `schema` declares that are free in `expr`, in
    declaration order."""

    name: str
    expr: Expr
    schema: Schema
    description: str = ""

    @property
    def inputs(self) -> tuple[str, ...]:
        free = free_vars(self.expr)
        return tuple(name for name in self.schema.vars if name in free)


# ---------------------------------------------------------------------------
# small construction helpers


def _mm(*es):
    out = es[0]
    for e in es[1:]:
        out = MatMul(out, e)
    return out


def _add(*es):
    out = es[0]
    for e in es[1:]:
        out = Add(out, e)
    return out


def _neg(e):
    return ScalarMul(Const(-1), e)


def _one_minus(e):
    return Add(Const(1), _neg(e))


def _sless():
    return OrderPrim(OrderKind.SLESS, ALPHA)


def _emax():
    return OrderPrim(OrderKind.EMAX, ALPHA)


class _Decls:
    """Collects binder declarations while a template is assembled."""

    def __init__(self, inputs):
        self.types = dict(inputs)

    def bind(self, name, t):
        old = self.types.get(name)
        if old is not None and old != t:
            raise ValueError(f"binder '{name}' redeclared as {t}, was {old}")
        self.types[name] = t
        return Var(name)

    def schema(self):
        return Schema(self.types)


def _identity(b):
    """e_Id as a sum of outer products of canonical vectors."""
    j = b.bind("j", _COL)
    return Sum("j", _mm(j, Transpose(j)))


def _le(x, y, eid):
    """Index comparison: one iff index(x) <= index(y)."""
    return _mm(Transpose(x), Add(eid, _sless()), y)


def _lt(x, y):
    """Strict index comparison: one iff index(x) < index(y)."""
    return _mm(Transpose(x), _sless(), y)


def _pow(b, base, idx, eid):
    """base^k when `idx` is the k-th canonical vector.

    Each product stage selects `base` while the stage index is at most k and
    the identity after; the two selectors are complementary order predicates
    on canonical vectors, so the construction stays inside every semiring.
    The stages all vanish when `idx` is the zero vector.
    """
    p = b.bind("p", _COL)
    return Prod("p", Add(ScalarMul(_le(p, idx, eid), base),
                          ScalarMul(_lt(idx, p), eid)))


def _power_trace(b, m, idx, eid):
    """tr(base^k) for idx = b_k."""
    t = b.bind("t", _COL)
    return Sum("t", _mm(Transpose(t), _pow(b, m, idx, eid), t))


def _shift(b, vec, idx, eid):
    """Shift a column vector down by k positions (idx = b_k)."""
    w = b.bind("w", _COL)
    step = _pow(b, OrderPrim(OrderKind.NSHIFT, ALPHA), idx, eid)
    return Sum("w", ScalarMul(_mm(Transpose(w), vec), _mm(step, w)))


def _power_series(b, m, eid):
    """I + m + m^2 + ... + m^n."""
    q = b.bind("q", _COL)
    return Add(eid, Sum("q", _pow(b, m, q, eid)))


def _get_diag(b, m):
    d = b.bind("d", _COL)
    return Sum("d", ScalarMul(_mm(Transpose(d), m, d), _mm(d, Transpose(d))))


def _diag_inverse(b, m):
    d = b.bind("d", _COL)
    return Sum("d", ScalarMul(Apply("div", (Const(1), _mm(Transpose(d), m, d))),
                              _mm(d, Transpose(d))))


def _upper_inv(b, m, eid):
    """Inverse of an invertible upper-triangular matrix.

    With D the diagonal part, U = D (I + N), N = D^-1 (U - D) strictly
    upper.  Column u_j = N e_j is zero from row j down, so (I + N)^-1 is the
    product of the n stages I - u_j e_j^T in ascending j.
    """
    dinv, e = _diag_inverse(b, m), b.bind("e", _COL)
    strict = _mm(dinv, Add(m, _neg(_get_diag(b, m))))
    return _mm(Prod("e", Add(eid, _neg(_mm(strict, e, Transpose(e))))), dinv)


def _lower_inv(b, m, eid):
    return Transpose(_upper_inv(b, Transpose(m), eid))


def _index_diagonal(b, eid):
    """diag(1, 2, ..., n)."""
    c, u = b.bind("c", _COL), b.bind("u", _COL)
    return Sum("c", ScalarMul(Sum("u", _le(u, c, eid)), _mm(c, Transpose(c))))


def _col_below(b, m, pivot):
    """Column at the pivot index with entries at or above the pivot zeroed."""
    i = b.bind("i", _COL)
    c = b.bind("C", _COL)
    body = Add(ScalarMul(MatMul(_lt(pivot, i), _mm(Transpose(i), m, pivot)), i),
               c)
    return For("i", "C", body)


def _elim_step(b, m, pivot, eid):
    """I + c * pivot^T: zeroes the pivot column below the diagonal."""
    quotient = Apply("div", (
        _col_below(b, m, pivot),
        ScalarMul(_neg(_mm(Transpose(pivot), m, pivot)), Ones(pivot))))
    return Add(eid, MatMul(quotient, Transpose(pivot)))


def _elim_before(b, m, pivot, eid):
    """Product of the elimination steps strictly before the pivot index."""
    z = b.bind("z", _COL)
    w = b.bind("W", _SQ)
    guard = _lt(z, pivot)
    body = Add(ScalarMul(guard, _mm(_elim_step(b, _mm(w, m), z, eid), w)),
               ScalarMul(_one_minus(guard), w))
    return For("z", "W", body, init=eid)


# ---------------------------------------------------------------------------
# basics


def build_basics() -> list[NamedExpr]:
    out = []

    b = _Decls({})
    i = b.bind("i", _COL)
    s = b.bind("S", _COL)
    out.append(NamedExpr(
        "ones_vec", For("i", "S", Add(s, i)), b.schema(),
        description="all-ones column vector, accumulated one basis vector "
                    "at a time"))

    b = _Decls({"a": _COL})
    k = b.bind("k", _COL)
    g = b.bind("G", _SQ)
    body = Add(g, ScalarMul(_mm(Transpose(k), Var("a")),
                            _mm(k, Transpose(k))))
    out.append(NamedExpr(
        "diag_embed", For("k", "G", body), b.schema(),
        description="square matrix with the input vector on the diagonal"))

    b = _Decls({})
    out.append(NamedExpr(
        "identity", _identity(b), b.schema(),
        description="identity matrix as a sum of outer products"))

    b = _Decls({"w": _COL, "v": _COL})
    eid = _identity(b)
    out.append(NamedExpr(
        "index_le", _le(Var("w"), Var("v"), eid), b.schema(),
        description="one iff index(w) <= index(v) on canonical vectors"))

    b = _Decls({"y": _COL, "v": _COL})
    out.append(NamedExpr(
        "index_lt", _lt(Var("y"), Var("v")), b.schema(),
        description="one iff index(y) < index(v) on canonical vectors"))

    b = _Decls({"v": _COL})
    out.append(NamedExpr(
        "is_first", _mm(Transpose(OrderPrim(OrderKind.EMIN, ALPHA)), Var("v")),
        b.schema(),
        description="one iff the input is the first canonical vector"))

    b = _Decls({"v": _COL})
    out.append(NamedExpr(
        "is_last", _mm(Transpose(_emax()), Var("v")), b.schema(),
        description="one iff the input is the last canonical vector"))

    b = _Decls({})
    out.append(NamedExpr(
        "last_basis", _emax(), b.schema(),
        description="the last canonical vector"))

    b = _Decls({"v": _COL})
    eid = _identity(b)
    out.append(NamedExpr(
        "shift_by_index",
        _pow(b, OrderPrim(OrderKind.NSHIFT, ALPHA), Var("v"), eid),
        b.schema(),
        description="k-step shift matrix when the input is b_k"))

    b = _Decls({"a": _COL, "v": _COL})
    eid = _identity(b)
    out.append(NamedExpr(
        "shift_vector", _shift(b, Var("a"), Var("v"), eid), b.schema(),
        description="shift the entries of `a` down by k positions (v = b_k)"))

    b = _Decls({"A": _SC})
    v = b.bind("v", _COL)
    x = b.bind("X", _SC)
    out.append(NamedExpr(
        "repeated_squaring", For("v", "X", MatMul(x, x), init=Var("A")),
        b.schema(),
        description="squares the accumulator once per canonical vector: "
                    "computes a^(2^n)"))

    return out


# ---------------------------------------------------------------------------
# graph queries


def _clique_body(edge):
    """Nested 4-loop summing products of edge entries over distinct tuples.

    `edge(s, t)` must produce a scalar that is one iff the canonical vectors
    s and t are distinct (the pairwise-distinctness mask).  The factors are
    ordered by binding depth, those over (u, v), then w, then x, so that
    the evaluator's memo computes each prefix once per iteration of the
    loop that binds its last variable, not once per innermost iteration.
    """
    u, v, w, x = Var("u"), Var("v"), Var("w"), Var("x")
    vv = Var("V")

    def pair(a, bb):
        return _mm(Transpose(a), vv, bb)

    body = _mm(pair(u, v), edge(u, v),
               pair(u, w), pair(v, w), edge(u, w), edge(v, w),
               pair(u, x), pair(v, x), pair(w, x),
               edge(u, x), edge(v, x), edge(w, x))
    inner = For("x", "X4", Add(Var("X4"), body))
    inner = For("w", "X3", Add(Var("X3"), inner))
    inner = For("v", "X2", Add(Var("X2"), inner))
    return For("u", "X1", Add(Var("X1"), inner))


def _clique_decls():
    b = _Decls({"V": _SQ})
    for name in ("u", "v", "w", "x"):
        b.bind(name, _COL)
    for name in ("X1", "X2", "X3", "X4"):
        b.bind(name, _SC)
    return b


def build_graph_queries() -> list[NamedExpr]:
    out = []

    b = _clique_decls()
    out.append(NamedExpr(
        "four_clique",
        _clique_body(lambda a, bb: _one_minus(_mm(Transpose(a), bb))),
        b.schema(),
        description="number of ordered distinct 4-tuples inducing a clique; "
                    "distinctness mask 1 - s^T t needs a -1 literal, so this "
                    "form is for the real semiring"))

    b = _clique_decls()
    mask = Add(_sless(), Transpose(_sless()))
    out.append(NamedExpr(
        "four_clique_order",
        _clique_body(lambda a, bb: _mm(Transpose(a), mask, bb)),
        b.schema(),
        description="four_clique with the distinctness mask built from the "
                    "order matrix; valid over every semiring"))

    b = _Decls({"V": _SQ})
    eid = _identity(b)
    t = b.bind("t", _COL)
    out.append(NamedExpr(
        "transitive_closure",
        Apply("gtz", (Prod("t", Add(eid, Var("V"))),)),
        b.schema(),
        description="reflexive-transitive closure indicator: nonzero "
                    "entries of (I + A)^n"))

    return out


# ---------------------------------------------------------------------------
# LU suite


def build_lu_suite() -> list[NamedExpr]:
    out = []

    b = _Decls({"V": _SQ, "y": _COL})
    out.append(NamedExpr(
        "pivot_column", _col_below(b, Var("V"), Var("y")), b.schema(),
        description="pivot column with entries at or above the pivot zeroed"))

    b = _Decls({"V": _SQ, "y": _COL})
    eid = _identity(b)
    out.append(NamedExpr(
        "elimination_step", _elim_step(b, Var("V"), Var("y"), eid),
        b.schema(),
        description="Gaussian elimination step for the pivot column"))

    b = _Decls({"V": _SQ})
    eid = _identity(b)
    y = b.bind("y", _COL)
    f = b.bind("F", _SQ)
    loop = For("y", "F", _mm(_elim_step(b, _mm(f, Var("V")), y, eid), f),
               init=eid)
    out.append(NamedExpr(
        "lu_upper", MatMul(loop, Var("V")), b.schema(),
        description="upper-triangular factor by column-wise elimination"))

    b = _Decls({"V": _SQ})
    eid = _identity(b)
    y = b.bind("y", _COL)
    state = _mm(_elim_before(b, Var("V"), y, eid), Var("V"))
    multipliers = Apply("div", (
        _col_below(b, state, y),
        ScalarMul(_neg(_mm(Transpose(y), state, y)), Ones(y))))
    # the step inverses (I + c y^T)^-1 = I - c y^T collapse into one sum
    out.append(NamedExpr(
        "lu_lower",
        Add(eid, Sum("y", MatMul(_neg(multipliers), Transpose(y)))),
        b.schema(),
        description="unit lower-triangular factor with L * U = A"))

    return out


# ---------------------------------------------------------------------------
# PLU suite


def build_plu_suite() -> list[NamedExpr]:
    b = _Decls({"V": _SQ})
    eid = _identity(b)
    y = b.bind("y", _COL)
    f = b.bind("F", _SQ)
    w = b.bind("w", _COL)
    u = b.bind("u", _COL)
    state = _mm(f, Var("V"))

    def nonzero_at_or_below(row):
        entry = _mm(Transpose(row), state, y)
        return ScalarMul(Apply("gtz", (MatMul(entry, entry),)),
                         _le(y, row, eid))

    earlier = Sum("u", ScalarMul(_lt(u, w), nonzero_at_or_below(u)))
    first = ScalarMul(nonzero_at_or_below(w),
                      _one_minus(Apply("gtz", (earlier,))))
    pivot = Sum("w", ScalarMul(first, w))
    has_pivot = Apply("gtz", (_mm(Transpose(Ones(pivot)), pivot),))
    swap = Add(eid, ScalarMul(has_pivot, _add(
        _neg(_mm(y, Transpose(y))),
        _neg(_mm(pivot, Transpose(pivot))),
        _mm(y, Transpose(pivot)),
        _mm(pivot, Transpose(y)))))
    swapped = _mm(swap, state)
    # denominator stays -1 when the column has no pivot, so the multiplier
    # column (all zeros below the diagonal in that case) divides cleanly
    denom = ScalarMul(
        _neg(Add(_mm(Transpose(y), swapped, y), _one_minus(has_pivot))),
        Ones(y))
    step = Add(eid, MatMul(Apply("div", (_col_below(b, swapped, y), denom)),
                           Transpose(y)))
    transform = For("y", "F", _mm(step, swap, f), init=eid)

    return [
        NamedExpr("plu_transform", transform, b.schema(),
                  description="row-pivoted elimination transform M with "
                              "M * A upper triangular"),
        NamedExpr("plu_upper", MatMul(transform, Var("V")), b.schema(),
                  description="upper-triangular image M * A of the pivoted "
                              "elimination"),
    ]


# ---------------------------------------------------------------------------
# characteristic-polynomial suite


def build_csanky_suite() -> list[NamedExpr]:
    out = []

    b = _Decls({"V": _SQ, "v": _COL})
    eid = _identity(b)
    out.append(NamedExpr(
        "matrix_power", _pow(b, Var("V"), Var("v"), eid), b.schema(),
        description="A^k for v = b_k"))

    b = _Decls({"V": _SQ, "v": _COL})
    eid = _identity(b)
    out.append(NamedExpr(
        "power_trace", _power_trace(b, Var("V"), Var("v"), eid), b.schema(),
        description="tr(A^k) for v = b_k"))

    b = _Decls({"V": _SQ, "v": _COL})
    eid = _identity(b)
    u = b.bind("u", _COL)
    out.append(NamedExpr(
        "scaled_power_trace",
        Apply("div", (_power_trace(b, Var("V"), Var("v"), eid),
                      Sum("u", _le(u, Var("v"), eid)))),
        b.schema(),
        description="tr(A^k) / k for v = b_k"))

    b = _Decls({"V": _SQ})
    eid = _identity(b)
    out.append(NamedExpr(
        "power_sum", _power_series(b, Var("V"), eid), b.schema(),
        description="I + A + A^2 + ... + A^n"))

    b = _Decls({"V": _SQ})
    out.append(NamedExpr(
        "diagonal_part", _get_diag(b, Var("V")), b.schema(),
        description="diagonal of the input as a diagonal matrix"))

    b = _Decls({"V": _SQ})
    out.append(NamedExpr(
        "diagonal_inverse", _diag_inverse(b, Var("V")), b.schema(),
        description="diagonal matrix of reciprocal diagonal entries"))

    b = _Decls({"V": _SQ})
    eid = _identity(b)
    out.append(NamedExpr(
        "upper_tri_inverse", _upper_inv(b, Var("V"), eid), b.schema(),
        description="inverse of an invertible upper-triangular matrix"))

    b = _Decls({"V": _SQ})
    eid = _identity(b)
    out.append(NamedExpr(
        "lower_tri_inverse", _lower_inv(b, Var("V"), eid), b.schema(),
        description="inverse of an invertible lower-triangular matrix"))

    b = _Decls({})
    eid = _identity(b)
    out.append(NamedExpr(
        "index_diagonal", _index_diagonal(b, eid), b.schema(),
        description="diagonal matrix with entries 1, 2, ..., n"))

    def trace_vector(b, eid):
        r = b.bind("r", _COL)
        return Sum("r", ScalarMul(_power_trace(b, Var("V"), r, eid), r))

    b = _Decls({"V": _SQ})
    eid = _identity(b)
    out.append(NamedExpr(
        "trace_vector", trace_vector(b, eid), b.schema(),
        description="column of power traces (tr(A^1), ..., tr(A^n))"))

    def newton_matrix(b, eid):
        # trace_vector's iterator: S^k shares its power stages' selectors
        counts, r = _index_diagonal(b, eid), b.bind("r", _COL)
        shifted = _shift(b, trace_vector(b, eid), r, eid)
        return Add(counts, Sum("r", MatMul(shifted, Transpose(r))))

    b = _Decls({"V": _SQ})
    eid = _identity(b)
    out.append(NamedExpr(
        "newton_matrix", newton_matrix(b, eid), b.schema(),
        description="lower-triangular Newton-identity system matrix "
                    "diag(1..n) + shifted power traces"))

    def charpoly(b, eid):
        traces = trace_vector(b, eid)
        return MatMul(_lower_inv(b, newton_matrix(b, eid), eid), _neg(traces))

    b = _Decls({"V": _SQ})
    eid = _identity(b)
    out.append(NamedExpr(
        "charpoly_coeffs", charpoly(b, eid), b.schema(),
        description="coefficients (c_1, ..., c_n) of the characteristic "
                    "polynomial x^n + c_1 x^(n-1) + ... + c_n"))

    def inv_power(b, base, idx, eid):
        g = b.bind("g", _COL)
        inner = Add(ScalarMul(_lt(idx, g), base),
                    ScalarMul(_le(g, idx, eid), eid))
        return Prod("g", Add(ScalarMul(_lt(g, _emax()), inner),
                             ScalarMul(_mm(Transpose(_emax()), g), eid)))

    b = _Decls({"V": _SQ, "v": _COL})
    eid = _identity(b)
    out.append(NamedExpr(
        "inverse_power", inv_power(b, Var("V"), Var("v"), eid), b.schema(),
        description="A^(n-1-k) for v = b_k (identity for k >= n-1)"))

    b = _Decls({"V": _SQ})
    eid = _identity(b)
    m = b.bind("m", _COL)
    i2 = b.bind("i", _COL)
    s2 = b.bind("S", _COL)
    ones = For("i", "S", Add(s2, i2))
    sign = _mm(Transpose(ScalarMul(Prod("m", Const(-1)), ones)), _emax())
    out.append(NamedExpr(
        "determinant",
        _mm(Transpose(ScalarMul(sign, charpoly(b, eid))), _emax()),
        b.schema(),
        description="determinant via (-1)^n times the last characteristic "
                    "coefficient"))

    b = _Decls({"V": _SQ})
    eid = _identity(b)
    coeffs = charpoly(b, eid)
    shift = OrderPrim(OrderKind.NSHIFT, ALPHA)
    weights = Add(MatMul(shift, coeffs), OrderPrim(OrderKind.EMIN, ALPHA))
    r = b.bind("r", _COL)
    powers = Sum("r", ScalarMul(
        _mm(Transpose(_emax()), _pow(b, shift, r, eid), weights),
        _pow(b, Var("V"), r, eid)))
    tail = Add(ScalarMul(_mm(Transpose(_emax()), weights), eid), powers)
    last_coeff = _mm(Transpose(coeffs), _emax())
    out.append(NamedExpr(
        "inverse", ScalarMul(_neg(Apply("div", (Const(1), last_coeff))), tail),
        b.schema(),
        description="matrix inverse via Cayley-Hamilton and the "
                    "characteristic coefficients"))

    return out


def all_named() -> dict[str, NamedExpr]:
    out = {}
    for group in (build_basics(), build_graph_queries(), build_lu_suite(),
                  build_plu_suite(), build_csanky_suite()):
        for item in group:
            out[item.name] = item
    return out
