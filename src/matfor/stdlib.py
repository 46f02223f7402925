"""Library of named expressions: the programs the language exists for.

Every entry is a `NamedExpr`: an expression over a schema template with a
single size symbol ``alpha``, whose free variables are the inputs an
instance must provide.  Subexpressions used several times are shared by
object reference, which the evaluator's memoisation turns into DAG-cost
evaluation.

A program declares only its inputs.  Every name a library loop binds has
one type, given by `_BINDERS`: iterators and the vector accumulators ``C``
and ``S`` are ``alpha x 1``, the matrix accumulators ``F``, ``G`` and ``W``
are ``alpha x alpha``, and the scalar accumulators ``X``, ``X1``-``X4`` are
``1 x 1``.  A program's schema is its inputs, then the table's types of the
names its loops bind, in name order.

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
from functools import cached_property, reduce

from .ast import (Add, Apply, Const, Expr, For, MatMul, MatrixType, Ones,
                  OrderKind, OrderPrim, Prod, Schema, ScalarMul, Sum,
                  Transpose, UNIT, Var, bound_names)

ALPHA = "alpha"
_COL = MatrixType(ALPHA, UNIT)
_SQ = MatrixType(ALPHA, ALPHA)
_SC = MatrixType(UNIT, UNIT)

_BINDERS = {**dict.fromkeys([*"cdegijkmpqrtuvwxyz", "C", "S"], _COL),
            **dict.fromkeys("FGW", _SQ),
            **dict.fromkeys(["X", "X1", "X2", "X3", "X4"], _SC)}


@dataclass(frozen=True)
class NamedExpr:
    """A library program.  `input_types` declares the variables an
    instance must provide, which are `inputs` in that order; `schema` adds
    the `_BINDERS` type of every name bound in `expr`, sorted by name."""

    name: str
    expr: Expr
    input_types: dict[str, MatrixType]
    description: str = ""

    @property
    def inputs(self) -> tuple[str, ...]:
        return tuple(self.input_types)

    @cached_property
    def schema(self) -> Schema:
        bound = sorted(bound_names(self.expr))
        return Schema(self.input_types).merged(
            Schema({name: _BINDERS[name] for name in bound}))


# ---------------------------------------------------------------------------
# small construction helpers


def _mm(*es):
    return reduce(MatMul, es)


def _add(*es):
    return reduce(Add, es)


def _neg(e):
    return ScalarMul(Const(-1), e)


def _one_minus(e):
    return Add(Const(1), _neg(e))


_SLESS = OrderPrim(OrderKind.SLESS, ALPHA)
_EMIN = OrderPrim(OrderKind.EMIN, ALPHA)
_EMAX = OrderPrim(OrderKind.EMAX, ALPHA)
_NSHIFT = OrderPrim(OrderKind.NSHIFT, ALPHA)

# e_Id as a sum of outer products of canonical vectors
_J = Var("j")
_EID = Sum("j", _mm(_J, Transpose(_J)))


def _le(x, y):
    """Index comparison: one iff index(x) <= index(y)."""
    return _mm(Transpose(x), Add(_EID, _SLESS), y)


def _lt(x, y):
    """Strict index comparison: one iff index(x) < index(y)."""
    return _mm(Transpose(x), _SLESS, y)


def _pow(base, idx):
    """base^k when `idx` is the k-th canonical vector.

    Each product stage selects `base` while the stage index is at most k and
    the identity after; the two selectors are complementary order predicates
    on canonical vectors, so the construction stays inside every semiring.
    The stages all vanish when `idx` is the zero vector.
    """
    p = Var("p")
    return Prod("p", Add(ScalarMul(_le(p, idx), base),
                          ScalarMul(_lt(idx, p), _EID)))


def _power_trace(m, idx):
    """tr(base^k) for idx = b_k."""
    t = Var("t")
    return Sum("t", _mm(Transpose(t), _pow(m, idx), t))


def _shift(vec, idx):
    """Shift a column vector down by k positions (idx = b_k)."""
    w = Var("w")
    step = _pow(_NSHIFT, idx)
    return Sum("w", ScalarMul(_mm(Transpose(w), vec), _mm(step, w)))


def _power_series(m):
    """I + m + m^2 + ... + m^n."""
    return Add(_EID, Sum("q", _pow(m, Var("q"))))


def _get_diag(m):
    d = Var("d")
    return Sum("d", ScalarMul(_mm(Transpose(d), m, d), _mm(d, Transpose(d))))


def _diag_inverse(m):
    d = Var("d")
    recip = Apply("div", (Const(1), _mm(Transpose(d), m, d)))
    return Sum("d", ScalarMul(recip, _mm(d, Transpose(d))))


def _upper_inv(m):
    """Inverse of an invertible upper-triangular matrix.

    With D the diagonal part, U = D (I + N), N = D^-1 (U - D) strictly
    upper.  Column u_j = N e_j is zero from row j down, so (I + N)^-1 is the
    product of the n stages I - u_j e_j^T in ascending j.
    """
    dinv, e = _diag_inverse(m), Var("e")
    strict = _mm(dinv, Add(m, _neg(_get_diag(m))))
    return _mm(Prod("e", Add(_EID, _neg(_mm(strict, e, Transpose(e))))), dinv)


def _lower_inv(m):
    return Transpose(_upper_inv(Transpose(m)))


def _index_diagonal():
    """diag(1, 2, ..., n)."""
    c, u = Var("c"), Var("u")
    return Sum("c", ScalarMul(Sum("u", _le(u, c)), _mm(c, Transpose(c))))


def _col_below(m, pivot):
    """Column at the pivot index with entries at or above the pivot zeroed."""
    i = Var("i")
    entry = MatMul(_lt(pivot, i), _mm(Transpose(i), m, pivot))
    return For("i", "C", Add(ScalarMul(entry, i), Var("C")))


def _elim_step(m, pivot):
    """I + c * pivot^T: zeroes the pivot column below the diagonal."""
    quotient = Apply("div", (
        _col_below(m, pivot),
        ScalarMul(_neg(_mm(Transpose(pivot), m, pivot)), Ones(pivot))))
    return Add(_EID, MatMul(quotient, Transpose(pivot)))


def _elim_before(m, pivot):
    """Product of the elimination steps strictly before the pivot index."""
    z, w = Var("z"), Var("W")
    guard = _lt(z, pivot)
    body = Add(ScalarMul(guard, _mm(_elim_step(_mm(w, m), z), w)),
               ScalarMul(_one_minus(guard), w))
    return For("z", "W", body, init=_EID)


# ---------------------------------------------------------------------------
# basics


def build_basics() -> list[NamedExpr]:
    a, v, k, x = Var("a"), Var("v"), Var("k"), Var("X")
    return [
        NamedExpr("ones_vec", For("i", "S", Add(Var("S"), Var("i"))), {},
                  description="all-ones column vector, accumulated one "
                              "basis vector at a time"),
        NamedExpr("diag_embed",
                  For("k", "G", Add(Var("G"), ScalarMul(
                      _mm(Transpose(k), a), _mm(k, Transpose(k))))),
                  {"a": _COL},
                  description="square matrix with the input vector on the "
                              "diagonal"),
        NamedExpr("identity", _EID, {},
                  description="identity matrix as a sum of outer products"),
        NamedExpr("index_le", _le(Var("w"), v), {"w": _COL, "v": _COL},
                  description="one iff index(w) <= index(v) on canonical "
                              "vectors"),
        NamedExpr("index_lt", _lt(Var("y"), v), {"y": _COL, "v": _COL},
                  description="one iff index(y) < index(v) on canonical "
                              "vectors"),
        NamedExpr("is_first", _mm(Transpose(_EMIN), v), {"v": _COL},
                  description="one iff the input is the first canonical "
                              "vector"),
        NamedExpr("is_last", _mm(Transpose(_EMAX), v), {"v": _COL},
                  description="one iff the input is the last canonical "
                              "vector"),
        NamedExpr("last_basis", _EMAX, {},
                  description="the last canonical vector"),
        NamedExpr("shift_by_index", _pow(_NSHIFT, v), {"v": _COL},
                  description="k-step shift matrix when the input is b_k"),
        NamedExpr("shift_vector", _shift(a, v), {"a": _COL, "v": _COL},
                  description="shift the entries of `a` down by k positions "
                              "(v = b_k)"),
        NamedExpr("repeated_squaring",
                  For("v", "X", MatMul(x, x), init=Var("A")), {"A": _SC},
                  description="squares the accumulator once per canonical "
                              "vector: computes a^(2^n)"),
    ]


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

    def pair(a, b):
        return _mm(Transpose(a), vv, b)

    body = _mm(pair(u, v), edge(u, v),
               pair(u, w), pair(v, w), edge(u, w), edge(v, w),
               pair(u, x), pair(v, x), pair(w, x),
               edge(u, x), edge(v, x), edge(w, x))
    inner = For("x", "X4", Add(Var("X4"), body))
    inner = For("w", "X3", Add(Var("X3"), inner))
    inner = For("v", "X2", Add(Var("X2"), inner))
    return For("u", "X1", Add(Var("X1"), inner))


def build_graph_queries() -> list[NamedExpr]:
    mask = Add(_SLESS, Transpose(_SLESS))
    return [
        NamedExpr("four_clique",
                  _clique_body(lambda a, b: _one_minus(_mm(Transpose(a), b))),
                  {"V": _SQ},
                  description="number of ordered distinct 4-tuples inducing "
                              "a clique; distinctness mask 1 - s^T t needs a "
                              "-1 literal, so this form is for the real "
                              "semiring"),
        NamedExpr("four_clique_order",
                  _clique_body(lambda a, b: _mm(Transpose(a), mask, b)),
                  {"V": _SQ},
                  description="four_clique with the distinctness mask built "
                              "from the order matrix; valid over every "
                              "semiring"),
        NamedExpr("transitive_closure",
                  Apply("gtz", (Prod("t", Add(_EID, Var("V"))),)),
                  {"V": _SQ},
                  description="reflexive-transitive closure indicator: "
                              "nonzero entries of (I + A)^n"),
    ]


# ---------------------------------------------------------------------------
# LU suite


def build_lu_suite() -> list[NamedExpr]:
    v, y, f = Var("V"), Var("y"), Var("F")
    upper = For("y", "F", _mm(_elim_step(_mm(f, v), y), f), init=_EID)
    state = _mm(_elim_before(v, y), v)
    multipliers = Apply("div", (
        _col_below(state, y),
        ScalarMul(_neg(_mm(Transpose(y), state, y)), Ones(y))))
    return [
        NamedExpr("pivot_column", _col_below(v, y), {"V": _SQ, "y": _COL},
                  description="pivot column with entries at or above the "
                              "pivot zeroed"),
        NamedExpr("elimination_step", _elim_step(v, y),
                  {"V": _SQ, "y": _COL},
                  description="Gaussian elimination step for the pivot "
                              "column"),
        NamedExpr("lu_upper", MatMul(upper, v), {"V": _SQ},
                  description="upper-triangular factor by column-wise "
                              "elimination"),
        # the step inverses (I + c y^T)^-1 = I - c y^T collapse into one sum
        NamedExpr("lu_lower",
                  Add(_EID, Sum("y", MatMul(_neg(multipliers), Transpose(y)))),
                  {"V": _SQ},
                  description="unit lower-triangular factor with L * U = A"),
    ]


# ---------------------------------------------------------------------------
# PLU suite


def build_plu_suite() -> list[NamedExpr]:
    y, f, w, u = Var("y"), Var("F"), Var("w"), Var("u")
    state = _mm(f, Var("V"))

    def nonzero_at_or_below(row):
        entry = _mm(Transpose(row), state, y)
        return ScalarMul(Apply("gtz", (MatMul(entry, entry),)), _le(y, row))

    earlier = Sum("u", ScalarMul(_lt(u, w), nonzero_at_or_below(u)))
    first = ScalarMul(nonzero_at_or_below(w),
                      _one_minus(Apply("gtz", (earlier,))))
    pivot = Sum("w", ScalarMul(first, w))
    has_pivot = Apply("gtz", (_mm(Transpose(Ones(pivot)), pivot),))
    swap = Add(_EID, ScalarMul(has_pivot, _add(
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
    step = Add(_EID, MatMul(Apply("div", (_col_below(swapped, y), denom)),
                            Transpose(y)))
    transform = For("y", "F", _mm(step, swap, f), init=_EID)

    return [
        NamedExpr("plu_transform", transform, {"V": _SQ},
                  description="row-pivoted elimination transform M with "
                              "M * A upper triangular"),
        NamedExpr("plu_upper", MatMul(transform, Var("V")), {"V": _SQ},
                  description="upper-triangular image M * A of the pivoted "
                              "elimination"),
    ]


# ---------------------------------------------------------------------------
# characteristic-polynomial suite


def build_csanky_suite() -> list[NamedExpr]:
    v, k = Var("V"), Var("v")

    def trace_vector():
        r = Var("r")
        return Sum("r", ScalarMul(_power_trace(v, r), r))

    def newton_matrix():
        # trace_vector's iterator: S^k shares its power stages' selectors
        r = Var("r")
        shifted = _shift(trace_vector(), r)
        return Add(_index_diagonal(), Sum("r", MatMul(shifted, Transpose(r))))

    def charpoly():
        return MatMul(_lower_inv(newton_matrix()), _neg(trace_vector()))

    def inv_power(base, idx):
        g = Var("g")
        inner = Add(ScalarMul(_lt(idx, g), base), ScalarMul(_le(g, idx), _EID))
        return Prod("g", Add(ScalarMul(_lt(g, _EMAX), inner),
                             ScalarMul(_mm(Transpose(_EMAX), g), _EID)))

    ones = For("i", "S", Add(Var("S"), Var("i")))
    sign = _mm(Transpose(ScalarMul(Prod("m", Const(-1)), ones)), _EMAX)
    determinant = _mm(Transpose(ScalarMul(sign, charpoly())), _EMAX)

    coeffs = charpoly()
    weights = Add(MatMul(_NSHIFT, coeffs), _EMIN)
    r = Var("r")
    powers = Sum("r", ScalarMul(
        _mm(Transpose(_EMAX), _pow(_NSHIFT, r), weights), _pow(v, r)))
    tail = Add(ScalarMul(_mm(Transpose(_EMAX), weights), _EID), powers)
    last_coeff = _mm(Transpose(coeffs), _EMAX)
    inverse = ScalarMul(_neg(Apply("div", (Const(1), last_coeff))), tail)

    square, indexed = {"V": _SQ}, {"V": _SQ, "v": _COL}
    return [
        NamedExpr("matrix_power", _pow(v, k), indexed,
                  description="A^k for v = b_k"),
        NamedExpr("power_trace", _power_trace(v, k), indexed,
                  description="tr(A^k) for v = b_k"),
        NamedExpr("scaled_power_trace",
                  Apply("div", (_power_trace(v, k),
                                Sum("u", _le(Var("u"), k)))),
                  indexed, description="tr(A^k) / k for v = b_k"),
        NamedExpr("power_sum", _power_series(v), square,
                  description="I + A + A^2 + ... + A^n"),
        NamedExpr("diagonal_part", _get_diag(v), square,
                  description="diagonal of the input as a diagonal matrix"),
        NamedExpr("diagonal_inverse", _diag_inverse(v), square,
                  description="diagonal matrix of reciprocal diagonal "
                              "entries"),
        NamedExpr("upper_tri_inverse", _upper_inv(v), square,
                  description="inverse of an invertible upper-triangular "
                              "matrix"),
        NamedExpr("lower_tri_inverse", _lower_inv(v), square,
                  description="inverse of an invertible lower-triangular "
                              "matrix"),
        NamedExpr("index_diagonal", _index_diagonal(), {},
                  description="diagonal matrix with entries 1, 2, ..., n"),
        NamedExpr("trace_vector", trace_vector(), square,
                  description="column of power traces (tr(A^1), ..., "
                              "tr(A^n))"),
        NamedExpr("newton_matrix", newton_matrix(), square,
                  description="lower-triangular Newton-identity system "
                              "matrix diag(1..n) + shifted power traces"),
        NamedExpr("charpoly_coeffs", charpoly(), square,
                  description="coefficients (c_1, ..., c_n) of the "
                              "characteristic polynomial x^n + c_1 x^(n-1) "
                              "+ ... + c_n"),
        NamedExpr("inverse_power", inv_power(v, k), indexed,
                  description="A^(n-1-k) for v = b_k (identity for "
                              "k >= n-1)"),
        NamedExpr("determinant", determinant, square,
                  description="determinant via (-1)^n times the last "
                              "characteristic coefficient"),
        NamedExpr("inverse", inverse, square,
                  description="matrix inverse via Cayley-Hamilton and the "
                              "characteristic coefficients"),
    ]


def all_named() -> dict[str, NamedExpr]:
    out = {}
    for group in (build_basics(), build_graph_queries(), build_lu_suite(),
                  build_plu_suite(), build_csanky_suite()):
        for item in group:
            out[item.name] = item
    return out
