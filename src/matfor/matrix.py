"""Dense matrices over a semiring carrier, plus the canonical vectors.

Storage is a row-major tuple.  `KMatrix` is a slotted class that is
immutable by convention: no code reassigns its fields after construction, so
matrices are safe to share.  Equality and hashing are by identity, never by
entries; the evaluator's memo keys rely on that.  Indexing in code is
0-based; the 1-based convention of the surface language appears only in file
formats and `canonical_vector`.

`mat_mul` computes every entry as the left fold of ``plus`` from `zero` over
the terms ``times(a[i][t], b[t][j])`` in ascending ``t``, and computes the
entries in row-major order: for each entry it makes that entry's ``times``
and ``plus`` calls, alternating, before any call for the next entry.  The
circuit compiler interns gates in call order, so its circuits depend on this
order as much as on the results.  There are three paths:

* inner dimension one (``a`` is a column, ``b`` a row): each row of the
  result is ``map(plus, repeat(zero), map(times, repeat(a_i), b))``;
* the zero-term path below, which leaves some terms out and makes the
  calls it keeps in the same order;
* otherwise each entry is ``reduce(plus, map(times, row, column), zero)``
  over a row of ``a`` and a column of ``b`` sliced once per call.

The first and the last make exactly the calls of the plain triple loop, in
its order, but step through the terms with C-level iterators.

The zero-term path leaves out each term with a `zero` factor when `a` has
more than one row (a single row cannot pay for the column lists it builds),
the inner dimension is above one, an operand holds a `zero`, and
``times(zero, y) == zero`` for every entry ``y`` of both operands.  The
result is bit-identical: a left-out term equals `zero`, and adding it to the
accumulator changes nothing.  Over the reals the accumulator starts at +0.0,
so it is never -0.0, and adding +0.0 or -0.0 to it leaves it as it was; over
min-plus ``min(acc, inf)`` is ``acc``; over bool ``x | 0`` and over the
naturals ``x + 0`` are ``x``.  The check fails where ``times(zero, y)`` is
nan (``y`` = ±inf or nan over the reals, -inf or nan over min-plus), and
then every term stays.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, repeat
from operator import eq
from typing import Any

from .errors import IndexOutOfRange, ShapeMismatch
from .semiring import Semiring


class KMatrix:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[Any, ...]):
        if len(entries) != rows * cols:
            raise ShapeMismatch(
                f"{rows} x {cols} matrix needs {rows * cols} entries, "
                f"got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @property
    def shape(self):
        return (self.rows, self.cols)

    def get(self, i, j):
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def tolists(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def __repr__(self):
        return f"KMatrix({self.rows}x{self.cols}, {self.tolists()!r})"


def from_rows(rows) -> KMatrix:
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    for r in rows:
        if len(r) != ncols:
            raise ShapeMismatch("ragged rows")
    flat = tuple(v for r in rows for v in r)
    return KMatrix(len(rows), ncols, flat)


def scalar(value) -> KMatrix:
    return KMatrix(1, 1, (value,))


def zeros(rows, cols, sr: Semiring) -> KMatrix:
    return KMatrix(rows, cols, (sr.zero,) * (rows * cols))


def identity(n, sr: Semiring) -> KMatrix:
    ent = [sr.zero] * (n * n)
    for i in range(n):
        ent[i * n + i] = sr.one
    return KMatrix(n, n, tuple(ent))


def canonical_vector(i: int, n: int, sr: Semiring) -> KMatrix:
    """The n x 1 basis column with `one` in (1-based) position i."""
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"canonical vector index {i} out of 1..{n}")
    ent = [sr.zero] * n
    ent[i - 1] = sr.one
    return KMatrix(n, 1, tuple(ent))


def mat_add(a: KMatrix, b: KMatrix, sr: Semiring) -> KMatrix:
    if a.shape != b.shape:
        raise ShapeMismatch(f"cannot add {a.shape} and {b.shape}")
    return KMatrix(a.rows, a.cols, tuple(map(sr.plus, a.entries, b.entries)))


def mat_mul(a: KMatrix, b: KMatrix, sr: Semiring) -> KMatrix:
    if a.cols != b.rows:
        raise ShapeMismatch(f"cannot multiply {a.shape} by {b.shape}")
    plus, times, zero = sr.plus, sr.times, sr.zero
    n, m, k = a.rows, b.cols, a.cols
    ae, be = a.entries, b.entries
    if k == 1:
        out = []
        for x in ae:
            out.extend(map(plus, repeat(zero), map(times, repeat(x), be)))
        return KMatrix(n, m, tuple(out))
    out = []
    if (n > 1 and k > 1 and (zero in ae or zero in be)
            and all(map(eq, map(times, repeat(zero), ae + be), repeat(zero)))):
        # each column of b as its (t, entry) pairs without a zero entry
        cols = [[(t, y) for t, y in enumerate(be[j::m]) if y != zero]
                for j in range(m)]
        for i in range(n):
            arow = ae[i * k:(i + 1) * k]
            for col in cols:
                acc = zero
                for t, y in col:
                    x = arow[t]
                    if x != zero:
                        acc = plus(acc, times(x, y))
                out.append(acc)
        return KMatrix(n, m, tuple(out))
    cols = [be[j::m] for j in range(m)] if m > 1 else [be]
    for i in range(n):
        arow = ae[i * k:(i + 1) * k]
        for col in cols:
            out.append(reduce(plus, map(times, arow, col), zero))
    return KMatrix(n, m, tuple(out))


def mat_transpose(a: KMatrix) -> KMatrix:
    ae, cols = a.entries, a.cols
    return KMatrix(cols, a.rows, tuple(
        chain.from_iterable(ae[j::cols] for j in range(cols))))


def mat_scale(s, a: KMatrix, sr: Semiring) -> KMatrix:
    return KMatrix(a.rows, a.cols, tuple(map(sr.times, repeat(s), a.entries)))


def mat_map(fn, mats: list[KMatrix]) -> KMatrix:
    """Apply an entrywise function across equally shaped matrices, calling
    it once per entry in row-major order."""
    first = mats[0]
    for m in mats[1:]:
        if m.shape != first.shape:
            raise ShapeMismatch("pointwise application needs equal shapes")
    return KMatrix(first.rows, first.cols,
                   tuple(map(fn, *[m.entries for m in mats])))


def mat_equal(a: KMatrix, b: KMatrix, sr: Semiring, tol: float = 0.0) -> bool:
    """Shape and entrywise equality; `tol` only matters over the reals."""
    if a.shape != b.shape:
        return False
    return all(sr.eq(x, y, tol) for x, y in zip(a.entries, b.entries))


def format_matrix(a: KMatrix, sr: Semiring) -> str:
    """Dims header then whitespace-separated rows, one per line."""
    lines = [f"{a.rows} x {a.cols}"]
    for i in range(a.rows):
        lines.append(" ".join(sr.fmt(v) for v in a.row(i)))
    return "\n".join(lines)
