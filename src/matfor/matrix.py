"""Dense matrices over a semiring carrier, plus the canonical vectors.

Storage is a row-major tuple.  `KMatrix` is a slotted class that is
immutable by convention: no code reassigns its shape or entries after
construction, so matrices are safe to share; its one other slot caches
`absorbs`, a fact about the entries.  Equality and hashing are by identity,
never by entries; the evaluator's memo keys rely on that.  Indexing in code
is 0-based; the 1-based convention of the surface language appears only in
file formats and `canonical_vector`.

`mat_mul` computes every entry as the left fold of ``plus`` from `zero` over
the terms ``times(a[i][t], b[t][j])`` in ascending ``t``; the order in
which it makes the entries and their calls is free.  There are four paths:

* inner dimension one (``a`` is a column, ``b`` a row): each row of the
  result is ``map(plus, repeat(zero), map(times, repeat(a_i), b))``;
* the selection path, where one operand is a vector with one entry that is
  not `zero` and the other is not a vector: ``a`` a 1 x k row with entry
  ``a_t`` and ``b`` with more than one column, or ``b`` a k x 1 column with
  entry ``b_t`` and ``a`` with more than one row.  The result is the row
  ``plus(zero, times(a_t, b[t][j]))`` over j, or the column ``plus(zero,
  times(a[i][t], b_t))`` over i: each entry's one term whose factor from the
  vector is not `zero`.  So ``b_i^T * A`` and ``A * b_i`` read a row or a
  column of A in O(n), the row-wise sparse step of Gustavson ("Two fast
  algorithms for sparse matrices", ACM TOMS 1978).  A dot product of two
  vectors takes the last path: checking a fresh operand costs it more than
  the terms it would save;
* the zero-term path, which leaves out each term with a `zero` factor when
  `a` has more than one row (a single row cannot pay for the column lists
  it builds), the inner dimension is above one and an operand holds a
  `zero`;
* otherwise each entry is ``reduce(plus, map(times, row, column), zero)``
  over a row of ``a`` and a column of ``b`` sliced once per call.

The first and the last make the calls of the plain triple loop, but step
through the terms with C-level iterators.

The selection and zero-term paths leave out terms with a `zero` factor, and
run only where the operand that holds the other factors `absorbs`:
``times(zero, y) == zero`` for every entry ``y`` of it.  The selection path
leaves out factors of its vector only, so it asks this of the other
operand; the zero-term path asks it of both.  Their results are then
bit-identical to the plain loop's: a left-out term equals `zero`, and
adding it to the accumulator changes nothing.  Over the reals the
accumulator starts at +0.0, so it is never -0.0, and adding +0.0 or -0.0
to it leaves it as it was; over min-plus ``min(acc, inf)`` is ``acc``; over
bool ``x | 0`` and over the naturals ``x + 0`` are ``x``.  The check fails
where ``times(zero, y)`` is nan (``y`` = ±inf or nan over the reals, -inf
or nan over min-plus), and then every term stays.  A matrix keeps its
answer, so an operand that the evaluator's memo hands out again is checked
once; the evaluator's row fold asks the same question of its factors.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, repeat
from operator import eq
from typing import Any

from .errors import IndexOutOfRange, ShapeMismatch
from .semiring import Semiring


class KMatrix:
    __slots__ = ("rows", "cols", "entries", "absorbing")

    def __init__(self, rows: int, cols: int, entries: tuple[Any, ...]):
        if len(entries) != rows * cols:
            raise ShapeMismatch(
                f"{rows} x {cols} matrix needs {rows * cols} entries, "
                f"got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self.absorbing = None  # `absorbs`'s last answer

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


def absorbs(a: KMatrix, sr: Semiring) -> bool:
    """Whether ``times(zero, y) == zero`` for every entry y of `a` under
    `sr`.  The answer is kept on `a` for the last semiring asked: as `sr`
    itself if it holds, else as the tuple ``(sr,)``."""
    known = a.absorbing
    if known is sr:
        return True
    if known.__class__ is tuple and known[0] is sr:
        return False
    zeros = repeat(sr.zero)
    held = all(map(eq, map(sr.times, zeros, a.entries), zeros))
    a.absorbing = sr if held else (sr,)
    return held


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
    if (n == 1 and m > 1) or (m == 1 and n > 1):
        # a row of b or a column of a, read through a lone-entry vector
        vec, other = (ae, b) if n == 1 else (be, a)
        if vec.count(zero) == k - 1 and absorbs(other, sr):
            for t, x in enumerate(vec):
                if x != zero:
                    break
            if n == 1:
                return KMatrix(1, m, tuple(map(plus, repeat(zero), map(
                    times, repeat(x), be[t * m:(t + 1) * m]))))
            return KMatrix(n, 1, tuple(map(plus, repeat(zero), map(
                times, ae[t::k], repeat(x)))))
    out = []
    if (n > 1 and (zero in ae or zero in be)
            and absorbs(a, sr) and absorbs(b, sr)):
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
