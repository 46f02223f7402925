"""Reference answers for the benchmark, written without importing matfor.

Each oracle recomputes what one workload's operation should return by a
textbook method (Gaussian elimination, subset enumeration, direct
evaluation of the matrix or relational expression) and compares it with the
program's output.  Every check returns a short reason string when the
output is wrong and None when it is right, so a caller can count failures
and report the first one.
"""

from __future__ import annotations

import itertools
import math

DET_REL_TOL = 1e-6       # criterion 6
INVERSE_RESID_TOL = 1e-6  # criterion 6: max |A X - I|
CIRCUIT_ABS_TOL = 1e-9    # criterion 9


# ---------------------------------------------------------------------------
# semirings, as plain tuples (zero, one, plus, times)

SEMIRINGS = {
    "nat": (0, 1, lambda a, b: a + b, lambda a, b: a * b),
    "bool": (0, 1, lambda a, b: a | b, lambda a, b: a & b),
    "tropical": (math.inf, 0.0, min, lambda a, b: a + b),
}


# ---------------------------------------------------------------------------
# linear algebra over floats


def det_partial_pivot(rows):
    """Determinant by Gaussian elimination with partial pivoting."""
    a = [list(r) for r in rows]
    n = len(a)
    det = 1.0
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(a[r][c]))
        if a[p][c] == 0.0:
            return 0.0
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            for k in range(c, n):
                a[r][k] -= f * a[c][k]
    return det


def check_determinant(rows, got):
    want = det_partial_pivot(rows)
    if not abs(got - want) <= DET_REL_TOL * max(1.0, abs(want)):
        return f"determinant {got!r}, oracle {want!r}"
    return None


def check_inverse(rows, x):
    """`x` is the claimed inverse as a list of rows."""
    n = len(rows)
    if len(x) != n or any(len(r) != n for r in x):
        return "inverse has the wrong shape"
    worst = 0.0
    for i in range(n):
        for j in range(n):
            v = sum(rows[i][k] * x[k][j] for k in range(n))
            worst = max(worst, abs(v - (1.0 if i == j else 0.0)))
    if not worst <= INVERSE_RESID_TOL:
        return f"max |A X - I| = {worst!r}"
    return None


# ---------------------------------------------------------------------------
# graphs


def ordered_four_cliques(adj):
    """24 times the number of 4-vertex subsets that form a clique."""
    n = len(adj)
    count = sum(1 for q in itertools.combinations(range(n), 4)
                if all(adj[a][b] for a, b in itertools.combinations(q, 2)))
    return 24 * count


def check_four_cliques(adj, got):
    want = ordered_four_cliques(adj)
    if got != want:
        return f"ordered 4-cliques {got!r}, oracle {want!r}"
    return None


# ---------------------------------------------------------------------------
# circuits: compared with the interpreter, entry by entry


def check_close(got, want, what):
    """`got` maps 1-based (i, j) to a value; `want` is a list of rows."""
    keys = {(i + 1, j + 1) for i in range(len(want))
            for j in range(len(want[0]))}
    if set(got) != keys:
        return f"{what}: output positions differ"
    for (i, j), v in got.items():
        w = want[i - 1][j - 1]
        if not abs(v - w) <= CIRCUIT_ABS_TOL:
            return f"{what}[{i},{j}] = {v!r}, interpreter {w!r}"
    return None


# ---------------------------------------------------------------------------
# matrix expressions over a semiring (the phi side's reference)


def _zeros(r, c, sr):
    return [[sr[0]] * c for _ in range(r)]


def mm(a, b, sr):
    zero, _, plus, times = sr
    out = _zeros(len(a), len(b[0]), sr)
    for i in range(len(a)):
        for j in range(len(b[0])):
            acc = zero
            for t in range(len(b)):
                acc = plus(acc, times(a[i][t], b[t][j]))
            out[i][j] = acc
    return out


def add(a, b, sr):
    plus = sr[2]
    return [[plus(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def hprod(a, b, sr):
    times = sr[3]
    return [[times(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def scale(s, a, sr):
    times = sr[3]
    return [[times(s, x) for x in row] for row in a]


def identity(n, sr):
    out = _zeros(n, n, sr)
    for i in range(n):
        out[i][i] = sr[1]
    return out


def column_sum(vec, n, sr):
    """n copies of a column vector added up (`sum v . u`)."""
    out = vec
    for _ in range(n - 1):
        out = add(out, vec, sr)
    return out


def diag(u, sr):
    n = len(u)
    out = _zeros(n, n, sr)
    for i in range(n):
        out[i][i] = u[i][0]
    return out


# ---------------------------------------------------------------------------
# positive relational algebra (the psi side's reference)
#
# A relation is (attrs, {tuple of values in sorted-attribute order: value}).


def _rel(attrs, items, sr):
    zero, plus = sr[0], sr[2]
    out = {}
    for key, v in items:
        out[key] = plus(out[key], v) if key in out else v
    return tuple(sorted(attrs)), {k: v for k, v in out.items() if v != zero}


def ra_union(r1, r2, sr):
    return _rel(r1[0], list(r1[1].items()) + list(r2[1].items()), sr)


def ra_project(r, attrs, sr):
    keep = [i for i, a in enumerate(r[0]) if a in attrs]
    return _rel(attrs, [(tuple(k[i] for i in keep), v)
                        for k, v in r[1].items()], sr)


def ra_select(r, attrs, sr):
    pos = [i for i, a in enumerate(r[0]) if a in attrs]
    return _rel(r[0], [(k, v) for k, v in r[1].items()
                       if len({k[i] for i in pos}) <= 1], sr)


def ra_rename(r, mapping, sr):
    """`mapping` sends each new attribute name to an old one."""
    new = sorted(mapping)
    pos = [r[0].index(mapping[a]) for a in new]
    return _rel(new, [(tuple(k[i] for i in pos), v)
                      for k, v in r[1].items()], sr)


def ra_join(r1, r2, sr):
    times = sr[3]
    attrs = sorted(set(r1[0]) | set(r2[0]))
    shared = sorted(set(r1[0]) & set(r2[0]))
    by_shared = {}
    for k2, v2 in r2[1].items():
        a2 = dict(zip(r2[0], k2))
        by_shared.setdefault(tuple(a2[a] for a in shared), []).append((a2, v2))
    items = []
    for k1, v1 in r1[1].items():
        a1 = dict(zip(r1[0], k1))
        for a2, v2 in by_shared.get(tuple(a1[a] for a in shared), ()):
            merged = {**a1, **a2}
            items.append((tuple(merged[a] for a in attrs), times(v1, v2)))
    return _rel(attrs, items, sr)


def active_domain(rels):
    return sorted({x for _, support in rels.values()
                   for key in support for x in key})


def check_relation(got, want, what):
    """`got` maps sorted-attribute value tuples to the program's annotations
    (zeros absent); `want` is an oracle relation."""
    if got != want[1]:
        bad = next(k for k in set(got) | set(want[1])
                   if got.get(k) != want[1].get(k))
        return (f"{what}: at {bad!r} got {got.get(bad)!r}, "
                f"oracle {want[1].get(bad)!r}")
    return None
