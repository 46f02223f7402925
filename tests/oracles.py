"""Independent reference implementations used to pin expected values.

Everything here is deliberately written the long way (textbook elimination,
exhaustive enumeration, permutation expansion) and never calls back into
the package's evaluator, so a bug cannot cancel itself out.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np


def gaussian_lu(a):
    """Textbook LU without pivoting; returns (L, U) or raises ZeroDivisionError."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    lower = np.eye(n)
    upper = a.copy()
    for i in range(n):
        pivot = upper[i, i]
        for j in range(i + 1, n):
            if upper[j, i] != 0.0 and pivot == 0.0:
                raise ZeroDivisionError(f"zero pivot in column {i}")
            mult = upper[j, i] / pivot if upper[j, i] != 0.0 else 0.0
            lower[j, i] = mult
            upper[j, :] = upper[j, :] - mult * upper[i, :]
    return lower, upper


def pivoted_elimination(a):
    """First-nonzero partial pivoting; returns (M, U) with M @ a = U upper."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    m = np.eye(n)
    state = a.copy()
    for i in range(n):
        rows = [j for j in range(i, n) if state[j, i] != 0.0]
        if not rows:
            continue
        j = rows[0]
        if j != i:
            perm = np.eye(n)
            perm[[i, j]] = perm[[j, i]]
            state = perm @ state
            m = perm @ m
        t = np.eye(n)
        t[i + 1:, i] = -state[i + 1:, i] / state[i, i]
        state = t @ state
        m = t @ m
    return m, state


def fraction_det(a):
    """Determinant by Gaussian elimination over exact fractions."""
    a = [[Fraction(v) for v in row] for row in a]
    n, det = len(a), Fraction(1)
    for i in range(n):
        pivot = next((j for j in range(i, n) if a[j][i] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != i:
            a[i], a[pivot] = a[pivot], a[i]
            det = -det
        det *= a[i][i]
        for j in range(i + 1, n):
            mult = a[j][i] / a[i][i]
            a[j] = [x - mult * y for x, y in zip(a[j], a[i])]
    return det


def fraction_matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0))
             for col in zip(*b)] for row in a]


def det_by_permutations(a):
    a = np.array(a, dtype=float)
    n = a.shape[0]
    total = 0.0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = float(sign)
        for i in range(n):
            term *= a[i, perm[i]]
        total += term
    return total


def warshall_closure(adj):
    """Reflexive-transitive closure indicator as a 0/1 matrix."""
    n = len(adj)
    reach = [[bool(adj[i][j]) or i == j for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
    return [[1 if reach[i][j] else 0 for j in range(n)] for i in range(n)]


def ordered_four_cliques(adj):
    """Count ordered 4-tuples of pairwise-distinct, pairwise-adjacent nodes."""
    n = len(adj)
    count = 0
    for tup in itertools.permutations(range(n), 4):
        if all(adj[a][b] for a, b in itertools.combinations(tup, 2)):
            count += 1
    return count


def has_four_clique(adj):
    n = len(adj)
    for sub in itertools.combinations(range(n), 4):
        if all(adj[a][b] for a, b in itertools.combinations(sub, 2)):
            return True
    return False


def power_sum(a, kmax):
    """I + a + a^2 + ... + a^kmax over exact Python ints."""
    n = len(a)
    total = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    powed = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(kmax):
        powed = int_matmul(powed, a)
        total = [[total[i][j] + powed[i][j] for j in range(n)]
                 for i in range(n)]
    return total


def int_matmul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def int_matpow(a, k):
    n = len(a)
    out = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(k):
        out = int_matmul(out, a)
    return out


def graphs_on(n):
    """All undirected loop-free graphs on n nodes as adjacency matrices."""
    edges = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(edges)):
        adj = [[0] * n for _ in range(n)]
        for idx, (i, j) in enumerate(edges):
            if bits >> idx & 1:
                adj[i][j] = adj[j][i] = 1
        yield adj
