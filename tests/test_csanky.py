import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import oracles
from conftest import dominant_real, max_abs_diff, real_matrix, run_named
from matfor import evaluator
from matfor.errors import DivisionByZero
from matfor.evaluator import canonical_vector
from matfor.matrix import from_rows
from matfor.semiring import NAT, RATIONAL, REAL


def well_conditioned(rng, n):
    """Shifted random sample; rejection keeps the determinant away from 0."""
    while True:
        rows = [[rng.uniform(-1.0, 1.0) + (2.5 * n if i == j else 0.0)
                 for j in range(n)] for i in range(n)]
        if abs(np.linalg.det(np.array(rows))) > 0.5:
            return rows


def test_matrix_power_is_exact_over_naturals(lib):
    rng = random.Random(8)
    a = [[rng.randrange(3) for _ in range(3)] for _ in range(3)]
    for k in range(1, 4):
        out = run_named(lib, "matrix_power", 3, NAT, V=from_rows(a),
                        v=canonical_vector(k, 3, NAT))
        assert out.tolists() == oracles.int_matpow(a, k)


def test_power_sum_on_a_nilpotent_matrix(lib):
    a = real_matrix([[0, 1], [0, 0]])
    out = run_named(lib, "power_sum", 2, V=a)
    assert out.tolists() == [[1.0, 1.0], [0.0, 1.0]]


def test_power_sum_is_exact_over_naturals(lib):
    rng = random.Random(9)
    for n in (1, 2, 3):
        a = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
        out = run_named(lib, "power_sum", n, NAT, V=from_rows(a))
        assert out.tolists() == oracles.power_sum(a, n)


def test_power_trace(lib):
    a = [[1, 2], [3, 4]]
    for k in (1, 2):
        out = run_named(lib, "power_trace", 2, NAT, V=from_rows(a),
                        v=canonical_vector(k, 2, NAT))
        powed = oracles.int_matpow(a, k)
        assert out.get(0, 0) == powed[0][0] + powed[1][1]


def test_scaled_power_trace(lib):
    a = real_matrix([[1, 2], [3, 4]])
    for k in (1, 2):
        out = run_named(lib, "scaled_power_trace", 2, V=a,
                        v=canonical_vector(k, 2, REAL))
        powed = np.linalg.matrix_power(np.array(a.tolists()), k)
        assert abs(out.get(0, 0) - np.trace(powed) / k) < 1e-12


def test_diagonal_part_and_inverse(lib):
    a = real_matrix([[2, 9], [7, 4]])
    assert run_named(lib, "diagonal_part", 2, V=a).tolists() == \
        [[2.0, 0.0], [0.0, 4.0]]
    assert run_named(lib, "diagonal_inverse", 2, V=a).tolists() == \
        [[0.5, 0.0], [0.0, 0.25]]


def test_lower_triangular_inverse_example(lib):
    out = run_named(lib, "lower_tri_inverse", 2,
                    V=real_matrix([[2, 0], [4, 5]]))
    assert max_abs_diff(out, [[0.5, 0.0], [-0.4, 0.2]]) < 1e-9


@pytest.mark.parametrize("trial", range(10))
def test_triangular_inverses_against_substitution(lib, trial):
    rng = random.Random(70 + trial)
    n = rng.randrange(1, 6)
    rows = [[rng.uniform(-2, 2) if j < i else
             (rng.choice([1.5, 2.0, -1.0, 0.5]) if i == j else 0.0)
             for j in range(n)] for i in range(n)]
    got = run_named(lib, "lower_tri_inverse", n, V=real_matrix(rows))
    prod = np.array(rows) @ np.array(got.tolists())
    assert np.max(np.abs(prod - np.eye(n))) < 1e-8
    upper = [[rows[j][i] for j in range(n)] for i in range(n)]
    got = run_named(lib, "upper_tri_inverse", n, V=real_matrix(upper))
    prod = np.array(upper) @ np.array(got.tolists())
    assert np.max(np.abs(prod - np.eye(n))) < 1e-8


def test_index_diagonal(lib):
    out = run_named(lib, "index_diagonal", 4)
    assert out.tolists() == [[1.0, 0, 0, 0], [0, 2.0, 0, 0],
                             [0, 0, 3.0, 0], [0, 0, 0, 4.0]]


def test_trace_vector_and_newton_matrix(lib):
    a = [[1, 2], [3, 4]]
    traces = run_named(lib, "trace_vector", 2, NAT, V=from_rows(a))
    p1 = 1 + 4
    p2 = sum(oracles.int_matpow(a, 2)[i][i] for i in range(2))
    assert traces.tolists() == [[p1], [p2]]
    s = run_named(lib, "newton_matrix", 2, NAT, V=from_rows(a))
    assert s.tolists() == [[1, 0], [p1, 2]]


def test_charpoly_coefficients(lib):
    # x^2 + c1 x + c2 for [[1,2],[3,4]]: trace 5, det -2
    out = run_named(lib, "charpoly_coeffs", 2,
                    V=real_matrix([[1, 2], [3, 4]]))
    assert max_abs_diff(out, [[-5.0], [-2.0]]) < 1e-12


def test_determinant_examples(lib):
    assert run_named(lib, "determinant", 2,
                     V=real_matrix([[2, 0], [0, 3]])).get(0, 0) == \
        pytest.approx(6.0, abs=1e-12)
    eye5 = real_matrix([[1 if i == j else 0 for j in range(5)]
                        for i in range(5)])
    assert run_named(lib, "determinant", 5, V=eye5).get(0, 0) == \
        pytest.approx(1.0, abs=1e-12)


def test_inverse_example(lib):
    out = run_named(lib, "inverse", 2, V=real_matrix([[2, 0], [0, 3]]))
    assert max_abs_diff(out, [[0.5, 0.0], [0.0, 1 / 3]]) < 1e-9


def test_inverse_power(lib):
    a = [[1, 1], [0, 1]]
    n = 2
    for k in (1, 2):
        out = run_named(lib, "inverse_power", n, NAT, V=from_rows(a),
                        v=canonical_vector(k, n, NAT))
        want = oracles.int_matpow(a, max(n - 1 - k, 0))
        assert out.tolists() == want


def test_singular_matrix_raises_division_by_zero(lib):
    with pytest.raises(DivisionByZero):
        run_named(lib, "inverse", 2, V=real_matrix([[1, 1], [1, 1]]))


@pytest.mark.parametrize("trial", range(12))
def test_determinant_and_inverse_against_oracles(lib, trial):
    rng = random.Random(500 + trial)
    n = rng.randrange(1, 7)
    rows = well_conditioned(rng, n)
    a = real_matrix(rows)
    det = run_named(lib, "determinant", n, V=a).get(0, 0)
    want = oracles.det_by_permutations(rows)
    assert abs(det - want) <= 1e-6 * max(1.0, abs(want))
    inv = run_named(lib, "inverse", n, V=a)
    prod = np.array(rows) @ np.array(inv.tolists())
    assert np.max(np.abs(prod - np.eye(n))) <= 1e-6


# Exact checks: over the rationals the Csanky suite's identities hold with
# no rounding, so its outputs must equal the exact answers.


def rational_matrix(rows):
    return from_rows([[Fraction(v) for v in row] for row in rows])


def integer_rows(rng, n, nonsingular=False):
    while True:
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if not nonsingular or oracles.fraction_det(rows) != 0:
            return rows


def exact_identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("n", range(1, 7))
def test_determinant_is_exact_over_rationals(lib, n):
    rng = random.Random(900 + n)
    for _ in range(2):
        rows = integer_rows(rng, n)
        got = run_named(lib, "determinant", n, RATIONAL,
                        V=rational_matrix(rows))
        assert got.entries == (oracles.fraction_det(rows),)


@pytest.mark.parametrize("n", range(1, 7))
def test_inverses_are_exact_over_rationals(lib, n):
    rng = random.Random(910 + n)
    rows = integer_rows(rng, n, nonsingular=True)
    cases = [("inverse", rows)]
    for name, keep in (("upper_tri_inverse", lambda i, j: j >= i),
                       ("lower_tri_inverse", lambda i, j: j <= i)):
        tri = [[rows[i][j] if keep(i, j) else 0 for j in range(n)]
               for i in range(n)]
        for i in range(n):
            tri[i][i] = rng.choice([-3, -2, -1, 1, 2, 3])
        cases.append((name, tri))
    for name, a in cases:
        got = run_named(lib, name, n, RATIONAL, V=rational_matrix(a))
        assert oracles.fraction_matmul(a, got.tolists()) == \
            exact_identity(n), name


@pytest.mark.parametrize("name,rows", [
    ("inverse", [[1, 2, 3], [2, 4, 6], [1, 0, 1]]),
    ("upper_tri_inverse", [[1, 2, 3], [0, 0, 6], [0, 0, 1]]),
    ("lower_tri_inverse", [[1, 0, 0], [2, 4, 0], [1, 5, 0]]),
])
def test_a_singular_matrix_has_no_rational_inverse(lib, name, rows):
    with pytest.raises(DivisionByZero):
        run_named(lib, name, 3, RATIONAL, V=rational_matrix(rows))


# Kernel counts: the triangular inverse is n elementary stages, and
# `inverse` takes its powers of A from the trace vector's memo entries.


def product_counts(monkeypatch, lib, name, n, v):
    """`mat_mul` calls of one evaluation over the reals: those of two
    n x n operands, and those whose right operand equals `v`."""
    counts, real = Counter(), evaluator.mat_mul

    def spy(a, b, sr):
        counts["square"] += a.shape == b.shape == (n, n)
        counts["by_input"] += b.entries == v.entries
        return real(a, b, sr)
    with monkeypatch.context() as m:
        m.setattr(evaluator, "mat_mul", spy)
        run_named(lib, name, n, V=v)
    return counts


def test_triangular_inverse_makes_linearly_many_products(lib, monkeypatch):
    rng = random.Random(920)
    for n in range(4, 11):
        v = real_matrix([[rng.uniform(-1, 1) if j < i else
                          (2.0 if i == j else 0.0) for j in range(n)]
                         for i in range(n)])
        counts = product_counts(monkeypatch, lib, "lower_tri_inverse", n, v)
        assert counts["square"] <= 2 * n, n


def test_inverse_builds_no_powers_beyond_the_determinants(lib, monkeypatch):
    v = dominant_real(random.Random(930), 8)
    det = product_counts(monkeypatch, lib, "determinant", 8, v)
    inv = product_counts(monkeypatch, lib, "inverse", 8, v)
    assert 0 < inv["by_input"] <= det["by_input"]
