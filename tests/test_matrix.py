import itertools
import math
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from matfor.errors import ShapeMismatch
from matfor.matrix import (KMatrix, canonical_vector, from_rows, identity,
                           mat_add, mat_map, mat_mul, mat_scale,
                           mat_transpose)
from matfor.semiring import BOOL, NAT, REAL, TROPICAL, Semiring

INF, NAN = math.inf, math.nan

# Values that stress the zero-term rule: signed zeros, infinities, nan,
# products that underflow to -0.0, negative min-plus weights, big ints.
SPECIAL = {
    "real": [0.0, 0.0, -0.0, 1.0, -1.0, 2.5, INF, -INF, NAN, 1e-200,
             -1e-200, 1e200],
    "tropical": [INF, INF, 0.0, -0.0, -3.0, 2.0, -INF],
    "nat": [0, 0, 1, 2, 3 ** 60],
    "bool": [0, 0, 1],
}
EXTRA = {
    "real": st.floats(allow_nan=True, allow_infinity=True),
    "tropical": st.floats(allow_nan=False, allow_infinity=True),
    "nat": st.integers(0, 10 ** 40),
    "bool": st.sampled_from([0, 1]),
}


def _reference_mat_mul(a, b, sr):
    """Every term of the left fold in ascending inner index, none left out."""
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = sr.zero
            for t in range(a.cols):
                acc = sr.plus(acc, sr.times(a.get(i, t), b.get(t, j)))
            out.append(acc)
    return KMatrix(a.rows, b.cols, tuple(out))


def _reprs(m):
    return (m.shape, [repr(x) for x in m.entries])


@st.composite
def _operands(draw):
    sr = draw(st.sampled_from([REAL, TROPICAL, NAT, BOOL]))
    value = st.one_of(st.sampled_from(SPECIAL[sr.name]), EXTRA[sr.name])
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))

    def operand(rows, cols):
        kind = draw(st.sampled_from(["random", "random", "identity",
                                     "basis", "zeros"]))
        if kind == "identity" and rows == cols:
            return identity(rows, sr)
        if kind == "basis" and cols == 1:
            return canonical_vector(draw(st.integers(1, rows)), rows, sr)
        if kind == "zeros":
            return KMatrix(rows, cols, (sr.zero,) * (rows * cols))
        ent = draw(st.lists(value, min_size=rows * cols,
                            max_size=rows * cols))
        return KMatrix(rows, cols, tuple(ent))

    return sr, operand(n, k), operand(k, m)


@settings(max_examples=400, deadline=None)
@given(_operands())
def test_mat_mul_matches_the_reference_bit_for_bit(case):
    sr, a, b = case
    assert _reprs(mat_mul(a, b, sr)) == _reprs(_reference_mat_mul(a, b, sr))


def test_mat_mul_identity_basis_and_outer_products_match_the_reference():
    m = from_rows([[1.5, -0.0, INF], [0.0, -1e-200, 2.0], [NAN, 3.0, 0.0]])
    e2 = canonical_vector(2, 3, REAL)
    cases = [(identity(3, REAL), m), (m, identity(3, REAL)),
             (e2, from_rows([[1e-200, -2.0, 0.0]])),
             (from_rows([[-1e-200], [0.0], [4.0]]), from_rows([[1e-200, INF]])),
             (from_rows([[-0.0]]), from_rows([[5.0]])),
             (from_rows([[e2.get(i, 0) for i in range(3)]]), m)]
    for a, b in cases:
        assert _reprs(mat_mul(a, b, REAL)) == \
            _reprs(_reference_mat_mul(a, b, REAL))


def test_one_by_one_products_keep_the_fold_from_zero():
    neg = mat_mul(from_rows([[-0.0]]), from_rows([[1.0]]), REAL)
    assert repr(neg.get(0, 0)) == "0.0"
    assert math.isnan(
        mat_mul(from_rows([[0.0]]), from_rows([[INF]]), REAL).get(0, 0))
    for sr in (REAL, NAT, BOOL, TROPICAL):
        for x in SPECIAL[sr.name]:
            for y in SPECIAL[sr.name]:
                a, b = from_rows([[x]]), from_rows([[y]])
                assert _reprs(mat_mul(a, b, sr)) == \
                    _reprs(_reference_mat_mul(a, b, sr)), (sr.name, x, y)


def test_a_zero_times_inf_term_is_kept():
    a = from_rows([[0.0, 1.0], [1.0, 0.0]])
    b = from_rows([[INF, 1.0], [1.0, 2.0]])
    out = mat_mul(a, b, REAL)
    assert math.isnan(out.get(0, 0))
    assert _reprs(out) == _reprs(_reference_mat_mul(a, b, REAL))


def test_signed_zero_and_underflow_keep_the_reference_sign():
    a = from_rows([[-1e-200, 0.0], [0.0, -1e-200]])
    b = from_rows([[1e-200, -0.0], [0.0, 1e-200]])
    out = mat_mul(a, b, REAL)
    assert _reprs(out) == _reprs(_reference_mat_mul(a, b, REAL))
    assert [repr(x) for x in out.entries] == ["0.0"] * 4


def _recording(log):
    """Integers under + and *, logging every call with its operands."""
    def plus(x, y):
        log.append(("plus", x, y))
        return x + y

    def times(x, y):
        log.append(("times", x, y))
        return x * y

    return Semiring("recording", 0, 1, plus, times, int, str, int)


def _call_logs(a, b):
    got, want = [], []
    mat_mul(a, b, _recording(got))
    _reference_mat_mul(a, b, _recording(want))
    return got, want


# inner dimension 1 (with and without zeros), zero-free operands of every
# shape up to 4, and the shapes the benchmark multiplies
CALL_ORDER_SHAPES = (
    list(itertools.product(range(1, 5), repeat=3))
    + [(12, 1, 12), (14, 1, 14), (14, 1, 1), (1, 1, 14), (1, 14, 1),
       (1, 12, 12), (14, 14, 1), (14, 14, 14)])


@pytest.mark.parametrize("n, k, m", CALL_ORDER_SHAPES)
def test_mat_mul_makes_the_reference_calls_in_its_order(n, k, m):
    # every path makes the plain triple loop's calls, so each entry is the
    # reference's fold over the same terms
    rng = random.Random(f"{n}x{k}x{m}")
    draws = [(1, 20), (0, 20)] if k == 1 else [(1, 20)]
    for low, high in draws:
        a = KMatrix(n, k, tuple(rng.randint(low, high) for _ in range(n * k)))
        b = KMatrix(k, m, tuple(rng.randint(low, high) for _ in range(k * m)))
        got, want = _call_logs(a, b)
        assert got == want


# values for the bit-identity checks at benchmark sizes: signed zeros,
# infinities, nan, products that underflow, and (for min-plus) the zero inf
BIG_VALUES = {
    "real": [0.0, -0.0, 1.0, -1.0, 0.1, -2.5, INF, -INF, NAN, 1e-200,
             -1e-200, 1e200],
    "tropical": [INF, 0.0, -0.0, 1.5, -3.0, 2.0],
}


@pytest.mark.parametrize("sr", [REAL, TROPICAL], ids=lambda sr: sr.name)
@pytest.mark.parametrize("n", [12, 14])
@pytest.mark.parametrize("inner", ["rank_one", "dense"])
def test_mat_mul_matches_the_reference_at_benchmark_sizes(sr, n, inner):
    rng = random.Random(f"{sr.name}/{n}/{inner}")
    k = 1 if inner == "rank_one" else n
    values = BIG_VALUES[sr.name]
    nonzero = [v for v in values if v != sr.zero]
    finite = [v for v in nonzero if math.isfinite(v)]
    # every value, no zero (the fold runs every term), and finite with
    # zeros (the zero-term rule applies)
    for pool in (values, nonzero, finite + [sr.zero]):
        for _ in range(3):
            a = KMatrix(n, k, tuple(rng.choice(pool) for _ in range(n * k)))
            b = KMatrix(k, n, tuple(rng.choice(pool) for _ in range(k * n)))
            assert _reprs(mat_mul(a, b, sr)) == \
                _reprs(_reference_mat_mul(a, b, sr))


def test_mat_map_calls_fn_in_entry_order_and_raises_the_first_error():
    a = from_rows([[1, 2, 3], [4, 5, 6]])
    b = from_rows([[10, 20, 30], [40, 50, 60]])
    calls = []

    def fn(x, y):
        calls.append((x, y))
        return x - y

    out = mat_map(fn, [a, b])
    assert (out.shape, out.entries) == ((2, 3), (-9, -18, -27, -36, -45, -54))
    assert calls == list(zip(a.entries, b.entries))
    assert mat_map(abs, [from_rows([[-1], [2]])]).entries == (1, 2)

    def failing(x):
        calls.append(x)
        if x % 2 == 0:
            raise ValueError(x)
        return x

    calls.clear()
    with pytest.raises(ValueError) as exc:
        mat_map(failing, [a])
    assert exc.value.args == (2,)
    assert calls == [1, 2]
    with pytest.raises(ShapeMismatch):
        mat_map(fn, [a, from_rows([[1, 2], [3, 4], [5, 6]])])


@pytest.mark.parametrize("rows, cols", [(1, 1), (1, 5), (5, 1), (3, 4),
                                        (14, 14)])
def test_mat_transpose_swaps_rows_and_columns(rows, cols):
    a = KMatrix(rows, cols, tuple(range(rows * cols)))
    t = mat_transpose(a)
    assert t.shape == (cols, rows)
    assert t.tolists() == [list(c) for c in zip(*a.tolists())]
    assert mat_transpose(t).entries == a.entries


def test_mat_add_and_mat_scale_keep_operand_order():
    a = from_rows([[-0.0, 1.0], [INF, 2.0]])
    b = from_rows([[0.0, -1.0], [-INF, 3.0]])
    assert _reprs(mat_add(a, b, REAL)) == _reprs(
        from_rows([[0.0, 0.0], [NAN, 5.0]]))
    assert _reprs(mat_scale(-0.0, a, REAL)) == _reprs(
        from_rows([[0.0, -0.0], [NAN, -0.0]]))
    assert mat_scale(2, from_rows([[3, 0]]), NAT).entries == (6, 0)


def test_kmatrix_checks_its_entry_count():
    with pytest.raises(ShapeMismatch) as exc:
        KMatrix(2, 3, (1, 2, 3, 4, 5))
    assert str(exc.value) == "2 x 3 matrix needs 6 entries, got 5"


def test_kmatrix_is_slotted_and_compares_by_identity():
    a = KMatrix(1, 2, (1, 2))
    b = KMatrix(1, 2, (1, 2))
    assert not hasattr(a, "__dict__")
    with pytest.raises(AttributeError):
        a.extra = 1
    # memo keys hold matrices; they must never hash or compare entries
    assert a == a and a != b
    assert len({a, b}) == 2
    assert hash(a) == object.__hash__(a)
    assert (a.rows, a.cols, a.entries, a.shape) == (1, 2, (1, 2), (1, 2))
