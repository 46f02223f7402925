import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from matfor.errors import ShapeMismatch
from matfor.matrix import (KMatrix, canonical_vector, from_rows, identity,
                           mat_add, mat_mul, mat_scale)
from matfor.semiring import BOOL, NAT, REAL, TROPICAL

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
