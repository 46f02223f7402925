import math

import pytest

from matfor.ast import MatrixType, Schema, Sum, UNIT, Var
from matfor.circuit_compile import compile_expr
from matfor.errors import FormatError, ShapeError
from matfor.instance import Instance, parse_instance
from matfor.matrix import format_matrix, from_rows
from matfor.semiring import NAT, REAL, TROPICAL

GOOD = """
# a real instance
semiring real
size alpha 2
size beta 3
matrix V alpha beta
1 2 3
4 5 6
matrix u alpha 1
0.5   # trailing comment
-1e2
"""


def test_well_formed_file():
    loaded = parse_instance(GOOD)
    assert loaded.semiring is REAL
    assert loaded.instance.dims["alpha"] == 2
    assert loaded.instance.mats["V"].tolists() == \
        [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
    assert loaded.instance.mats["u"].tolists() == [[0.5], [-100.0]]
    assert str(loaded.schema["V"]) == "alpha x beta"


def test_unit_symbol_is_always_one():
    loaded = parse_instance("semiring nat\nmatrix s 1 1\n7\n")
    assert loaded.instance.mats["s"].tolists() == [[7]]


def test_wrong_column_count_names_the_line():
    text = "semiring real\nsize a 2\nmatrix V a a\n1 2\n3\n"
    with pytest.raises(FormatError) as err:
        parse_instance(text)
    assert "line 5" in str(err.value)


def test_boolean_carrier_violation():
    with pytest.raises(FormatError):
        parse_instance("semiring bool\nsize a 1\nmatrix V a a\n2\n")


def test_tropical_accepts_inf():
    loaded = parse_instance("semiring tropical\nsize a 1\nmatrix V a a\ninf\n")
    assert loaded.instance.mats["V"].get(0, 0) == math.inf


def test_missing_semiring_line():
    with pytest.raises(FormatError):
        parse_instance("size a 2\n")


def test_undeclared_symbol():
    with pytest.raises(FormatError):
        parse_instance("semiring nat\nmatrix V a a\n1\n")


def test_bad_dimension():
    with pytest.raises(FormatError):
        parse_instance("semiring nat\nsize a 0\n")


def test_duplicate_matrix():
    text = "semiring nat\nsize a 1\nmatrix V a a\n1\nmatrix V a a\n1\n"
    with pytest.raises(FormatError):
        parse_instance(text)


# a matrix block is read in the semiring declared before it, so a later
# semiring line would leave it in another carrier than the instance's
LATE_SEMIRING = ("semiring real\nsize a 1\nmatrix V a a\n0.5\n"
                 "semiring nat\nmatrix W a a\n1\n")


@pytest.mark.parametrize("text", [
    LATE_SEMIRING, "semiring nat\nsize a 1\nmatrix V a a\n1\nsemiring nat",
])
def test_a_semiring_line_after_a_matrix_block_is_rejected(text):
    with pytest.raises(FormatError, match="^line 5: a 'semiring' line must "
                                          "precede matrix blocks"):
        parse_instance(text)


def test_an_unknown_semiring_names_its_line():
    with pytest.raises(FormatError, match="^line 2: unknown semiring 'reals'"):
        parse_instance("size a 1\nsemiring reals\n")


def test_matrix_output_format():
    m = from_rows([[1.0, 0.5], [2.0, 1 / 3]])
    text = format_matrix(m, REAL)
    lines = text.splitlines()
    assert lines[0] == "2 x 2"
    assert lines[1] == "1 0.5"
    assert lines[2].startswith("2 0.3333333333333333")
    assert format_matrix(from_rows([[math.inf]]), TROPICAL) == "1 x 1\ninf"
    assert format_matrix(from_rows([[3]]), NAT) == "1 x 1\n3"


def test_instance_rejects_a_dimension_below_one():
    # an empty loop has no first body value to fold from
    s = Schema({"s": MatrixType(UNIT, UNIT)})
    with pytest.raises(ShapeError, match="'a' has dimension 0"):
        Instance({"a": 0}, {"s": from_rows([[1]])})
    with pytest.raises(ShapeError, match="'a' has dimension 0"):
        compile_expr(Sum("v", Var("s"), var_sym="a"), s, {"a": 0})
