import math
import re

import pytest

from matfor.ast import MatrixType, Schema, Sum, UNIT, Var
from matfor.circuit_compile import compile_expr
from matfor.errors import FormatError, ShapeError
from matfor.instance import Instance, load_instance, parse_instance
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


@pytest.mark.parametrize("gap", ["", "   ", "# a note", "  # a note"])
def test_a_gap_inside_a_matrix_block_names_its_line(gap):
    text = ("semiring nat\nsize a 3\nmatrix V a a\n1 2 3\n"
            f"{gap}\n4 5 6\n7 8 9\n")
    with pytest.raises(FormatError,
                       match="^line 5: blank line inside matrix 'V'$"):
        parse_instance(text)


@pytest.mark.parametrize("tail", ["", "1\n", "1  # first\n"])
def test_a_block_cut_short_at_the_end_of_the_file_names_its_header(tail):
    text = f"semiring nat\nsize a 2\nsize b 1\nmatrix V a b\n{tail}"
    with pytest.raises(FormatError, match="^line 4: matrix 'V' needs 2 rows$"):
        parse_instance(text)


@pytest.mark.parametrize("tail", ["\n", "1\n\n", "1\n# end\n  \n"])
def test_a_block_cut_short_by_trailing_gaps_names_its_header(tail):
    # no row follows the gap, so the block is short, not interrupted
    text = f"semiring nat\nsize a 2\nsize b 1\nmatrix V a b\n{tail}"
    with pytest.raises(FormatError, match="^line 4: matrix 'V' needs 2 rows$"):
        parse_instance(text)


def test_comments_and_blank_lines_around_blocks_are_skipped():
    bare = ("semiring nat\nsize a 2\nmatrix V a a\n1 2\n3 4\n"
            "matrix v a 1\n5\n6\n")
    noted = ("# header\n\nsemiring nat  # carrier\n   \nsize a 2\n"
             "matrix V a a # square\n1 2 # first\n3 4\n\n# next\n"
             "matrix v a 1\n5\n6   # last\n\n# end\n")
    a, b = parse_instance(bare), parse_instance(noted)
    assert (a.semiring, a.schema, a.instance.dims) == \
        (b.semiring, b.schema, b.instance.dims)
    assert {n: m.tolists() for n, m in a.instance.mats.items()} == \
        {n: m.tolists() for n, m in b.instance.mats.items()}


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


def test_a_second_dimension_for_a_symbol_names_its_line():
    text = "semiring nat\nsize a 2\nmatrix V a a\n1 2\n3 4\nsize a 3\n"
    with pytest.raises(FormatError, match="^line 6: size symbol 'a' already "
                                          "has dimension 2"):
        parse_instance(text)


def test_the_unit_symbol_cannot_be_resized():
    with pytest.raises(FormatError, match="^line 2: size symbol '1' already "
                                          "has dimension 1"):
        parse_instance("semiring nat\nsize 1 2\n")


def test_a_repeated_size_line_with_the_same_dimension_loads():
    loaded = parse_instance("semiring nat\nsize a 2\nsize a 2\n"
                            "matrix v a 1\n1\n2\n")
    assert loaded.instance.dims["a"] == 2
    assert loaded.instance.mats["v"].tolists() == [[1], [2]]


LONG = "x" * 5000


@pytest.mark.parametrize("text, message", [
    (f"semiring nat\nsize a 1{'0' * 5000}x\n", "line 2: bad dimension '1000"),
    (f"semiring nat\n{LONG} a 1\n", "line 2: unrecognised directive 'xxx"),
    (f"semiring nat\nmatrix V {LONG} 1\n", "line 2: size symbol 'xxx"),
    (f"semiring nat\nsize {LONG} 1\nsize {LONG} 2\n",
     "line 3: size symbol 'xxx"),
    (f"semiring {LONG}\n", "line 1: unknown semiring 'xxx"),
    (f"semiring nat\nmatrix {LONG} 1 1\n1\nmatrix {LONG} 1 1\n1\n",
     "line 4: matrix 'xxx"),
    (f"semiring nat\nmatrix {LONG} 1 1\n", "line 2: matrix 'xxx"),
], ids=["dimension", "directive", "undeclared", "resized", "semiring",
        "twice", "short"])
def test_a_long_token_is_echoed_cut_short(text, message):
    with pytest.raises(FormatError) as err:
        parse_instance(text)
    assert str(err.value).startswith(message)
    assert len(str(err.value)) < 120


# the longest dimension Python reads from text: 4,300 digits
HUGE = "1" * 4300


@pytest.mark.parametrize("dim, shown", [("4", "4"), (HUGE, f"{'1' * 37}...")],
                         ids=["short", "long"])
@pytest.mark.parametrize("tail, message", [
    ("size a 2\n", "line 3: size symbol 'a' already has dimension {}"),
    ("matrix V a 1\n", "line 3: matrix 'V' needs {} rows"),
    ("matrix V 1 a\n1 2\n",
     "line 4: row of matrix 'V' has 2 values, expected {}"),
], ids=["resized", "rows", "values"])
def test_a_dimension_is_echoed_whole_or_cut_short(dim, shown, tail,
                                                  message):
    with pytest.raises(FormatError) as err:
        parse_instance(f"semiring nat\nsize a {dim}\n{tail}")
    assert str(err.value) == message.format(shown)


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


def test_a_file_that_is_not_utf8_names_its_path(tmp_path):
    path = tmp_path / "latin1.inst"
    path.write_bytes("semiring real\n# caf\u00e9\n".encode("latin-1"))
    with pytest.raises(FormatError,
                       match=f"^{re.escape(str(path))}: byte 19 is not UTF-8"):
        load_instance(str(path))


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


def test_instance_rejects_a_dimension_that_is_not_an_int():
    with pytest.raises(ShapeError, match="'alpha' has dimension 2.0"):
        Instance({"alpha": 2.0})


def test_instance_rejects_a_matrix_that_is_not_a_kmatrix():
    with pytest.raises(ShapeError, match="^matrix 'V' is a list, not a "
                                         "KMatrix$"):
        Instance({"alpha": 2}, {"V": [[1, 2], [3, 4]]})


@pytest.mark.parametrize("text, message", [
    ("semiring nat\nsize a\n", "line 2: expected: size SYM N"),
    ("semiring nat\nsize a 2 3\n", "line 2: expected: size SYM N"),
    ("semiring nat\nsize a 1\nmatrix V a\n1\n",
     "line 3: expected: matrix NAME SYM SYM"),
    ("size a 1\nmatrix V a a\n1\nsemiring nat\n",
     "line 2: a 'semiring' line must precede matrix blocks"),
], ids=["size too short", "size too long", "matrix too short",
        "matrix before semiring"])
def test_a_malformed_line_names_its_line(text, message):
    with pytest.raises(FormatError) as exc:
        parse_instance(text)
    assert str(exc.value) == message
