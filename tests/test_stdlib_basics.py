import hashlib

import pytest

from conftest import real_matrix, run_named
from matfor.ast import free_vars
from matfor.evaluator import canonical_vector
from matfor.parser import parse_expr
from matfor.printer import pretty
from matfor.semiring import BOOL, NAT, REAL, TROPICAL
from matfor.typecheck import typecheck

INPUTS = {
    "ones_vec": (), "diag_embed": ("a",), "identity": (),
    "index_le": ("w", "v"), "index_lt": ("y", "v"), "is_first": ("v",),
    "is_last": ("v",), "last_basis": (), "shift_by_index": ("v",),
    "shift_vector": ("a", "v"), "repeated_squaring": ("A",),
    "four_clique": ("V",), "four_clique_order": ("V",),
    "transitive_closure": ("V",), "pivot_column": ("V", "y"),
    "elimination_step": ("V", "y"), "lu_upper": ("V",), "lu_lower": ("V",),
    "plu_transform": ("V",), "plu_upper": ("V",),
    "matrix_power": ("V", "v"), "power_trace": ("V", "v"),
    "scaled_power_trace": ("V", "v"), "power_sum": ("V",),
    "diagonal_part": ("V",), "diagonal_inverse": ("V",),
    "upper_tri_inverse": ("V",), "lower_tri_inverse": ("V",),
    "index_diagonal": (), "trace_vector": ("V",), "newton_matrix": ("V",),
    "charpoly_coeffs": ("V",), "inverse_power": ("V", "v"),
    "determinant": ("V",), "inverse": ("V",),
}


def test_inputs_of_every_program(lib):
    assert {name: item.inputs for name, item in lib.items()} == INPUTS


def test_every_input_is_free_and_every_free_name_is_an_input(lib):
    for name, item in lib.items():
        assert set(item.inputs) == free_vars(item.expr), name


# sha256 of one "name repr(expr)" line per program, in library order
EXPR_DIGEST = \
    "bdeda6f6d5e9759ab78ac0f9042cc9f5dc49ceb5013c06398fe3de8f2e02d561"


def test_the_programs_trees_are_pinned(lib):
    text = "\n".join(f"{name} {item.expr!r}" for name, item in lib.items())
    assert hashlib.sha256(text.encode()).hexdigest() == EXPR_DIGEST


COL, SQ, SC = "alpha x 1", "alpha x alpha", "1 x 1"
SCHEMAS = {
    "ones_vec": {"S": COL, "i": COL},
    "diag_embed": {"G": SQ, "a": COL, "k": COL},
    "identity": {"j": COL},
    "index_le": {"j": COL, "v": COL, "w": COL},
    "index_lt": {"v": COL, "y": COL},
    "is_first": {"v": COL},
    "is_last": {"v": COL},
    "last_basis": {},
    "shift_by_index": {"j": COL, "p": COL, "v": COL},
    "shift_vector": {"a": COL, "j": COL, "p": COL, "v": COL, "w": COL},
    "repeated_squaring": {"A": SC, "X": SC, "v": COL},
    "four_clique": {"V": SQ, "X1": SC, "X2": SC, "X3": SC, "X4": SC, "u": COL,
        "v": COL, "w": COL, "x": COL},
    "four_clique_order": {"V": SQ, "X1": SC, "X2": SC, "X3": SC, "X4": SC,
        "u": COL, "v": COL, "w": COL, "x": COL},
    "transitive_closure": {"V": SQ, "j": COL, "t": COL},
    "pivot_column": {"C": COL, "V": SQ, "i": COL, "y": COL},
    "elimination_step": {"C": COL, "V": SQ, "i": COL, "j": COL, "y": COL},
    "lu_upper": {"C": COL, "F": SQ, "V": SQ, "i": COL, "j": COL, "y": COL},
    "lu_lower": {"C": COL, "V": SQ, "W": SQ, "i": COL, "j": COL, "y": COL,
        "z": COL},
    "plu_transform": {"C": COL, "F": SQ, "V": SQ, "i": COL, "j": COL, "u": COL,
        "w": COL, "y": COL},
    "plu_upper": {"C": COL, "F": SQ, "V": SQ, "i": COL, "j": COL, "u": COL,
        "w": COL, "y": COL},
    "matrix_power": {"V": SQ, "j": COL, "p": COL, "v": COL},
    "power_trace": {"V": SQ, "j": COL, "p": COL, "t": COL, "v": COL},
    "scaled_power_trace": {"V": SQ, "j": COL, "p": COL, "t": COL, "u": COL,
        "v": COL},
    "power_sum": {"V": SQ, "j": COL, "p": COL, "q": COL},
    "diagonal_part": {"V": SQ, "d": COL},
    "diagonal_inverse": {"V": SQ, "d": COL},
    "upper_tri_inverse": {"V": SQ, "d": COL, "e": COL, "j": COL},
    "lower_tri_inverse": {"V": SQ, "d": COL, "e": COL, "j": COL},
    "index_diagonal": {"c": COL, "j": COL, "u": COL},
    "trace_vector": {"V": SQ, "j": COL, "p": COL, "r": COL, "t": COL},
    "newton_matrix": {"V": SQ, "c": COL, "j": COL, "p": COL, "r": COL,
        "t": COL, "u": COL, "w": COL},
    "charpoly_coeffs": {"V": SQ, "c": COL, "d": COL, "e": COL, "j": COL,
        "p": COL, "r": COL, "t": COL, "u": COL, "w": COL},
    "inverse_power": {"V": SQ, "g": COL, "j": COL, "v": COL},
    "determinant": {"S": COL, "V": SQ, "c": COL, "d": COL, "e": COL, "i": COL,
        "j": COL, "m": COL, "p": COL, "r": COL, "t": COL, "u": COL, "w": COL},
    "inverse": {"V": SQ, "c": COL, "d": COL, "e": COL, "j": COL, "p": COL,
        "r": COL, "t": COL, "u": COL, "w": COL},
}


def test_the_schema_of_every_program(lib):
    assert {name: {var: str(t) for var, t in item.schema.vars.items()}
            for name, item in lib.items()} == SCHEMAS


def test_identity(lib):
    out = run_named(lib, "identity", 3)
    assert out.tolists() == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                             [0.0, 0.0, 1.0]]


def test_ones_vec_every_semiring(lib):
    for sr in (REAL, NAT, BOOL, TROPICAL):
        out = run_named(lib, "ones_vec", 4, sr)
        assert out.entries == (sr.one,) * 4


def test_diag_embed(lib):
    out = run_named(lib, "diag_embed", 3, a=real_matrix([[5], [6], [7]]))
    assert out.tolists() == [[5.0, 0.0, 0.0], [0.0, 6.0, 0.0],
                             [0.0, 0.0, 7.0]]


@pytest.mark.parametrize("i,j,want_le,want_lt", [
    (1, 1, 1.0, 0.0), (2, 2, 1.0, 0.0), (1, 2, 1.0, 1.0),
    (2, 1, 0.0, 0.0), (3, 2, 0.0, 0.0), (2, 3, 1.0, 1.0),
])
def test_index_comparisons_match_the_indices(lib, i, j, want_le, want_lt):
    bi = canonical_vector(i, 3, REAL)
    bj = canonical_vector(j, 3, REAL)
    assert run_named(lib, "index_le", 3, w=bi, v=bj).get(0, 0) == want_le
    assert run_named(lib, "index_lt", 3, y=bi, v=bj).get(0, 0) == want_lt


def test_first_and_last_tests(lib):
    for i in range(1, 5):
        b = canonical_vector(i, 4, REAL)
        assert run_named(lib, "is_first", 4, v=b).get(0, 0) == \
            (1.0 if i == 1 else 0.0)
        assert run_named(lib, "is_last", 4, v=b).get(0, 0) == \
            (1.0 if i == 4 else 0.0)
    assert run_named(lib, "last_basis", 4).tolists() == \
        [[0.0], [0.0], [0.0], [1.0]]


def test_shift_by_index_matrix(lib):
    for k in range(1, 4):
        out = run_named(lib, "shift_by_index", 3,
                        v=canonical_vector(k, 3, REAL))
        for j in range(1, 4):
            col = [out.get(i, j - 1) for i in range(3)]
            want = [0.0] * 3
            if j + k <= 3:
                want[j + k - 1] = 1.0
            assert col == want


def test_shift_vector_oracle(lib):
    a = real_matrix([[1], [2], [3], [4]])
    for k in range(1, 5):
        out = run_named(lib, "shift_vector", 4, a=a,
                        v=canonical_vector(k, 4, REAL))
        want = [0.0] * k + [1.0, 2.0, 3.0, 4.0][:4 - k]
        assert [out.get(i, 0) for i in range(4)] == want


def test_shift_example(lib):
    out = run_named(lib, "shift_vector", 3, a=real_matrix([[1], [2], [3]]),
                    v=canonical_vector(1, 3, REAL))
    assert out.tolists() == [[0.0], [1.0], [2.0]]


def test_repeated_squaring(lib):
    out = run_named(lib, "repeated_squaring", 4, A=real_matrix([[2]]))
    assert out.get(0, 0) == 2.0 ** 16


def test_every_stdlib_expression_typechecks_and_round_trips(lib):
    for name, item in lib.items():
        assert typecheck(item.expr, item.schema) is not None
        assert parse_expr(pretty(item.expr)) == item.expr, name
