"""The command-line driver on arbitrary input: every run ends with one of
the documented exit codes, raises nothing and prints no traceback."""

import contextlib
import io

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from matfor.cli import main
from matfor.printer import pretty
from test_parser import _exprs

# a declaration for every name `_exprs` draws
SCHEMA = """
var a : 1 x 1
var b : 1 x 1
var V : alpha x alpha
var W : alpha x beta
var u : alpha x 1
var v : alpha x 1
var w : beta x 1
var x_1 : gamma x 1
"""

COMMANDS = {
    "check": [],
    "desugar": [],
    "classify": [],
    "to-ra": [],
    "compile-circuit": ["--dim", "alpha=2", "--dim", "beta=2",
                        "--dim", "gamma=2"],
}


@pytest.fixture(scope="module")
def schema_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "fuzz.schema"
    path.write_text(SCHEMA)
    return str(path)


@pytest.mark.parametrize("command", sorted(COMMANDS))
@given(text=st.one_of(_exprs().map(pretty), st.text(max_size=40)))
@settings(max_examples=150, deadline=None)
def test_cli_ends_with_a_documented_exit_code(schema_file, command, text):
    argv = [command, "-e", text, "--schema", schema_file, *COMMANDS[command]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")
