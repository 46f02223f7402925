"""The command-line driver on arbitrary input: every run ends with one of
the documented exit codes, raises nothing and prints no traceback."""

import contextlib
import io

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from matfor.cli import main
from matfor.printer import pretty
from test_loader_fuzz import INSTANCE_FILES, RELATION_FILES, _circuit_files
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


# a value for every name in SCHEMA, at alpha = beta = gamma = 2
INSTANCE = """semiring nat
size alpha 2
size beta 2
size gamma 2
matrix a 1 1
2
matrix b 1 1
0
matrix V alpha alpha
1 2
0 3
matrix W alpha beta
0 1
1 1
matrix u alpha 1
1
2
matrix v alpha 1
0
1
matrix w beta 1
3
1
matrix x_1 gamma 1
1
1
"""


RELATIONS = """semiring nat
relation R a b
1 2 : 3
2 2 : 1
relation S a
1 : 1
"""


def _ra_texts():
    """Relational queries over R, S and a name with no relation."""
    attrs = st.lists(st.sampled_from("abc"), min_size=1, max_size=2).map(
        ", ".join)
    return st.recursive(
        st.sampled_from(["rel R", "rel S", "rel T"]),
        lambda q: st.one_of(
            st.tuples(st.sampled_from(["union", "join"]), q, q).map(
                lambda t: f"{t[0]}({t[1]}, {t[2]})"),
            st.tuples(st.sampled_from(["project", "select"]), attrs, q).map(
                lambda t: f"{t[0]}[{t[1]}]({t[2]})"),
            st.tuples(st.sampled_from("abcd"), st.sampled_from("abc"),
                      q).map(lambda t: f"rename[{t[0]}->{t[1]}]({t[2]})")),
        max_leaves=6)


def _run(argv):
    """Run the driver, check the exit-code contract, return the code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")
    return code


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Write `text` to the file `name` of one directory; returns its path."""
    root = tmp_path_factory.mktemp("files")

    def write(name, text):
        path = root / name
        path.write_text(text, encoding="utf-8")
        return str(path)
    return write


@given(text=st.one_of(_exprs().map(pretty), st.text(max_size=40)))
@settings(max_examples=150, deadline=None)
def test_eval_ends_with_a_documented_exit_code(schema_file, files, text):
    _run(["eval", "-e", text, "--instance", files("i.inst", INSTANCE),
          "--schema", schema_file])


@given(circuit=st.one_of(_circuit_files(), st.text(max_size=40)),
       inputs=st.one_of(st.just(INSTANCE), INSTANCE_FILES))
@example(circuit="g0 = input V[1,1]\noutput[1,2] = g0\noutput[0,0] = g0",
         inputs=INSTANCE)
@settings(max_examples=150, deadline=None)
def test_circuit_commands_end_with_a_documented_exit_code(files, circuit,
                                                          inputs):
    path = files("c.circuit", circuit)
    _run(["circuit-stats", "--circuit", path])
    _run(["circuit-eval", "--circuit", path,
          "--inputs", files("c.inst", inputs)])


@given(query=st.one_of(_ra_texts(), st.text(max_size=40)),
       relations=st.one_of(st.just(RELATIONS), RELATION_FILES))
@settings(max_examples=150, deadline=None)
def test_from_ra_ends_with_a_documented_exit_code(files, query, relations):
    _run(["from-ra", "-q", files("q.ra", query),
          "--relschema", files("r.rel", relations)])
