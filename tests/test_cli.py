import os
import subprocess
import sys
from pathlib import Path

import pytest

from matfor import evaluator
from matfor.cli import main

ONES3 = "semiring real\nsize alpha 3\n"
DIAG23 = "semiring real\nsize alpha 2\nmatrix V alpha alpha\n2 0\n0 3\n"
PATH3 = ("semiring real\nsize alpha 3\nmatrix V alpha alpha\n"
         "0 1 0\n0 0 1\n0 0 0\n")


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_ones(files, capsys):
    inst = files("ones3.inst", ONES3)
    code, out, _ = run(capsys, "eval", "-e", "sum v . v", "--instance", inst)
    assert code == 0
    assert out == "3 x 1\n1\n1\n1\n"


def test_eval_is_deterministic(files, capsys):
    inst = files("ones3.inst", ONES3)
    _, out1, _ = run(capsys, "eval", "-e", "sum v . v * v^T",
                     "--instance", inst)
    _, out2, _ = run(capsys, "eval", "-e", "sum v . v * v^T",
                     "--instance", inst)
    assert out1 == out2


def test_eval_rejects_a_semiring_line_after_a_matrix_block(files, capsys):
    inst = files("late.inst", "semiring real\nsize a 1\nmatrix V a a\n0.5\n"
                              "semiring nat\nmatrix W a a\n1\n")
    code, out, err = run(capsys, "eval", "-e", "V", "--instance", inst)
    assert (code, out) == (2, "")
    assert err.startswith("error: line 5: a 'semiring' line must precede")


def test_eval_semiring_override(files, capsys):
    inst = files("ones3.inst", "semiring real\nsize alpha 2\n")
    code, out, _ = run(capsys, "eval", "-e", "sum v . v", "--instance", inst,
                       "--semiring", "nat")
    assert code == 0
    assert out == "2 x 1\n1\n1\n"


def test_eval_over_rational_is_exact(files, capsys):
    inst = files("q.inst", "semiring rational\nsize alpha 2\n"
                           "matrix V alpha alpha\n1/3 0.1\n0 1\n")
    code, out, _ = run(capsys, "eval", "-e", "V + V", "--instance", inst)
    assert (code, out) == (0, "2 x 2\n2/3 1/5\n0 2\n")


def test_semiring_override_reads_the_values_in_its_carrier(files, capsys):
    real = files("r.inst", "semiring real\nsize alpha 1\n"
                           "matrix V alpha alpha\n0.5\n")
    code, out, _ = run(capsys, "eval", "-e", "V + V * V", "--instance", real,
                       "--semiring", "rational")
    assert (code, out) == (0, "1 x 1\n3/4\n")
    trop = files("t.inst", "semiring tropical\nsize alpha 1\n"
                           "matrix V alpha alpha\ninf\n")
    code, out, err = run(capsys, "eval", "-e", "V", "--instance", trop,
                         "--semiring", "nat")
    assert (code, out) == (2, "")
    assert "not a natural number: 'inf'" in err
    # the file's text is read in the named carrier, not as the file's own
    # carrier prints it: a real 0.1 is the rational 1/10
    tenth = files("p.inst", "semiring real\nsize alpha 1\n"
                            "matrix V alpha alpha\n0.1\n")
    code, out, _ = run(capsys, "eval", "-e", "V", "--instance", tenth,
                       "--semiring", "rational")
    assert (code, out) == (0, "1 x 1\n1/10\n")
    # the named carrier replaces the file's, so a bool file may hold a 2
    two = files("b.inst", "semiring bool\nsize alpha 1\n"
                          "matrix V alpha alpha\n2\n")
    code, out, _ = run(capsys, "eval", "-e", "V + V", "--instance", two,
                       "--semiring", "nat")
    assert (code, out) == (0, "1 x 1\n4\n")


def test_check_prints_the_type(files, capsys):
    schema = files("s.schema", "var V : alpha x beta\n")
    code, out, _ = run(capsys, "check", "-e", "V^T", "--schema", schema)
    assert code == 0
    assert out.strip() == "beta x alpha"


def test_classify_full(files, capsys):
    schema = files("s.schema", "var v : gamma x 1\nvar X : 1 x 1\n")
    code, out, _ = run(capsys, "classify", "-e", "for v, X = [2] . X * X",
                       "--schema", schema)
    assert code == 0
    assert out.strip() == "full"


def test_classify_without_schema(files, capsys):
    code, out, _ = run(capsys, "classify", "-e", "sum v . v")
    assert code == 0
    assert out.strip() == "sum"


def test_desugar_prints_core_syntax(capsys):
    code, out, _ = run(capsys, "desugar", "-e", "sum v . v")
    assert code == 0
    assert out.strip().startswith("for v,")


def test_demo_det(files, capsys):
    inst = files("diag23.inst", DIAG23)
    code, out, _ = run(capsys, "demo", "det", "--instance", inst)
    assert code == 0
    assert out == "1 x 1\n6\n"


def test_demo_lu(files, capsys):
    inst = files("diag23.inst", DIAG23)
    code, out, err = run(capsys, "demo", "lu", "--instance", inst)
    assert code == 0
    assert "L:" in err and "U:" in err
    assert out == "2 x 2\n1 0\n0 1\n\n2 x 2\n2 0\n0 3\n"


def test_demo_tc(files, capsys):
    inst = files("path.inst", PATH3)
    code, out, _ = run(capsys, "demo", "tc", "--instance", inst)
    assert code == 0
    assert out.splitlines()[1] == "1 1 1"


def test_stdlib_listing_and_printing(files, capsys):
    code, out, _ = run(capsys, "stdlib")
    assert code == 0
    assert "transitive_closure" in out
    code, out, _ = run(capsys, "stdlib", "transitive_closure")
    assert code == 0
    assert out.strip() == "gtz(prod t . (sum j . j * j^T) + V)"
    code, out, _ = run(capsys, "stdlib", "determinant", "--emit-schema")
    assert code == 0
    assert "var V : alpha x alpha" in out


def test_module_entry_point_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    done = subprocess.run([sys.executable, "-m", "matfor", "stdlib",
                           "identity"], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == \
        (0, "sum j . j * j^T\n", "")


def test_stdlib_round_trips_through_check(files, capsys, tmp_path):
    from matfor import stdlib
    from matfor.parser import format_schema
    for name, item in stdlib.all_named().items():
        _, text, _ = run(capsys, "stdlib", name)
        schema = files(f"{name}.schema", format_schema(item.schema) + "\n")
        code, out, _ = run(capsys, "check", "-e", text.strip(),
                           "--schema", schema)
        assert code == 0, name


def test_to_ra_and_from_ra(files, capsys):
    schema = files("s.schema", "var V : alpha x alpha\n")
    code, out, _ = run(capsys, "to-ra", "-e", "V + V", "--schema", schema)
    assert code == 0
    assert out.strip() == "union(rel R_V, rel R_V)"
    rels = files("r.rel", "semiring nat\nrelation R a b\n1 2 : 3\n")
    query = files("q.ra", "project[a](rel R)")
    code, out, _ = run(capsys, "from-ra", "-q", query, "--relschema", rels)
    assert code == 0
    assert out.strip() == "sum _t1 . (sum _t2 . _t1^T * V_R * _t2) .* _t1"


def test_to_ra_rejects_non_additive(files, capsys):
    schema = files("s.schema", "var V : alpha x alpha\nvar v : alpha x 1\n")
    code, _, err = run(capsys, "to-ra", "-e", "prod v . V",
                       "--schema", schema)
    assert code == 2
    assert "additive" in err


@pytest.mark.parametrize("expr", ["hprod0(V)", "hsum01(V, V)"])
def test_to_ra_rejects_names_eval_does_not_know(files, capsys, expr):
    schema = files("s.schema", "var V : alpha x alpha\n")
    inst = files("v.inst", DIAG23)
    code, out, err = run(capsys, "to-ra", "-e", expr, "--schema", schema)
    assert (code, out) == (2, "")
    assert "no relational counterpart" in err
    assert run(capsys, "eval", "-e", expr, "--instance", inst)[0] == 3


def test_circuit_pipeline(files, capsys):
    schema = files("s.schema", "var u : alpha x 1\nvar v : alpha x 1\n")
    code, dump, _ = run(capsys, "compile-circuit", "-e", "u^T * v",
                        "--schema", schema, "--dim", "alpha=2")
    assert code == 0
    circ = files("c.txt", dump)
    inst = files("uv.inst", "semiring real\nsize alpha 2\n"
                            "matrix u alpha 1\n1\n2\n"
                            "matrix v alpha 1\n3\n4\n")
    code, out, _ = run(capsys, "circuit-eval", "--circuit", circ,
                       "--inputs", inst)
    assert code == 0
    assert out == "1 x 1\n11\n"
    code, out, _ = run(capsys, "circuit-stats", "--circuit", circ)
    assert code == 0
    assert "degree 2" in out


def test_exit_codes(files, capsys):
    inst = files("ones3.inst", ONES3)
    schema = files("s.schema", "var V : alpha x beta\n")
    assert run(capsys, "eval", "-e", "sum v . (", "--instance", inst)[0] == 2
    assert run(capsys, "check", "-e", "V * V", "--schema", schema)[0] == 2
    assert run(capsys, "eval", "-e", "div([1], [0])",
               "--instance", inst)[0] == 3
    assert run(capsys, "eval", "-e", "sum v . v",
               "--instance", str(files("x", "")) + ".missing")[0] == 1
    assert run(capsys, "stdlib", "no_such_name")[0] == 1
    # a size symbol has one dimension, and the unit symbol's is 1
    uv = files("uv.schema", "var u : alpha x 1\nvar v : alpha x 1\n")
    for dims in (("alpha=2", "alpha=3"), ("alpha=2", "1=2")):
        argv = ["compile-circuit", "-e", "u^T * v", "--schema", uv]
        for d in dims:
            argv += ["--dim", d]
        assert run(capsys, *argv)[0] == 1
    # an unknown semiring is a bad flag
    assert run(capsys, "eval", "-e", "V", "--instance", inst,
               "--semiring", "reals")[0] == 1


def test_deep_nesting_is_checked(files, capsys):
    schema = files("s.schema", "var V : alpha x alpha\n")
    expr = "(" * 300 + "V" + ")" * 300
    code, out, err = run(capsys, "check", "--schema", schema, "-e", expr)
    assert (code, out, err) == (0, "alpha x alpha\n", "")


def test_deep_ra_query_is_translated(files, capsys):
    rels = files("r.rel", "semiring nat\nrelation R a b\n1 2 : 3\n")
    depth = sys.getrecursionlimit()
    query = files("deep.ra",
                  "union(" * depth + "rel R" + ", rel R)" * depth)
    code, out, err = run(capsys, "from-ra", "-q", query, "--relschema", rels)
    assert (code, err) == (0, "")
    # one selection of R per operand of the unions
    assert out.count("V_R") == depth + 1 and out.count("\n") == 1


def test_a_long_attribute_name_is_echoed_cut_short(files, capsys):
    rels = files("r.rel", "semiring nat\nrelation R a b\n1 2 : 3\n")
    query = files("long.ra", f"project[{'x' * 5000}](rel R)")
    code, out, err = run(capsys, "from-ra", "-q", query, "--relschema", rels)
    assert code != 0 and out == ""
    assert err == (f"error: attributes ['{'x' * 37}'...] not in operand "
                   f"signature\n")


def test_running_out_of_memory_is_an_eval_error(files, capsys, monkeypatch):
    def exhausted(i, n, sr):
        raise MemoryError

    monkeypatch.setattr(evaluator, "canonical_vector", exhausted)
    inst = files("ones3.inst", ONES3)
    code, out, err = run(capsys, "eval", "-e", "Emin[alpha]",
                         "--instance", inst)
    assert (code, out, err) == (3, "", "error: not enough memory to "
                                       "evaluate\n")


def test_errors_go_to_stderr_not_stdout(files, capsys):
    inst = files("ones3.inst", ONES3)
    code, out, err = run(capsys, "eval", "-e", "div([1], [0])",
                         "--instance", inst)
    assert code == 3
    assert out == ""
    assert "division by zero" in err


def test_eval_over_tropical_prints_inf(files, capsys):
    inst = files("trop.inst",
                 "semiring tropical\nsize alpha 2\n"
                 "matrix D alpha alpha\n0 3\ninf 0\n")
    code, out, _ = run(capsys, "eval", "-e", "D * D", "--instance", inst)
    assert code == 0
    assert out == "2 x 2\n0 3\ninf 0\n"


@pytest.mark.parametrize("argv, code, message", [
    # FormatError
    (("eval", "-e", "V", "--instance", "{bad.inst}"), 2, "bad dimension"),
    # RelalgError
    (("from-ra", "-q", "{q.ra}", "--relschema", "{r.rel}"), 2,
     "unknown relation 'S'"),
    # NotInSumFragment
    (("to-ra", "-e", "prod v . V", "--schema", "{s.schema}"), 2, "additive"),
    # UnsupportedFunction
    (("to-ra", "-e", "gtz(V)", "--schema", "{s.schema}"), 2,
     "no relational counterpart"),
    # CircuitError
    (("compile-circuit", "-e", "u^T * v", "--schema", "{uv.schema}"), 2,
     "no dimension assigned"),
    # DivisionByZero, an EvalError
    (("circuit-eval", "--circuit", "{div.circuit}", "--inputs", "{uv0.inst}"),
     3, "division by zero at gate g2"),
    # FunctionUnavailableForSemiring, an EvalError
    (("circuit-eval", "--circuit", "{div.circuit}", "--inputs", "{uv.inst}"),
     3, "div at gate g2 is not available over the nat semiring"),
], ids=["format", "relalg", "sum_fragment", "unsupported_function",
        "circuit", "division_by_zero", "div_over_nat"])
def test_exit_code_per_error_family(files, capsys, argv, code, message):
    paths = {
        "bad.inst": files("bad.inst", "semiring real\nsize alpha x\n"),
        "r.rel": files("r.rel", "semiring nat\nrelation R a b\n1 2 : 3\n"),
        "q.ra": files("q.ra", "project[a](rel S)"),
        "s.schema": files("s.schema",
                          "var V : alpha x alpha\nvar v : alpha x 1\n"),
        "uv.schema": files("uv.schema",
                           "var u : alpha x 1\nvar v : alpha x 1\n"),
        "div.circuit": files("div.circuit",
                             "g0 = input u[1,1]\ng1 = input v[1,1]\n"
                             "g2 = div g0 g1\noutput[1,1] = g2\n"),
        "uv0.inst": files("uv0.inst",
                          "semiring real\nsize alpha 1\nmatrix u alpha 1\n1\n"
                          "matrix v alpha 1\n0\n"),
        "uv.inst": files("uv.inst",
                         "semiring nat\nsize alpha 1\nmatrix u alpha 1\n1\n"
                         "matrix v alpha 1\n1\n"),
    }
    argv = [paths[a[1:-1]] if a.startswith("{") else a for a in argv]
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("command", ["circuit-stats", "circuit-eval"])
def test_a_gate_without_children_is_a_format_error(files, capsys, command):
    argv = [command, "--circuit", files("e.circuit", "g0 = sum\n"
                                                     "output[1,1] = g0\n")]
    if command == "circuit-eval":
        argv += ["--inputs", files("one.inst", "semiring real\n")]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert err.startswith("error: ") and "sum needs a child" in err


def test_circuit_eval_prints_a_nat_past_the_float_range_exactly(files,
                                                                capsys):
    # V[1,1] = 2 squared eleven times is 2 ** 2048
    lines = ["g0 = input V[1,1]"]
    lines += [f"g{i} = prod g{i - 1} g{i - 1}" for i in range(1, 12)]
    circ = files("big.circuit", "\n".join(lines + ["output[1,1] = g11"]))
    inst = files("two.inst",
                 "semiring nat\nsize alpha 1\nmatrix V alpha alpha\n2\n")
    code, out, err = run(capsys, "circuit-eval", "--circuit", circ,
                         "--inputs", inst)
    assert (code, out, err) == (0, f"1 x 1\n{2 ** 2048}\n", "")


@pytest.mark.parametrize("expr, inputs, expected", [
    ("V * V", "semiring bool\nsize alpha 2\nmatrix V alpha alpha\n1 1\n1 1\n",
     "2 x 2\n1 1\n1 1\n"),
    ("V * V",
     "semiring tropical\nsize alpha 2\nmatrix V alpha alpha\n1 2\n3 4\n",
     "2 x 2\n2 3\n4 5\n"),
    ("[0.1]", "semiring rational\nsize alpha 1\n", "1 x 1\n1/10\n"),
], ids=["bool", "tropical", "rational"])
def test_circuit_eval_prints_what_eval_prints(files, capsys, expr, inputs,
                                              expected):
    schema = files("s.schema", "var V : alpha x alpha\n")
    inst = files("i.inst", inputs)
    code, dump, _ = run(capsys, "compile-circuit", "-e", expr,
                        "--schema", schema, "--dim", "alpha=2")
    assert code == 0
    circ = files("c.circuit", dump)
    got = run(capsys, "circuit-eval", "--circuit", circ, "--inputs", inst)
    assert got == (0, expected, "")
    assert run(capsys, "eval", "-e", expr, "--instance", inst) == got


def test_eval_prints_a_nat_past_the_int_string_limit(files, capsys):
    # 2 squared 2 ** 4 times is 2 ** 65536, 19,729 digits
    inst = files("two.inst", "semiring nat\nsize alpha 2\n")
    schema = files("s.schema", "".join(f"var {x} : 1 x 1\n" for x in "XYZW"))
    code, out, err = run(
        capsys, "eval", "-e",
        "for a, X = [2] . for b, Y = X . for c, Z = Y . for d, W = Z . W * W",
        "--instance", inst, "--schema", schema)
    assert (code, err) == (0, "")
    header, digits = out.splitlines()
    assert header == "1 x 1"
    assert len(digits) == 19729
    assert digits[-20:] == str(pow(2, 65536, 10 ** 20)).zfill(20)


def test_eval_reads_a_nat_past_the_int_string_limit(files, capsys):
    big = "1" + "0" * 5000
    inst = files("big.inst", "semiring nat\nsize alpha 1\n"
                             f"matrix V alpha alpha\n{big}\n")
    code, out, err = run(capsys, "eval", "-e", "V + V", "--instance", inst)
    assert (code, err) == (0, "")
    assert out == "1 x 1\n2" + "0" * 5000 + "\n"


def test_a_long_bad_nat_is_echoed_cut_short(files, capsys):
    bad = "1" + "0" * 4999 + "x"
    inst = files("bad.inst", "semiring nat\nsize alpha 1\n"
                             f"matrix V alpha alpha\n{bad}\n")
    code, out, err = run(capsys, "eval", "-e", "V", "--instance", inst)
    assert (code, out) == (2, "")
    assert "not a natural number: '1000" in err
    assert len(err) < 200


@pytest.mark.parametrize("dim", ["alpha=1" + "x" * 5000, "alpha" * 1000],
                         ids=["bad dimension", "no equals sign"])
def test_a_long_dim_is_echoed_cut_short(files, capsys, dim):
    uv = files("uv.schema", "var u : alpha x 1\nvar v : alpha x 1\n")
    code, out, err = run(capsys, "compile-circuit", "-e", "u^T * v",
                         "--schema", uv, "--dim", dim)
    assert (code, out) == (1, "")
    assert err.startswith("error: --dim ")
    assert len(err) < 200


BIG = "1" + "0" * 5000


@pytest.mark.parametrize("command, expected", [
    (["check", "--schema", "{s}"], "1 x 1\n"),
    (["desugar"], f"[{BIG}]\n"),
    (["eval", "--instance", "{nat.inst}"], f"1 x 1\n{BIG}\n"),
], ids=["check", "desugar", "eval"])
def test_a_literal_past_the_int_string_limit_comes_back(files, capsys,
                                                        command, expected):
    paths = {"s": files("s.schema", "var V : alpha x alpha\n"),
             "nat.inst": files("nat.inst", "semiring nat\nsize alpha 1\n")}
    argv = [paths[a[1:-1]] if a.startswith("{") else a for a in command]
    code, out, err = run(capsys, argv[0], "-e", f"[{BIG}]", *argv[1:])
    assert (code, out, err) == (0, expected, "")


def test_a_literal_reads_as_its_text_reads_in_an_instance_file(files, capsys):
    inst = files("q.inst", "semiring rational\nsize alpha 1\n"
                           "matrix V alpha alpha\n0.1\n")
    code, out, _ = run(capsys, "eval", "-e", "[0.1]", "--instance", inst)
    assert (code, out) == (0, "1 x 1\n1/10\n")
    code, out, _ = run(capsys, "eval", "-e", "[0.1] .* V", "--instance", inst)
    assert (code, out) == (0, "1 x 1\n1/100\n")
    # past the float range, as a real instance file reads it
    inst = files("r.inst", "semiring real\nsize alpha 1\n"
                           "matrix V alpha alpha\n2\n")
    code, out, _ = run(capsys, "eval", "-e", f"[1{'0' * 400}] .* V",
                       "--instance", inst)
    assert (code, out) == (0, "1 x 1\ninf\n")
    schema = files("s.schema", "var V : alpha x alpha\n")
    code, out, _ = run(capsys, "compile-circuit", "-e", "[0.1] .* V",
                       "--schema", schema, "--dim", "alpha=1")
    assert code == 0
    assert "g2 = sum g1 g1 g1 g1 g1 g1 g1 g1 g1 g1\ng3 = div g1 g2\n" in out


def test_a_long_rational_divided_by_zero_is_an_eval_error(files, capsys):
    inst = files("q.inst", "semiring rational\nsize alpha 1\n")
    code, out, err = run(capsys, "eval", "-e", f"div([{BIG}], [0])",
                         "--instance", inst)
    assert (code, out) == (3, "")
    assert err.startswith("error: division by zero")


def test_circuit_stats_on_a_number_past_the_int_string_limit(files, capsys):
    circuit = files("big.circ",
                    f"g0 = input V[{'1' * 5000},1]\noutput[1,1] = g0\n")
    code, out, err = run(capsys, "circuit-stats", "--circuit", circuit)
    assert (code, out) == (2, "")
    assert "Traceback" not in err and len(err) < 200


def test_check_a_pointwise_name_past_the_int_string_limit(files, capsys):
    schema = files("s.schema", "var V : alpha x alpha\n")
    code, out, err = run(capsys, "check", "-e", f"hsum{'1' * 5000}(V, V)",
                         "--schema", schema)
    assert (code, out, err) == (0, "alpha x alpha\n", "")
