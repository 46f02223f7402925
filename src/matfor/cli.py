"""Command-line driver.

Results go to stdout; diagnostics and prose to stderr.  Exit codes: 0 on
success, 1 for usage problems (bad flags, missing files), 3 for evaluation
errors (`EvalError`), 2 for every other error: parse, type, file format,
translation and circuit errors.

Commands::

    check            -e EXPR --schema FILE
    eval             -e EXPR --instance FILE [--semiring NAME] [--schema FILE]
    desugar          -e EXPR [--schema FILE]
    classify         -e EXPR [--schema FILE]
    to-ra            -e EXPR --schema FILE
    from-ra          -q FILE --relschema FILE
    compile-circuit  -e EXPR --schema FILE --dim SYM=N [--dim SYM=N ...]
    circuit-eval     --circuit FILE --inputs FILE
    circuit-stats    --circuit FILE
    stdlib           [NAME] [--emit-schema]
    demo             {lu,plu,inv,det,tc,clique} --instance FILE

`eval` induces the schema from the instance file; loop iterators that are
not declared anywhere default to the single non-unit size symbol of the
instance when there is exactly one, else to a fresh one (`sugar._Fresh`,
``_s1``, ``_s2``, ...) that no schema type, instance ``size`` line or order
matrix uses.  `desugar` gives them fresh symbols too; `check`, `to-ra`,
`compile-circuit` and `classify --schema` type iterators only from
``--schema``.  `eval --semiring NAME` reads the file's values as written, in
the carrier NAME, and evaluates there; an unknown NAME is a bad flag.  A
size symbol has one dimension: a repeated `--dim`, like a repeated `size`
line, must give the one it already has, and the unit symbol `1` is always 1
(see `instance.set_dimension`).  `demo` expects the instance to provide a
square matrix variable `V`.  `circuit-eval` computes and prints in the
semiring of its `--inputs` file (see `circuit_compile` on constants).
"""

from __future__ import annotations

import argparse
import sys

from . import stdlib
from .ast import MatrixType, OrderPrim, Schema, UNIT, binders, walk
from .bridge import phi_translate, psi_translate
from .circuit_compile import compile_expr
from .circuits import dump_circuit, eval_circuit, load_circuit, stats
from .errors import EvalError, FormatError, MatforError, _echo
from .evaluator import evaluate
from .fragments import classify
from .instance import parse_instance, read_text, set_dimension
from .matrix import KMatrix, format_matrix
from .parser import format_schema, parse_expr, parse_schema
from .printer import pretty
from .relalg import format_ra, parse_ra, parse_relations
from .semiring import SEMIRINGS
from .sugar import _Fresh, desugar
from .typecheck import typecheck


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read(path):
    try:
        return read_text(path)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from None


def _load_schema(path):
    return parse_schema(_read(path))


def _extend_for_iterators(e, schema, dims=()):
    """Give undeclared, unannotated iterators the one symbol of `dims` other
    than the unit, if there is one, else each a fresh symbol: one that no
    symbol in `dims`, in the schema or in an order matrix of `e` is."""
    out, nodes, types = Schema(schema.vars), [*walk(e)], schema.vars.values()
    fresh = _Fresh({*dims, *(t.rows for t in types), *(t.cols for t in types),
                    *(n.sym for n in nodes if isinstance(n, OrderPrim))})
    syms = [s for s in dims if s != UNIT]
    for node in nodes:
        if binders(node) and node.var_sym is None and node.var not in out:
            sym = syms[0] if len(syms) == 1 else fresh.name("_s")
            out.declare(node.var, MatrixType(sym, UNIT))
    return out


def _emit(text):
    sys.stdout.write(text + "\n")
    sys.stdout.flush()


def _info(text):
    sys.stderr.write(text + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check(args):
    e = parse_expr(args.expr)
    schema = _load_schema(args.schema)
    _emit(str(typecheck(e, schema)))
    return 0


def _cmd_eval(args):
    e = parse_expr(args.expr)
    # argparse has checked the name, so an absent one is None
    loaded = parse_instance(_read(args.instance), SEMIRINGS.get(args.semiring))
    inst, sr = loaded.instance, loaded.semiring
    schema = loaded.schema
    if args.schema:
        schema = schema.merged(_load_schema(args.schema))
    schema = _extend_for_iterators(e, schema, inst.dims)
    typecheck(e, schema)
    result = evaluate(e, inst, sr, schema=schema)
    _emit(format_matrix(result, sr))
    return 0


def _cmd_desugar(args):
    e = parse_expr(args.expr)
    schema = _load_schema(args.schema) if args.schema else Schema()
    schema = _extend_for_iterators(e, schema)
    _emit(pretty(desugar(e, schema)))
    return 0


def _cmd_classify(args):
    e = parse_expr(args.expr)
    if args.schema:
        typecheck(e, _load_schema(args.schema))
    _emit(str(classify(e)))
    return 0


def _cmd_to_ra(args):
    e = parse_expr(args.expr)
    schema = _load_schema(args.schema)
    typecheck(e, schema)
    _emit(format_ra(phi_translate(e, schema)))
    return 0


def _cmd_from_ra(args):
    q = parse_ra(_read(args.query))
    _, rels = parse_relations(_read(args.relschema))
    relschema = {name: rel.signature for name, rel in rels.items()}
    _emit(pretty(psi_translate(q, relschema)))
    return 0


def _parse_dims(pairs):
    dims = {UNIT: 1}
    for item in pairs:
        if "=" not in item:
            raise _UsageError(f"--dim expects SYM=N, got {_echo(item)}")
        sym, _, n = item.partition("=")
        try:
            set_dimension(dims, sym, n)
        except FormatError as exc:
            raise _UsageError(f"--dim {_echo(item)}: {exc}") from None
    return dims


def _cmd_compile_circuit(args):
    e = parse_expr(args.expr)
    schema = _load_schema(args.schema)
    typecheck(e, schema)
    c = compile_expr(e, schema, _parse_dims(args.dim or []))
    _emit(dump_circuit(c))
    return 0


def _cmd_circuit_eval(args):
    c = load_circuit(_read(args.circuit))
    loaded = parse_instance(_read(args.inputs))
    inputs = {(name, i + 1, j + 1): mat.get(i, j)
              for name, mat in loaded.instance.mats.items()
              for i in range(mat.rows) for j in range(mat.cols)}
    sr = loaded.semiring
    out = eval_circuit(c, inputs, sr)
    rows = max((r for r, _ in out), default=0)
    cols = max((cc for _, cc in out), default=0)
    if len(out) == rows * cols:
        mat = KMatrix(rows, cols,
                      tuple(out[(i + 1, j + 1)] for i in range(rows)
                            for j in range(cols)))
        _emit(format_matrix(mat, sr))
    else:
        for (r, cc) in sorted(out):
            _emit(f"[{r},{cc}] = {sr.fmt(out[(r, cc)])}")
    return 0


def _cmd_circuit_stats(args):
    st = stats(load_circuit(_read(args.circuit)))
    for field in ("n_gates", "n_wires", "size", "depth", "degree",
                  "total_degree"):
        _emit(f"{field.replace('n_', '')} {getattr(st, field)}")
    return 0


def _cmd_stdlib(args):
    lib = stdlib.all_named()
    if not args.name:
        for name in sorted(lib):
            _emit(f"{name}: {lib[name].description}")
        return 0
    if args.name not in lib:
        raise _UsageError(
            f"unknown stdlib expression {_echo(args.name)} "
            f"(run `matfor stdlib` for the list)")
    item = lib[args.name]
    if args.emit_schema:
        _emit(format_schema(item.schema))
    else:
        _emit(pretty(item.expr))
    return 0


_DEMOS = {
    "lu": (("lu_lower", "L"), ("lu_upper", "U")),
    "plu": (("plu_transform", "M"), ("plu_upper", "U")),
    "inv": (("inverse", "A^-1"),),
    "det": (("determinant", "det"),),
    "tc": (("transitive_closure", "closure"),),
    "clique": (("four_clique", "ordered 4-clique count"),),
}


def _cmd_demo(args):
    loaded = parse_instance(_read(args.instance))
    lib = stdlib.all_named()
    first = True
    for name, label in _DEMOS[args.kind]:
        item = lib[name]
        schema = item.schema.merged(loaded.schema)
        result = evaluate(item.expr, loaded.instance, loaded.semiring,
                          schema=schema)
        if not first:
            _emit("")
        _info(f"{label}:")
        _emit(format_matrix(result, loaded.semiring))
        first = False
    return 0


# ---------------------------------------------------------------------------


def build_parser():
    p = _ArgumentParser(prog="matfor",
                        description="matrix query language workbench")
    sub = p.add_subparsers(dest="command", required=True)

    def cmd(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        return sp

    sp = cmd("check", _cmd_check, help="type check an expression")
    sp.add_argument("-e", "--expr", required=True)
    sp.add_argument("--schema", required=True)

    sp = cmd("eval", _cmd_eval, help="evaluate an expression on an instance")
    sp.add_argument("-e", "--expr", required=True)
    sp.add_argument("--instance", required=True)
    sp.add_argument("--semiring", choices=sorted(SEMIRINGS),
                    help="read the instance's values in this semiring")
    sp.add_argument("--schema", help="extra declarations (loop variables)")

    sp = cmd("desugar", _cmd_desugar, help="lower sugar to the core forms")
    sp.add_argument("-e", "--expr", required=True)
    sp.add_argument("--schema")

    sp = cmd("classify", _cmd_classify, help="least loop fragment")
    sp.add_argument("-e", "--expr", required=True)
    sp.add_argument("--schema")

    sp = cmd("to-ra", _cmd_to_ra,
             help="translate an additive expression to relational algebra")
    sp.add_argument("-e", "--expr", required=True)
    sp.add_argument("--schema", required=True)

    sp = cmd("from-ra", _cmd_from_ra,
             help="translate a relational query to an expression")
    sp.add_argument("-q", "--query", required=True)
    sp.add_argument("--relschema", required=True,
                    help="relation file providing the schema")

    sp = cmd("compile-circuit", _cmd_compile_circuit,
             help="compile to an arithmetic circuit")
    sp.add_argument("-e", "--expr", required=True)
    sp.add_argument("--schema", required=True)
    sp.add_argument("--dim", action="append", metavar="SYM=N")

    sp = cmd("circuit-eval", _cmd_circuit_eval, help="evaluate a circuit")
    sp.add_argument("--circuit", required=True)
    sp.add_argument("--inputs", required=True,
                    help="instance file supplying input matrices")

    sp = cmd("circuit-stats", _cmd_circuit_stats,
             help="size, depth, and degree of a circuit")
    sp.add_argument("--circuit", required=True)

    sp = cmd("stdlib", _cmd_stdlib, help="print a named library expression")
    sp.add_argument("name", nargs="?")
    sp.add_argument("--emit-schema", action="store_true",
                    help="print the schema template instead")

    sp = cmd("demo", _cmd_demo, help="run a library pipeline on an instance")
    sp.add_argument("kind", choices=sorted(_DEMOS))
    sp.add_argument("--instance", required=True)

    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        _info(f"error: {exc}")
        return 1
    except EvalError as exc:
        _info(f"error: {exc}")
        return 3
    except MatforError as exc:
        _info(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
