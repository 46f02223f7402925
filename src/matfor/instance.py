"""Instances: concrete dimensions for size symbols and concrete matrices.

Text format (UTF-8, '#' starts a line comment)::

    semiring real
    size alpha 3
    matrix V alpha alpha
    1 2 3
    4 5 6
    7 8 9
    matrix v alpha 1
    1
    2
    3

`1` is allowed as a size symbol and always has dimension 1.  The loader
returns the instance, the declared semiring, and the schema induced by the
matrix declarations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ast import MatrixType, Schema, UNIT
from .errors import FormatError, MatforError, ShapeError
from .matrix import KMatrix, from_rows
from .semiring import Semiring, by_name


@dataclass
class Instance:
    dims: dict[str, int] = field(default_factory=dict)
    mats: dict[str, KMatrix] = field(default_factory=dict)

    def __post_init__(self):
        self.dims.setdefault(UNIT, 1)
        for sym, n in self.dims.items():
            if n < 1:
                raise ShapeError(
                    f"size symbol '{sym}' has dimension {n}; dimensions "
                    f"must be >= 1")


@dataclass
class LoadedInstance:
    instance: Instance
    semiring: Semiring
    schema: Schema


def parse_instance(text: str) -> LoadedInstance:
    sr = None
    dims: dict[str, int] = {UNIT: 1}
    mats: dict[str, KMatrix] = {}
    schema = Schema()

    lines = text.splitlines()
    i = 0

    def strip(line):
        return line.split("#", 1)[0].strip()

    def dim_of(sym, lineno):
        if sym == UNIT:
            return 1
        if sym not in dims:
            raise FormatError(f"size symbol '{sym}' not declared", lineno)
        return dims[sym]

    while i < len(lines):
        lineno = i + 1
        line = strip(lines[i])
        i += 1
        if not line:
            continue
        parts = line.split()
        if parts[0] == "semiring":
            if len(parts) != 2:
                raise FormatError("expected: semiring NAME", lineno)
            if mats:
                raise FormatError(
                    "a 'semiring' line must precede matrix blocks", lineno)
            try:
                sr = by_name(parts[1])
            except MatforError as exc:
                raise FormatError(str(exc), lineno) from None
        elif parts[0] == "size":
            if len(parts) != 3:
                raise FormatError("expected: size SYM N", lineno)
            sym = parts[1]
            try:
                n = int(parts[2])
            except ValueError:
                raise FormatError(f"bad dimension {parts[2]!r}", lineno) from None
            if n < 1:
                raise FormatError("dimensions must be >= 1", lineno)
            if sym == UNIT and n != 1:
                raise FormatError("symbol '1' always has dimension 1", lineno)
            dims[sym] = n
        elif parts[0] == "matrix":
            if len(parts) != 4:
                raise FormatError("expected: matrix NAME SYM SYM", lineno)
            if sr is None:
                raise FormatError(
                    "a 'semiring' line must precede matrix blocks", lineno)
            name, rsym, csym = parts[1], parts[2], parts[3]
            nrows = dim_of(rsym, lineno)
            ncols = dim_of(csym, lineno)
            rows = []
            for _ in range(nrows):
                if i >= len(lines):
                    raise FormatError(
                        f"matrix '{name}' needs {nrows} rows", lineno)
                rowno = i + 1
                row_line = strip(lines[i])
                i += 1
                if not row_line:
                    raise FormatError(
                        f"blank line inside matrix '{name}'", rowno)
                vals = row_line.split()
                if len(vals) != ncols:
                    raise FormatError(
                        f"row of matrix '{name}' has {len(vals)} values, "
                        f"expected {ncols}", rowno)
                try:
                    rows.append([sr.parse(v) for v in vals])
                except FormatError as exc:
                    raise FormatError(str(exc), rowno) from None
            if name in mats:
                raise FormatError(f"matrix '{name}' declared twice", lineno)
            mats[name] = from_rows(rows)
            schema.declare(name, MatrixType(rsym, csym))
        else:
            raise FormatError(f"unrecognised directive {parts[0]!r}", lineno)

    if sr is None:
        raise FormatError("missing 'semiring' line")
    inst = Instance(dims, mats)
    _validate_shapes(inst, schema)
    return LoadedInstance(inst, sr, schema)


def _validate_shapes(inst: Instance, schema: Schema):
    for name, t in schema.vars.items():
        mat = inst.mats.get(name)
        if mat is None:
            continue
        want = (inst.dims.get(t.rows), inst.dims.get(t.cols))
        if None in want:
            raise ShapeError(f"matrix '{name}' uses an undeclared size symbol")
        if mat.shape != want:
            raise ShapeError(
                f"matrix '{name}' has shape {mat.shape}, expected {want}")


def load_instance(path: str) -> LoadedInstance:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_instance(text)
