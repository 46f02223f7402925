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

`1` is allowed as a size symbol and always has dimension 1.  A size symbol
has one dimension: `set_dimension` is the one rule that gives it one from
text, and it rejects a second, different one.  The loader reads every value
once, in the semiring the caller names, or else in the one the file's
`semiring` line names; it returns the instance, that semiring, and the
schema induced by the matrix declarations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ast import MatrixType, Schema, UNIT
from .errors import FormatError, ShapeError
from .matrix import KMatrix, from_rows
from .semiring import Semiring, read_semiring_line


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


def set_dimension(dims: dict[str, int], sym: str, text: str, line=None):
    """Give `sym` the dimension written `text` in `dims`: an integer >= 1,
    and the one `sym` already has if it has one."""
    try:
        n = int(text)
    except ValueError:
        raise FormatError(f"bad dimension {text!r}", line) from None
    if n < 1:
        raise FormatError("dimensions must be >= 1", line)
    if dims.setdefault(sym, n) != n:
        raise FormatError(
            f"size symbol '{sym}' already has dimension {dims[sym]}", line)


def parse_instance(text: str, sr: Semiring | None = None) -> LoadedInstance:
    """The instance in `text`, its values read in `sr` when it is given and
    otherwise in the semiring the file names."""
    named = None
    dims: dict[str, int] = {UNIT: 1}
    mats: dict[str, KMatrix] = {}
    schema = Schema()

    lines = text.splitlines()
    i = 0

    def strip(line):
        return line.split("#", 1)[0].strip()

    def dim_of(sym, lineno):
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
            named = read_semiring_line(parts, lineno, bool(mats), "matrix")
        elif parts[0] == "size":
            if len(parts) != 3:
                raise FormatError("expected: size SYM N", lineno)
            set_dimension(dims, parts[1], parts[2], lineno)
        elif parts[0] == "matrix":
            if len(parts) != 4:
                raise FormatError("expected: matrix NAME SYM SYM", lineno)
            if named is None:
                raise FormatError(
                    "a 'semiring' line must precede matrix blocks", lineno)
            carrier = sr or named
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
                    rows.append([carrier.parse(v) for v in vals])
                except FormatError as exc:
                    raise FormatError(str(exc), rowno) from None
            if name in mats:
                raise FormatError(f"matrix '{name}' declared twice", lineno)
            mats[name] = from_rows(rows)
            schema.declare(name, MatrixType(rsym, csym))
        else:
            raise FormatError(f"unrecognised directive {parts[0]!r}", lineno)

    if named is None:
        raise FormatError("missing 'semiring' line")
    return LoadedInstance(Instance(dims, mats), sr or named, schema)


def read_text(path: str) -> str:
    """The text of the file at `path`, which must be UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"{path}: byte {exc.start} is not UTF-8 ({exc.reason})") from None


def load_instance(path: str) -> LoadedInstance:
    return parse_instance(read_text(path))
