"""Instances: concrete dimensions for size symbols and concrete matrices.

Text format (UTF-8, lines read by `semiring.records`)::

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
from .errors import FormatError, ShapeError, _echo
from .matrix import KMatrix, from_rows
from .semiring import Semiring, _count, read_semiring_line, records


@dataclass
class Instance:
    dims: dict[str, int] = field(default_factory=dict)
    mats: dict[str, KMatrix] = field(default_factory=dict)

    def __post_init__(self):
        self.dims.setdefault(UNIT, 1)
        for sym, n in self.dims.items():
            if not isinstance(n, int) or n < 1:
                raise ShapeError(
                    f"size symbol {_echo(sym)} has dimension "
                    f"{_echo(n, str)}; dimensions must be integers >= 1")
        for name, m in self.mats.items():
            if not isinstance(m, KMatrix):
                raise ShapeError(f"matrix {_echo(name)} is a "
                                 f"{type(m).__name__}, not a KMatrix")


@dataclass
class LoadedInstance:
    instance: Instance
    semiring: Semiring
    schema: Schema


def set_dimension(dims: dict[str, int], sym: str, text: str, line=None):
    """Give `sym` the dimension written `text` in `dims`: an integer >= 1,
    and the one `sym` already has if it has one."""
    n = _count(text, "dimension", line)
    if n < 1:
        raise FormatError("dimensions must be >= 1", line)
    if dims.setdefault(sym, n) != n:
        raise FormatError(
            f"size symbol {_echo(sym)} already has dimension "
            f"{_echo(dims[sym], str)}",
            line)


def parse_instance(text: str, sr: Semiring | None = None) -> LoadedInstance:
    """The instance in `text`, its values read in `sr` when it is given and
    otherwise in the semiring the file names."""
    named = None
    dims: dict[str, int] = {UNIT: 1}
    mats: dict[str, KMatrix] = {}
    schema = Schema()

    def dim_of(sym, lineno):
        if sym not in dims:
            raise FormatError(f"size symbol {_echo(sym)} not declared", lineno)
        return dims[sym]

    lines = records(text)
    for lineno, line in lines:
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
            # a block's rows are the lines right after its header
            for rowno in range(lineno + 1, lineno + 1 + nrows):
                at, row = next(lines, (None, None))
                if at is None:
                    raise FormatError(
                        f"matrix {_echo(name)} needs "
                        f"{_echo(nrows, str)} rows", lineno)
                if at != rowno:
                    raise FormatError(
                        f"blank line inside matrix {_echo(name)}", rowno)
                vals = row.split()
                if len(vals) != ncols:
                    raise FormatError(
                        f"row of matrix {_echo(name)} has {len(vals)} "
                        f"values, expected {_echo(ncols, str)}", rowno)
                try:
                    rows.append([carrier.parse(v) for v in vals])
                except FormatError as exc:
                    raise FormatError(str(exc), rowno) from None
            if name in mats:
                raise FormatError(
                    f"matrix {_echo(name)} declared twice", lineno)
            mats[name] = from_rows(rows)
            schema.declare(name, MatrixType(rsym, csym))
        else:
            raise FormatError(
                f"unrecognised directive {_echo(parts[0])}", lineno)

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
