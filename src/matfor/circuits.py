"""Arithmetic-circuit IR: evaluation, size/depth/degree analysis, text dump.

A circuit is a DAG of gates in topological order (children always precede
parents).  Gates: inputs labelled by a matrix-entry coordinate, the
constants 0 and 1, unbounded fan-in sum and product gates, and a binary
division gate.  A `Gate` is a named tuple, so gates compare and hash by
value and a builder can intern them directly.  Outputs are gate references
labelled with (row, col) positions of the result matrix.

`eval_circuit` computes in a semiring K (``real`` by default) with K's
operations, and a division gate is an error where K has no ``div``.  A
constant is a natural, or a rational through division, so over K it means
its image under N -> K (see `circuit_compile`).

Degree is inductive: input and constant gates count 1, a sum gate takes the
maximum over its children, a product gate the sum, and a division gate the
maximum of numerator and denominator (a bound in lieu of a division
elimination pass).  A circuit's degree is the maximum over its outputs; the
sum over outputs is also reported (`total_degree`).  Depth counts edges on
the longest output-to-input path; size counts gates plus wires.

Dump format, one gate per line, then one line per output::

    g0 = input V[1,2]
    g1 = const1
    g2 = sum g0 g1
    g3 = prod g2 g2
    g4 = div g3 g1
    output[1,1] = g4

Coordinates are 1-based.  `load_circuit` reads its lines by
`semiring.records`, and it is the one rule for a well-formed circuit: each
line fits the grammar above, children precede their gate, a division has
two children, a sum or product at least one, and each output names a gate.
`Circuit.validate` is the loader's round trip: a circuit is well formed
exactly when `load_circuit(dump_circuit(c))` gives back its gates and
outputs, in order.  `stats` applies the loader's checks on how gates
connect before it reads a circuit, and `eval_circuit`, on the compiler's
path, once its walk has failed; only a child or output index below zero
still evaluates there, read from the end of the gate list.  An input name
is written only if the loader reads it back.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import reduce
from itertools import zip_longest
from typing import NamedTuple

from .errors import (DivisionByZero, FormatError,
                     FunctionUnavailableForSemiring, MissingInput, _echo)
from .semiring import REAL, Semiring, _count, records

INPUT, ZERO, ONE, SUM, PROD, DIV = "input", "const0", "const1", "sum", "prod", "div"


class Gate(NamedTuple):
    kind: str
    children: tuple[int, ...] = ()
    ref: tuple[str, int, int] | None = None  # (matrix name, row, col), 1-based


@dataclass
class Circuit:
    gates: list[Gate] = field(default_factory=list)
    outputs: list[tuple[tuple[int, int], int]] = field(default_factory=list)

    def validate(self):
        """The loader's round trip: a `FormatError` naming the gate or output
        at fault unless `load_circuit(dump_circuit(self))` gives back these
        gates and outputs, in order."""
        text = dump_circuit(self)
        try:
            back = load_circuit(text)
        except FormatError as exc:
            if exc.line is None:
                raise
            n, msg = exc.line - 1, str(exc).partition(": ")[2]
            if msg == _NO_LINE:
                msg = (f"{_entry(n, len(self.gates))} cannot be written as "
                       f"a dump line")
            elif n < len(self.gates):
                msg = f"gate g{n}: {msg}"
            raise FormatError(msg) from None
        for n, (mine, theirs) in enumerate(zip_longest(
                [*self.gates, *self.outputs], [*back.gates, *back.outputs])):
            if mine != theirs:
                raise FormatError(f"{_entry(n, len(self.gates))} does not "
                                  f"load back from its dump line")


def _entry(n: int, n_gates: int | None) -> str:
    """The gate or output that line n + 1 of a dump of `n_gates` gates
    writes; `None` while the gates are still being written."""
    if n_gates is None or n < n_gates:
        return f"gate g{n}"
    return f"outputs[{n - n_gates}]"


def _check_structure(c: Circuit) -> None:
    """The loader's rule for how gates connect: a `FormatError` unless each
    gate has a known kind and children that precede it, a division has two
    children, a sum or product at least one, and each output names a
    gate."""
    for i, g in enumerate(c.gates):
        if g.kind not in (INPUT, ZERO, ONE, SUM, PROD, DIV):
            raise FormatError(f"gate g{i}: unknown kind {_echo(g.kind)}")
        for ch in g.children:
            if not 0 <= ch < i:
                raise FormatError(f"gate g{i} references {_echo(f'g{ch}')}"
                                  f", which does not precede it")
        if g.kind == DIV and len(g.children) != 2:
            raise FormatError(f"gate g{i}: div needs exactly 2 children")
        if g.kind in (SUM, PROD) and not g.children:
            raise FormatError(f"gate g{i}: {g.kind} needs a child")
    for _, idx in c.outputs:
        if not 0 <= idx < len(c.gates):
            raise FormatError(
                f"output references missing gate {_echo(f'g{idx}')}")


@dataclass(frozen=True)
class CircuitStats:
    size: int          # gates + wires
    n_gates: int
    n_wires: int
    depth: int
    degree: int        # max over outputs
    total_degree: int  # sum over outputs
    degree_per_output: tuple[tuple[tuple[int, int], int], ...]


def eval_circuit(c: Circuit, inputs: dict[tuple[str, int, int], object],
                 sr: Semiring = REAL):
    """Bottom-up evaluation over `sr`; `inputs` maps (name, row, col) to
    carrier values.  A circuit that evaluation cannot walk gets the
    loader's `FormatError`, found only once the walk has failed."""
    vals = []
    try:
        for i, (kind, children, ref) in enumerate(c.gates):
            args = map(vals.__getitem__, children)
            if kind == SUM and children:
                vals.append(reduce(sr.plus, args, sr.zero))
            elif kind == PROD and children:
                vals.append(reduce(sr.times, args, sr.one))
            elif kind == INPUT:
                if ref not in inputs:
                    name, r, col = ref
                    raise MissingInput(
                        f"no value for input {_echo(f'{name}[{r},{col}]')}")
                vals.append(inputs[ref])
            elif kind in (ZERO, ONE):
                vals.append(sr.one if kind == ONE else sr.zero)
            elif kind != DIV:  # an empty sum or product, or an unknown kind
                raise TypeError(kind)
            elif sr.div is None:
                raise FunctionUnavailableForSemiring(
                    f"div at gate g{i} is not available over the {sr.name} "
                    f"semiring")
            else:
                try:
                    vals.append(sr.div(*args))
                except DivisionByZero:
                    raise DivisionByZero(
                        f"division by zero at gate g{i}") from None
        return {pos: vals[idx] for pos, idx in c.outputs}
    except (IndexError, TypeError):
        _check_structure(c)
        raise


def stats(c: Circuit) -> CircuitStats:
    _check_structure(c)
    degree = [0] * len(c.gates)
    depth = [0] * len(c.gates)
    wires = 0
    for i, g in enumerate(c.gates):
        if g.kind in (INPUT, ZERO, ONE):
            degree[i] = 1
            continue
        wires += len(g.children)
        depth[i] = 1 + max(depth[ch] for ch in g.children)
        degree[i] = (sum if g.kind == PROD else max)(
            degree[ch] for ch in g.children)
    per_output = tuple((pos, degree[idx]) for pos, idx in c.outputs)
    out_depth = max((depth[idx] for _, idx in c.outputs), default=0)
    out_deg = max((d for _, d in per_output), default=0)
    return CircuitStats(size=len(c.gates) + wires,
                        n_gates=len(c.gates),
                        n_wires=wires,
                        depth=out_depth,
                        degree=out_deg,
                        total_degree=sum(d for _, d in per_output),
                        degree_per_output=per_output)


def prune(c: Circuit) -> Circuit:
    """Drop gates unreachable from the outputs, keeping gate order."""
    alive = set()
    stack = [idx for _, idx in c.outputs]
    while stack:
        i = stack.pop()
        if i in alive:
            continue
        alive.add(i)
        stack.extend(c.gates[i].children)
    remap = {}
    gates = []
    for i in sorted(alive):
        remap[i] = len(gates)
        g = c.gates[i]
        gates.append(Gate(g.kind, tuple(remap[ch] for ch in g.children),
                          g.ref))
    return Circuit(gates, [(pos, remap[idx]) for pos, idx in c.outputs])


# ---------------------------------------------------------------------------
# Text dump


def dump_circuit(c: Circuit) -> str:
    """`c` as text; an entry it cannot write is a `FormatError` naming it."""
    lines, n_gates = [], None
    try:
        for i, g in enumerate(c.gates):
            if g.kind == INPUT:
                name, r, col = g.ref
                if not re.fullmatch(_NAME, name):
                    raise ValueError(name)
                lines.append(f"g{i} = input {name}[{r},{col}]")
            else:
                refs = " ".join(f"g{ch}" for ch in g.children)
                lines.append(f"g{i} = {g.kind} {refs}".rstrip())
        n_gates = len(lines)
        for (r, col), idx in c.outputs:
            lines.append(f"output[{r},{col}] = g{idx}")
    except (AttributeError, TypeError, ValueError):
        raise FormatError(f"{_entry(len(lines), n_gates)} cannot be written "
                          f"as a dump line") from None
    return "\n".join(lines)


# an input's matrix name, as read and as written: no blank, line break or `#`
_NAME = r"[^\s#]+"
# one line of a dump: an output, an input gate, a constant, or an operation
_LINE_RE = re.compile(r"output\[(\d+),(\d+)\] = g(\d+)"
                      rf"|g(\d+) = (?:input ({_NAME})\[(\d+),(\d+)\]"
                      r"|(const[01])|(sum|prod|div)((?:\s+g\d+)*))")
_NO_LINE = "expected a gate or output line"


def load_circuit(text: str) -> Circuit:
    gates: list[Gate] = []
    outputs: dict[tuple[int, int], int] = {}
    for lineno, line in records(text):
        m = _LINE_RE.fullmatch(line)
        if m is None:
            raise FormatError(_NO_LINE, lineno)
        r, col, out, idx, name, i, j, const, kind, refs = m.groups()
        r, col, out, idx, i, j, *children = (
            x and _count(x, "number", lineno) for x in
            (r, col, out, idx, i, j, *re.findall(r"\d+", refs or "")))
        if 0 in (r, col):
            raise FormatError(f"output position {_echo(f'[{r},{col}]', str)} "
                              f"is not 1-based", lineno)
        if 0 in (i, j):
            raise FormatError(f"input position {_echo(f'[{i},{j}]', str)} "
                              f"is not 1-based", lineno)
        if out is not None:
            if (r, col) in outputs:
                raise FormatError(
                    f"{_echo(line.partition(' =')[0])} is given twice", lineno)
            outputs[r, col] = out
        elif idx != len(gates):
            raise FormatError(
                f"gate {_echo('g' + m[4])} out of order "
                f"(expected g{len(gates)})", lineno)
        elif name is not None:
            gates.append(Gate(INPUT, ref=(name, i, j)))
        else:
            gates.append(Gate(const or kind, tuple(children)))
    c = Circuit(gates, list(outputs.items()))
    _check_structure(c)
    return c
