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
`semiring.records`, and `load_circuit(dump_circuit(c))` reproduces the
circuit bit-exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import reduce
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
        for i, g in enumerate(self.gates):
            for c in g.children:
                if not 0 <= c < i:
                    raise FormatError(f"gate g{i} references {_echo(f'g{c}')}"
                                      f", which does not precede it")
            if g.kind == DIV and len(g.children) != 2:
                raise FormatError(f"gate g{i}: div needs exactly 2 children")
            if g.kind in (SUM, PROD) and not g.children:
                raise FormatError(f"gate g{i}: {g.kind} needs a child")
            if g.kind == INPUT and min(g.ref[1:]) < 1:
                raise FormatError(f"gate g{i}: input position "
                                  f"[{g.ref[1]},{g.ref[2]}] is not 1-based")
        for (r, col), idx in self.outputs:
            if not 0 <= idx < len(self.gates):
                raise FormatError(
                    f"output references missing gate {_echo(f'g{idx}')}")
            if r < 1 or col < 1:
                raise FormatError(
                    f"output position [{r},{col}] is not 1-based")


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
    carrier values."""
    vals = []
    for i, g in enumerate(c.gates):
        args = map(vals.__getitem__, g.children)
        if g.kind == SUM:
            vals.append(reduce(sr.plus, args, sr.zero))
        elif g.kind == PROD:
            vals.append(reduce(sr.times, args, sr.one))
        elif g.kind == INPUT:
            if g.ref not in inputs:
                name, r, col = g.ref
                raise MissingInput(
                    f"no value for input {_echo(f'{name}[{r},{col}]')}")
            vals.append(inputs[g.ref])
        elif g.kind in (ZERO, ONE):
            vals.append(sr.one if g.kind == ONE else sr.zero)
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


def stats(c: Circuit) -> CircuitStats:
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
    lines = []
    for i, g in enumerate(c.gates):
        if g.kind == INPUT:
            name, r, col = g.ref
            lines.append(f"g{i} = input {name}[{r},{col}]")
        else:
            refs = " ".join(f"g{ch}" for ch in g.children)
            lines.append(f"g{i} = {g.kind} {refs}".rstrip())
    for (r, col), idx in c.outputs:
        lines.append(f"output[{r},{col}] = g{idx}")
    return "\n".join(lines)


# one line of a dump: an output, an input gate, a constant, or an operation
_LINE_RE = re.compile(r"output\[(\d+),(\d+)\] = g(\d+)"
                      r"|g(\d+) = (?:input (\S+)\[(\d+),(\d+)\]|(const[01])"
                      r"|(sum|prod|div)((?:\s+g\d+)*))")


def load_circuit(text: str) -> Circuit:
    gates: list[Gate] = []
    outputs: dict[tuple[int, int], int] = {}
    for lineno, line in records(text):
        m = _LINE_RE.fullmatch(line)
        if m is None:
            raise FormatError("expected a gate or output line", lineno)
        r, col, out, idx, name, i, j, const, kind, refs = m.groups()
        r, col, out, idx, i, j, *children = (
            x and _count(x, "number", lineno) for x in
            (r, col, out, idx, i, j, *re.findall(r"\d+", refs or "")))
        if 0 in (r, col, i, j):
            raise FormatError("position is not 1-based", lineno)
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
    c.validate()
    return c
