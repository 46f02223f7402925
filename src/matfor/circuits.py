"""Arithmetic-circuit IR: evaluation, size/depth/degree analysis, text dump.

A circuit is a DAG of gates in topological order (children always precede
parents).  Gates: inputs labelled by a matrix-entry coordinate, the
constants 0 and 1, unbounded fan-in sum and product gates, and a binary
division gate.  A `Gate` is a named tuple, so gates compare and hash by
value and a builder can intern them directly.  Outputs are gate references
labelled with (row, col) positions of the result matrix.

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

Coordinates are 1-based.  `load_circuit(dump_circuit(c))` reproduces the
circuit bit-exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import DivisionByZero, FormatError, MissingInput

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
                    raise FormatError(
                        f"gate g{i} references g{c}, which does not precede it")
            if g.kind == DIV and len(g.children) != 2:
                raise FormatError(f"gate g{i}: div needs exactly 2 children")
        for _, idx in self.outputs:
            if not 0 <= idx < len(self.gates):
                raise FormatError(f"output references missing gate g{idx}")


@dataclass(frozen=True)
class CircuitStats:
    size: int          # gates + wires
    n_gates: int
    n_wires: int
    depth: int
    degree: int        # max over outputs
    total_degree: int  # sum over outputs
    degree_per_output: tuple[tuple[tuple[int, int], int], ...]


def eval_circuit(c: Circuit, inputs: dict[tuple[str, int, int], object]):
    """Bottom-up evaluation; `inputs` maps (name, row, col) to numbers."""
    vals = [None] * len(c.gates)
    for i, g in enumerate(c.gates):
        if g.kind == INPUT:
            try:
                vals[i] = inputs[g.ref]
            except KeyError:
                name, r, col = g.ref
                raise MissingInput(
                    f"no value for input {name}[{r},{col}]") from None
        elif g.kind == ZERO:
            vals[i] = 0
        elif g.kind == ONE:
            vals[i] = 1
        elif g.kind == SUM:
            acc = 0
            for ch in g.children:
                acc = acc + vals[ch]
            vals[i] = acc
        elif g.kind == PROD:
            acc = 1
            for ch in g.children:
                acc = acc * vals[ch]
            vals[i] = acc
        else:
            num, den = vals[g.children[0]], vals[g.children[1]]
            try:
                vals[i] = num / den
            except ZeroDivisionError:
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
            depth[i] = 0
            continue
        wires += len(g.children)
        depth[i] = 1 + max(depth[ch] for ch in g.children)
        if g.kind == SUM:
            degree[i] = max(degree[ch] for ch in g.children)
        elif g.kind == PROD:
            degree[i] = sum(degree[ch] for ch in g.children)
        else:
            degree[i] = max(degree[ch] for ch in g.children)
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
        elif g.kind in (ZERO, ONE):
            lines.append(f"g{i} = {g.kind}")
        else:
            refs = " ".join(f"g{ch}" for ch in g.children)
            lines.append(f"g{i} = {g.kind} {refs}".rstrip())
    for (r, col), idx in c.outputs:
        lines.append(f"output[{r},{col}] = g{idx}")
    return "\n".join(lines)


_GATE_RE = re.compile(r"^g(\d+) = (.+)$")
_INPUT_RE = re.compile(r"^input (\S+)\[(\d+),(\d+)\]$")
_OUT_RE = re.compile(r"^output\[(\d+),(\d+)\] = g(\d+)$")


def load_circuit(text: str) -> Circuit:
    gates: list[Gate] = []
    outputs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _OUT_RE.match(line)
        if m:
            outputs.append(((int(m.group(1)), int(m.group(2))),
                            int(m.group(3))))
            continue
        m = _GATE_RE.match(line)
        if not m:
            raise FormatError("expected a gate or output line", lineno)
        idx = int(m.group(1))
        if idx != len(gates):
            raise FormatError(
                f"gate g{idx} out of order (expected g{len(gates)})", lineno)
        body = m.group(2).strip()
        mi = _INPUT_RE.match(body)
        if mi:
            gates.append(Gate(INPUT,
                              ref=(mi.group(1), int(mi.group(2)),
                                   int(mi.group(3)))))
            continue
        parts = body.split()
        kind = parts[0]
        if kind in (ZERO, ONE):
            if len(parts) != 1:
                raise FormatError(f"{kind} takes no children", lineno)
            gates.append(Gate(kind))
        elif kind in (SUM, PROD, DIV):
            try:
                children = tuple(int(p[1:]) for p in parts[1:])
            except ValueError:
                raise FormatError("bad gate reference", lineno) from None
            gates.append(Gate(kind, children))
        else:
            raise FormatError(f"unknown gate kind {kind!r}", lineno)
    c = Circuit(gates, outputs)
    c.validate()
    return c
