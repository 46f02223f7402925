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

from .errors import DivisionByZero, EvalError, FormatError, MissingInput

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
            if g.kind in (SUM, PROD) and not g.children:
                raise FormatError(f"gate g{i}: {g.kind} needs a child")
        for (r, col), idx in self.outputs:
            if not 0 <= idx < len(self.gates):
                raise FormatError(f"output references missing gate g{idx}")
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


def eval_circuit(c: Circuit, inputs: dict[tuple[str, int, int], object]):
    """Bottom-up evaluation; `inputs` maps (name, row, col) to numbers."""
    vals = [None] * len(c.gates)
    for i, g in enumerate(c.gates):
        try:
            if g.kind == INPUT:
                vals[i] = inputs[g.ref]
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
                vals[i] = vals[g.children[0]] / vals[g.children[1]]
        except KeyError:
            name, r, col = g.ref
            raise MissingInput(
                f"no value for input {name}[{r},{col}]") from None
        except ZeroDivisionError:
            raise DivisionByZero(f"division by zero at gate g{i}") from None
        except OverflowError:
            # an int too large for a float met a float or a division
            raise EvalError(
                f"value at gate g{i} is out of float range") from None
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


# one line of a dump: an output, an input gate, a constant, or an operation
_LINE_RE = re.compile(r"output\[(\d+),(\d+)\] = g(\d+)"
                      r"|g(\d+) = (?:input (\S+)\[(\d+),(\d+)\]|(const[01])"
                      r"|(sum|prod|div)((?:\s+g\d+)*))")


def load_circuit(text: str) -> Circuit:
    gates: list[Gate] = []
    outputs: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _LINE_RE.fullmatch(line)
        if m is None:
            raise FormatError("expected a gate or output line", lineno)
        r, col, out, idx, name, i, j, const, kind, refs = m.groups()
        if 0 in [int(x) for x in (r, col, i, j) if x]:
            raise FormatError("position is not 1-based", lineno)
        if out is not None:
            pos = int(r), int(col)
            if pos in outputs:
                raise FormatError(f"output[{r},{col}] is given twice", lineno)
            outputs[pos] = int(out)
        elif int(idx) != len(gates):
            raise FormatError(
                f"gate g{idx} out of order (expected g{len(gates)})", lineno)
        elif name is not None:
            gates.append(Gate(INPUT, ref=(name, int(i), int(j))))
        else:
            gates.append(Gate(const or kind,
                              tuple(map(int, re.findall(r"\d+", refs or "")))))
    c = Circuit(gates, list(outputs.items()))
    c.validate()
    return c
