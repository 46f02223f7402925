"""Layer spans for the traced run, recorded from outside the package.

`Tracer.install` replaces each layer's public functions at the module
attribute where their callers look them up (``matfor.evaluator.mat_mul``,
``matfor.bridge.desugar``, ...) with a wrapper that records a span: name,
start, end, parent span and operation id.  Spans are kept in flat arrays,
which the garbage collector never scans, and written out at the end.
Wrappers record only while an operation id is set, so oracles and input
generation leave no spans.

Counters are kept at the same boundaries: multiply-adds and basis-vector
operands of `mat_mul`, characters parsed, gates before and after pruning,
circuit size, depth and degree, and tuples out of `eval_ra`.
"""

from __future__ import annotations

import gc
import importlib
import json
import time
import tracemalloc
from array import array

_MB = float(1 << 20)


def _is_basis(m, sr):
    """An n x 1 or 1 x n canonical basis vector, n >= 2."""
    if min(m.rows, m.cols) != 1 or max(m.rows, m.cols) < 2:
        return False
    ents = m.entries
    return ents.count(sr.one) == 1 and ents.count(sr.zero) == len(ents) - 1


def _count_mat_mul(counts, args, out):
    a, b, sr = args
    counts["matrix.mat_mul.madds"] += a.rows * a.cols * b.cols
    if _is_basis(a, sr) or _is_basis(b, sr):
        counts["matrix.mat_mul.basis_calls"] += 1


def _count_parse(counts, args, out):
    counts["parser.chars"] += len(args[0])


def _count_prune(counts, args, out):
    counts["circuits.prune.gates_in"] += len(args[0].gates)
    counts["circuits.prune.gates_out"] += len(out.gates)


def _count_compile(counts, args, out):
    st = importlib.import_module("matfor.circuits").stats(out)
    counts["circuits.n_gates"] += st.n_gates
    counts["circuits.depth"] = max(counts["circuits.depth"], st.depth)
    counts["circuits.degree"] = max(counts["circuits.degree"], st.degree)


def _count_eval_ra(counts, args, out):
    counts["relalg.out_tuples"] += len(out.support)


# (module, attribute, span name, counter); each attribute is where the
# layer's callers look the function up
WRAPPED = [
    ("matfor.evaluator", "mat_mul", "matrix.mat_mul", _count_mat_mul),
    ("matfor.evaluator", "mat_add", "matrix.mat_add", None),
    ("matfor.evaluator", "mat_scale", "matrix.mat_scale", None),
    ("matfor.evaluator", "mat_map", "matrix.mat_map", None),
    ("matfor.evaluator", "mat_transpose", "matrix.mat_transpose", None),
    ("matfor.evaluator", "evaluate", "evaluator.evaluate", None),
    ("matfor.circuit_compile", "compile_expr", "circuit_compile.compile",
     _count_compile),
    ("matfor.circuit_compile", "prune", "circuits.prune", _count_prune),
    ("matfor.circuits", "eval_circuit", "circuits.eval_circuit", None),
    ("matfor.parser", "parse_expr", "parser.parse", _count_parse),
    ("matfor.typecheck", "typecheck", "typecheck.typecheck", None),
    ("matfor.bridge", "desugar", "sugar.desugar", None),
    ("matfor.bridge", "phi_translate", "bridge.phi_translate", None),
    ("matfor.bridge", "psi_translate", "bridge.psi_translate", None),
    ("matfor.bridge", "rel_encode", "bridge.rel_encode", None),
    ("matfor.bridge", "mat_encode", "bridge.mat_encode", None),
    ("matfor.relalg", "parse_ra", "relalg.parse_ra", None),
    ("matfor.relalg", "eval_ra", "relalg.eval_ra", _count_eval_ra),
    ("matfor.stdlib", "all_named", "stdlib.all_named", None),
]

# counts that must repeat exactly when the same operations run again
REPEATED_COUNTS = (
    "matrix.mat_mul.madds", "matrix.mat_mul.basis_calls", "parser.chars",
    "circuits.prune.gates_in", "circuits.prune.gates_out",
    "circuits.n_gates", "circuits.depth", "circuits.degree",
    "relalg.out_tuples")


class Tracer:
    def __init__(self):
        self.names = [name for _, _, name, _ in WRAPPED]
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op_of = array("l")
        self.stack = []
        self.op_id = None
        self.counts = dict.fromkeys(REPEATED_COUNTS, 0)
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._gc_t0 = 0.0
        self._saved = []

    # -- wrapping --------------------------------------------------------

    def install(self):
        for idx, (mod_name, attr, _, counter) in enumerate(WRAPPED):
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, idx, counter))
        gc.callbacks.append(self._on_gc)

    def restore(self):
        gc.callbacks.remove(self._on_gc)
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def _wrap(self, orig, idx, counter):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if self.op_id is None:
                return orig(*args, **kwargs)
            sid = len(self.start)
            self.name_of.append(idx)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op_of.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.stack.append(sid)
            t0 = clock()
            try:
                out = orig(*args, **kwargs)
            finally:
                t1 = clock()
                self.stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1
            if counter is not None:
                counter(self.counts, args, out)
            return out

        return wrapper

    def _on_gc(self, phase, info):
        if self.op_id is None:
            return
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self.gc_collections += 1
            self.gc_pause_s += time.perf_counter() - self._gc_t0

    # -- reading ---------------------------------------------------------

    def spans_of(self, ops):
        """Per span name: (calls, total seconds, self seconds) over the
        spans of the given operation ids."""
        ops = set(ops)
        n = len(self.start)
        child = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for sid in range(n):
            if self.op_of[sid] not in ops:
                continue
            row = out[self.names[self.name_of[sid]]]
            dur = self.end[sid] - self.start[sid]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[sid]
        return out

    def write(self, stem, ops):
        """Write the spans of the given operation ids, recorded one after
        another: ``<stem>.bin`` holds the columns back to back in native
        byte order, ``<stem>.json`` names them and gives the span count.
        Parents are indices into the written spans, -1 for none."""
        ops = set(ops)
        keep = [i for i in range(len(self.start)) if self.op_of[i] in ops]
        lo = keep[0] if keep else 0
        parent = array("l", (self.parent[i] - lo if self.parent[i] >= 0
                             else -1 for i in keep))
        cols = {"name": self.name_of, "start": self.start, "end": self.end,
                "parent": parent, "op": self.op_of}
        with open(f"{stem}.bin", "wb") as fh:
            for name, col in cols.items():
                if name == "parent":
                    col.tofile(fh)
                else:
                    array(col.typecode, (col[i] for i in keep)).tofile(fh)
        header = {"spans": len(keep), "names": self.names,
                  "columns": [[name, col.typecode, col.itemsize]
                              for name, col in cols.items()]}
        with open(f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1)


class AllocPeak:
    """Largest tracemalloc peak, above the allocation at entry, inside any
    one `matfor.evaluator.evaluate` call between `start` and `stop`; 0 if
    nothing calls it."""

    def __init__(self):
        self.peak_mb = 0.0
        self._mod = importlib.import_module("matfor.evaluator")
        self._orig = self._mod.evaluate

    def start(self, _op=None):
        orig = self._orig

        def wrapper(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return orig(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                self.peak_mb = max(self.peak_mb, peak / _MB)

        self._mod.evaluate = wrapper
        tracemalloc.start()

    def stop(self):
        tracemalloc.stop()
        self._mod.evaluate = self._orig
