"""The four benchmark workloads.

A workload makes the inputs of its k-th operation from the seed (`make`),
runs one operation against matfor's public API (`op`, the timed part) and
checks the output with an oracle from `oracles` (`check`, never timed).
Sizes are constructor arguments so the self-test can run every workload
small; the defaults are the benchmark's stated sizes.

Every call into matfor goes through a module attribute looked up at call
time (``_ev.evaluate``, ``_bridge.phi_translate``, ...), so the tracer can
wrap those attributes from outside the package.
"""

from __future__ import annotations

import importlib
import itertools
import math
import random
from fractions import Fraction

import oracles

_ev = importlib.import_module("matfor.evaluator")
_inst = importlib.import_module("matfor.instance")
_mat = importlib.import_module("matfor.matrix")
_sr = importlib.import_module("matfor.semiring")
_cc = importlib.import_module("matfor.circuit_compile")
_circ = importlib.import_module("matfor.circuits")
_parser = importlib.import_module("matfor.parser")
_tc = importlib.import_module("matfor.typecheck")
_bridge = importlib.import_module("matfor.bridge")
_ra = importlib.import_module("matfor.relalg")

ALPHA = "alpha"


def _rng(name, seed, k):
    return random.Random(f"{name}/{seed}/{k}")


class LinalgReal:
    name = "linalg_real"

    def __init__(self, lib, n=14):
        self.n = n
        self.det = lib["determinant"]
        self.inv = lib["inverse"]

    def make(self, seed, k):
        # criterion 6's sampler: uniform off-diagonal, diagonal lifted by 2.5 n
        rng, n = _rng(self.name, seed, k), self.n
        rows = [[rng.uniform(-1.0, 1.0) + (2.5 * n if i == j else 0.0)
                 for j in range(n)] for i in range(n)]
        return rows, _inst.Instance({ALPHA: n}, {"V": _mat.from_rows(rows)})

    def op(self, inp):
        _, inst = inp
        det = _ev.evaluate(self.det.expr, inst, _sr.REAL,
                           schema=self.det.schema)
        inv = _ev.evaluate(self.inv.expr, inst, _sr.REAL,
                           schema=self.inv.schema)
        return det, inv

    def check(self, inp, out):
        rows, _ = inp
        det, inv = out
        if det.shape != (1, 1):
            return f"determinant has shape {det.shape}"
        return (oracles.check_determinant(rows, det.get(0, 0))
                or oracles.check_inverse(rows, inv.tolists()))


class CliqueNat:
    name = "clique_nat"

    def __init__(self, lib, n=10, p=0.7):
        self.n, self.p = n, p
        self.item = lib["four_clique_order"]

    def make(self, seed, k):
        rng, n = _rng(self.name, seed, k), self.n
        adj = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < self.p:
                    adj[i][j] = adj[j][i] = 1
        flat = tuple(v for row in adj for v in row)
        return adj, _inst.Instance({ALPHA: n},
                                   {"V": _mat.KMatrix(n, n, flat)})

    def op(self, inp):
        _, inst = inp
        return _ev.evaluate(self.item.expr, inst, _sr.NAT,
                            schema=self.item.schema)

    def check(self, inp, out):
        adj, _ = inp
        if out.shape != (1, 1):
            return f"clique count has shape {out.shape}"
        return oracles.check_four_cliques(adj, out.get(0, 0))


class CompileCircuits:
    name = "compile_circuits"
    programs = ("four_clique", "trace_vector")

    def __init__(self, lib, n=7):
        self.n = n
        self.items = [lib[name] for name in self.programs]

    def make(self, seed, k):
        # criterion 9's sampler: small signed fractions, passed as floats
        rng, n = _rng(self.name, seed, k), self.n
        vals = [float(Fraction(rng.randint(-8, 8), rng.randint(1, 4)))
                for _ in range(n * n)]
        gate_inputs = {("V", i + 1, j + 1): vals[i * n + j]
                       for i in range(n) for j in range(n)}
        inst = _inst.Instance({ALPHA: n},
                              {"V": _mat.KMatrix(n, n, tuple(vals))})
        return gate_inputs, inst

    def op(self, inp):
        gate_inputs, _ = inp
        out = []
        for item in self.items:
            c = _cc.compile_expr(item.expr, item.schema, {ALPHA: self.n})
            out.append(_circ.eval_circuit(c, gate_inputs))
        return out

    def check(self, inp, out):
        _, inst = inp
        for item, got in zip(self.items, out):
            want = _ev.evaluate(item.expr, inst, _sr.REAL, schema=item.schema)
            err = oracles.check_close(got, want.tolists(), item.name)
            if err:
                return err
        return None


# ---------------------------------------------------------------------------
# bridge round trips

PHI_SCHEMA_TEXT = """
var V : alpha x beta
var W : alpha x beta
var M : beta x alpha
var Q : alpha x alpha
var u : alpha x 1
var v : alpha x 1
var w : beta x 1
var s : 1 x 1
"""

O = oracles

# criterion 7's corpus: (text, result rows symbol, result cols symbol,
# reference value from the input matrices m and dimensions d)
PHI_CORPUS = [
    ("V + W", ALPHA, "beta", lambda m, d, sr: O.add(m["V"], m["W"], sr)),
    ("V^T", "beta", ALPHA, lambda m, d, sr: O.transpose(m["V"])),
    ("V * M", ALPHA, ALPHA, lambda m, d, sr: O.mm(m["V"], m["M"], sr)),
    ("Q * Q", ALPHA, ALPHA, lambda m, d, sr: O.mm(m["Q"], m["Q"], sr)),
    ("s .* V", ALPHA, "beta",
     lambda m, d, sr: O.scale(m["s"][0][0], m["V"], sr)),
    ("u^T * V", "1", "beta",
     lambda m, d, sr: O.mm(O.transpose(m["u"]), m["V"], sr)),
    ("sum v . v", ALPHA, "1", lambda m, d, sr: [[sr[1]]] * d[ALPHA]),
    ("sum v . v * v^T", ALPHA, ALPHA,
     lambda m, d, sr: O.identity(d[ALPHA], sr)),
    ("sum v . (v^T * u) .* (V^T * v)", "beta", "1",
     lambda m, d, sr: O.mm(O.transpose(m["V"]), m["u"], sr)),
    ("sum v . sum w . (v^T * V * w) .* (v * w^T)", ALPHA, "beta",
     lambda m, d, sr: m["V"]),
    ("sum v . u", ALPHA, "1",
     lambda m, d, sr: O.column_sum(m["u"], d[ALPHA], sr)),
    ("sum v . s", "1", "1",
     lambda m, d, sr: O.column_sum(m["s"], d[ALPHA], sr)),
    ("hprod2(V, W)", ALPHA, "beta",
     lambda m, d, sr: O.hprod(m["V"], m["W"], sr)),
    ("hsum2(V, W) + V", ALPHA, "beta",
     lambda m, d, sr: O.add(O.add(m["V"], m["W"], sr), m["V"], sr)),
    ("ones(V)", ALPHA, "1", lambda m, d, sr: [[sr[1]]] * d[ALPHA]),
    ("diag(u)", ALPHA, ALPHA, lambda m, d, sr: O.diag(m["u"], sr)),
]

PSI_RELSCHEMA = {"R": frozenset({"a", "b"}), "S": frozenset({"b", "c"}),
                 "T": frozenset({"a"}), "Z": frozenset()}

# criterion 8's corpus: (text, reference value from the relations r)
PSI_CORPUS = [
    ("rel R", lambda r, sr: r["R"]),
    ("rel T", lambda r, sr: r["T"]),
    ("union(rel R, rel R)", lambda r, sr: O.ra_union(r["R"], r["R"], sr)),
    ("project[a](rel R)", lambda r, sr: O.ra_project(r["R"], {"a"}, sr)),
    ("project[](rel R)", lambda r, sr: O.ra_project(r["R"], set(), sr)),
    ("select[a, b](rel R)",
     lambda r, sr: O.ra_select(r["R"], {"a", "b"}, sr)),
    ("rename[c->a, d->b](rel R)",
     lambda r, sr: O.ra_rename(r["R"], {"c": "a", "d": "b"}, sr)),
    ("project[a, c](join(rel R, rel S))",
     lambda r, sr: O.ra_project(O.ra_join(r["R"], r["S"], sr),
                                {"a", "c"}, sr)),
    ("join(rel T, rel R)", lambda r, sr: O.ra_join(r["T"], r["R"], sr)),
    # four attributes alive in the intermediate join, clique style
    ("project[a, d](join(join(rel R, rename[c->a, d->b](rel R)), "
     "rename[b->a, c->b](rel R)))",
     lambda r, sr: O.ra_project(
         O.ra_join(O.ra_join(r["R"],
                             O.ra_rename(r["R"], {"c": "a", "d": "b"}, sr),
                             sr),
                   O.ra_rename(r["R"], {"b": "a", "c": "b"}, sr), sr),
         {"a", "d"}, sr)),
]

# annotation samplers; zeros are drawn often so supports stay sparse
_SAMPLES = {"nat": (0, 0, 1, 2, 3), "bool": (0, 1),
            "tropical": (math.inf, math.inf, 0.0, 1.0, 2.0)}


class BridgeRoundtrip:
    name = "bridge_roundtrip"
    semirings = ("nat", "bool", "tropical")

    def __init__(self, lib, n=12):
        self.n = n
        self.schema = _parser.parse_schema(PHI_SCHEMA_TEXT)

    def make(self, seed, k):
        rng, n = _rng(self.name, seed, k), self.n
        srname = self.semirings[k % len(self.semirings)]
        sr, osr, draw = (_sr.by_name(srname), oracles.SEMIRINGS[srname],
                         _SAMPLES[srname])
        dims = {ALPHA: n, "beta": n}
        lists, mats = {}, {}
        for name, t in self.schema.vars.items():
            r, c = dims.get(t.rows, 1), dims.get(t.cols, 1)
            rows = [[rng.choice(draw) for _ in range(c)] for _ in range(r)]
            lists[name] = rows
            mats[name] = _mat.from_rows(rows)
        phi_inst = _inst.Instance(dict(dims), mats)

        # T covers the whole domain with nonzero annotations, so the active
        # domain, and with it the psi matrices, is always n wide
        py_rels, rels = {}, {}
        for name, attrs in PSI_RELSCHEMA.items():
            order = sorted(attrs)
            support = {}
            for point in itertools.product(range(1, n + 1),
                                           repeat=len(order)):
                v = rng.choice(draw[1:] if name == "T" else draw)
                if v != osr[0]:
                    support[point] = v
            py_rels[name] = (tuple(order), support)
            rels[name] = _ra.KRelation.build(
                frozenset(order),
                [(_ra.make_tuple(dict(zip(order, p))), v)
                 for p, v in support.items()], sr)
        return sr, osr, (lists, dims, phi_inst), (py_rels, rels)

    def op(self, inp):
        sr, _, (_, _, phi_inst), (_, rels) = inp
        _, phi_rels = _bridge.rel_encode(self.schema, phi_inst, sr)
        phi_out = []
        for text, *_ in PHI_CORPUS:
            e = _parser.parse_expr(text)
            _tc.typecheck(e, self.schema)
            q = _bridge.phi_translate(e, self.schema)
            phi_out.append(_ra.eval_ra(q, phi_rels, sr))
        psi_out = []
        for text, _ in PSI_CORPUS:
            q = _ra.parse_ra(text)
            e = _bridge.psi_translate(q, PSI_RELSCHEMA)
            schema, inst = _bridge.mat_encode(PSI_RELSCHEMA, rels, sr)
            psi_out.append(_ev.evaluate(e, inst, sr, schema=schema))
        return phi_out, psi_out

    def check(self, inp, out):
        _, osr, (lists, dims, _), (py_rels, _) = inp
        phi_out, psi_out = out
        for (text, rsym, csym, ref), rel in zip(PHI_CORPUS, phi_out):
            want = _phi_expected(ref(lists, dims, osr), rsym, csym, osr)
            if tuple(sorted(rel.signature)) != want[0]:
                return f"{text}: signature {sorted(rel.signature)}"
            err = oracles.check_relation(_support(rel), want, text)
            if err:
                return err
        dom = oracles.active_domain(py_rels)
        for (text, ref), val in zip(PSI_CORPUS, psi_out):
            want = ref(py_rels, osr)
            shape = ((len(dom), len(dom)), (len(dom), 1), (1, 1))[
                2 - len(want[0])]
            if val.shape != shape:
                return f"{text}: shape {val.shape}, expected {shape}"
            err = oracles.check_relation(
                _matrix_support(val, dom, len(want[0]), osr), want, text)
            if err:
                return err
        return None


def _support(rel):
    """A matfor KRelation as {values in sorted-attribute order: annotation}."""
    return {tuple(v for _, v in key): val for key, val in rel.support.items()}


def _phi_expected(rows, rsym, csym, osr):
    """The relation phi must produce for a matrix of the given type: the
    ``row_<sym>``/``col_<sym>`` attributes of the bridge's encoding."""
    attrs = {}
    if rsym != "1":
        attrs["row"] = f"row_{rsym}"
    if csym != "1":
        attrs["col"] = f"col_{csym}"
    order = sorted(attrs, key=attrs.get)
    support = {}
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v != osr[0]:
                at = {"row": i + 1, "col": j + 1}
                support[tuple(at[k] for k in order)] = v
    return tuple(attrs[k] for k in order), support


def _matrix_support(val, dom, arity, osr):
    """A psi result matrix read back as a relation over the active domain."""
    if arity == 2:
        cells = {(dom[i], dom[j]): val.get(i, j)
                 for i in range(val.rows) for j in range(val.cols)}
    elif arity == 1:
        cells = {(dom[i],): val.get(i, 0) for i in range(val.rows)}
    else:
        cells = {(): val.get(0, 0)}
    return {k: v for k, v in cells.items() if v != osr[0]}


WORKLOADS = {cls.name: cls for cls in
             (LinalgReal, CliqueNat, CompileCircuits, BridgeRoundtrip)}
