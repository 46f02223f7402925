"""Self-test of the benchmark itself; takes about half a minute.

    python3 perfbench/selftest.py

Every oracle must reject a deliberately perturbed output, so no check is
vacuous, and every workload must pass its oracle at tiny sizes, untraced
and through both traced passes (whose counts must repeat exactly).  Exits
with status 1 on the first broken expectation.
"""

from __future__ import annotations

import dataclasses
import math
import sys

import oracles
import reference
import run
import tracing

TINY = {"linalg_real": {"n": 3}, "clique_nat": {"n": 6},
        "compile_circuits": {"n": 3}, "bridge_roundtrip": {"n": 3}}


class SelfTestFailure(Exception):
    pass


def expect(cond, what):
    if not cond:
        raise SelfTestFailure(what)


def perturbed_outputs(name, out, mat):
    """(label, output) pairs, each a small corruption of a correct output."""
    if name == "linalg_real":
        det, inv = out
        d = det.get(0, 0)
        bad_inv = list(inv.entries)
        bad_inv[0] += 1e-4
        yield "determinant off by 1e-4 relative", (
            mat.KMatrix(1, 1, (d * (1 + 1e-4),)), inv)
        yield "inverse entry off by 1e-4", (
            det, mat.KMatrix(inv.rows, inv.cols, tuple(bad_inv)))
        yield "determinant of the wrong shape", (
            mat.KMatrix(1, 2, (d, d)), inv)
    elif name == "clique_nat":
        v = out.get(0, 0)
        yield "one clique too many", mat.KMatrix(1, 1, (v + 24,))
        yield "count off by one", mat.KMatrix(1, 1, (v + 1,))
    elif name == "compile_circuits":
        first = dict(out[0])
        key = next(iter(first))
        first[key] += 1e-8
        yield "circuit output off by 1e-8", [first] + out[1:]
        yield "circuit output missing", [dict(list(out[0].items())[1:])] \
            + out[1:]
    elif name == "bridge_roundtrip":
        phi_out, psi_out = out
        i = next(i for i, rel in enumerate(phi_out) if rel.support)
        support = dict(phi_out[i].support)
        support.pop(next(iter(support)))
        bad = list(phi_out)
        bad[i] = dataclasses.replace(phi_out[i], support=support)
        yield "phi relation missing a tuple", (bad, psi_out)
        j, val = next((j, v) for j, v in enumerate(psi_out)
                      if any(x != v.entries[0] for x in v.entries))
        ents = list(val.entries)
        ents[0], ents[-1] = ents[-1], ents[0]
        if ents == list(val.entries):
            ents[0], ents[1] = ents[1], ents[0]
        bad = list(psi_out)
        bad[j] = mat.KMatrix(val.rows, val.cols, tuple(ents))
        yield "psi matrix with two entries swapped", (phi_out, bad)


def check_oracles_on_known_values():
    expect(oracles.det_partial_pivot([[0.0, 2.0], [3.0, 1.0]]) == -6.0,
           "2x2 determinant with a row swap")
    k5 = [[int(i != j) for j in range(5)] for i in range(5)]
    expect(oracles.ordered_four_cliques(k5) == 24 * 5, "K5 has 5 4-cliques")
    nat = oracles.SEMIRINGS["nat"]
    r = (("a", "b"), {(1, 2): 2, (2, 2): 1})
    s = (("b", "c"), {(2, 5): 3})
    expect(oracles.ra_join(r, s, nat) ==
           (("a", "b", "c"), {(1, 2, 5): 6, (2, 2, 5): 3}), "join")
    expect(oracles.ra_project(r, {"b"}, nat) == (("b",), {(2,): 3}),
           "project sums annotations")
    expect(oracles.ra_select(r, {"a", "b"}, nat) ==
           (("a", "b"), {(2, 2): 1}), "select keeps equal attributes")


def main():
    sys.path.insert(0, str(run.SRC))
    from matfor import matrix, stdlib
    import workloads

    check_oracles_on_known_values()
    lib = stdlib.all_named()
    for name, sizes in TINY.items():
        wl = workloads.WORKLOADS[name](lib, **sizes)
        for k in range(3):
            inp = wl.make(7, k)
            out = wl.op(inp)
            err = wl.check(inp, out)
            expect(err is None, f"{name} op {k}: {err}")
            for label, bad in perturbed_outputs(name, out, matrix):
                expect(wl.check(inp, bad) is not None,
                       f"{name}: oracle accepts {label}")
        record = {}
        attempted, failed, correct, metrics = run.run_untraced(
            wl, 7, 0.2, record)
        expect(correct and failed == 0 and attempted >= run.MIN_OPS,
               f"{name} untraced: {record}")
        expect(all(v["value"] > 0 for v in metrics.values()),
               f"{name}: an end-to-end metric is not positive")
        attempted, failed, correct, metrics = run.run_traced(
            wl, 7, 0.2, tracing.Tracer(), 0.0, record)
        expect(correct and record["counts_repeated"],
               f"{name} traced: {record}")
        print(f"ok {name}")
    expect(run.tail([float(i) for i in range(1, 21)]) == (10.0, 50.0),
           "tail of 20 samples is the 10th")
    expect(math.isclose(reference.scale(2.0, 0.08, 0.12),
                        2.0 * reference.REFERENCE_S / 0.1),
           "a time is scaled by the mean of the passes around it")
    expect(run.interquartile_mean([1.0, 2.0, 3.0, 4.0, 100.0]) == 3.0,
           "the interquartile mean drops the outlier")
    print("selftest ok")


if __name__ == "__main__":
    try:
        main()
    except SelfTestFailure as exc:
        print(f"selftest FAILED: {exc}", file=sys.stderr)
        sys.exit(1)
