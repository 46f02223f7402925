"""matfor benchmark: one command, four seeded workloads, oracle-checked.

    python3 perfbench/run.py --workload clique_nat --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Load model: a closed loop, one client in one process and one thread; the
next operation starts when the previous one returns.  Inputs come from the
seed and the operation index only.  Every output is checked by an oracle
outside the timed region; an exception or a wrong output is a failed
operation.  One checked warm-up operation runs first, untimed, so the
first timed one does not pay for growing the heap.  The collector stays on,
and a full collection runs before each operation (untimed) so that no
operation pays for garbage an earlier one left behind.

Each operation also runs a different number of frames deep (``PAD_STEP``
times its input index, modulo ``PAD_LEVELS``).  CPython 3.11 keeps frames in
16 KiB chunks and frees a chunk as soon as its first frame returns, so when
a hot inner call lands at the start of a chunk every call maps and unmaps
memory: a linalg_real operation then takes 7 to 12 times as long, almost all
of it in page faults.  Where that happens depends on the stack depth at which
the benchmark calls matfor, so a fixed depth would let an unrelated edit to
either of them flip an operation into or out of that state; cycling the
depth over one chunk measures the typical operation, and the medians keep
the few that land badly from setting the figures.

``--trace 0`` prints the end-to-end metrics.  A shared host's speed can
drift by a third or more within minutes, so every time below is wall time
scaled to a fixed host speed: a reference pass (``reference.py``) is timed right before
and right after each operation and each set-up, and the wall time is
multiplied by ``reference.REFERENCE_S`` over the mean of the two passes.
The unscaled medians go to the record.

* setup_s      median over fresh interpreters of `import matfor` plus
               `stdlib.all_named()`, scaled
* run_p50_s    median scaled time of one operation
* run_tail_s   the highest percentile of the scaled times with at least ten
               samples beyond it (which percentile, and the sample count,
               go to the record)
* ops_per_s    operations completed per second of scaled operation time,
               over the middle half of the operations (those between the
               first and third quartile of the scaled times)
* peak_rss_mb  peak resident memory of the workload process

``--trace 1`` runs operations untraced for 40% of the time, then the first
TRACED_OPS operations twice traced (every count must repeat exactly), then
one under tracemalloc, and prints the per-layer metrics as means per traced
operation; trace.overhead_s is the traced minus the untraced median.  The
spans of the first traced pass go to ``perfbench/out``.

The last line of stdout is the result, a JSON object with the keys
correct, attempted, failed and metrics.  The line before it is a record of
the machine and the run.  Exit status is 0 when the run completed, whether
or not every output was correct, and 2 when it could not run at all.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("linalg_real", "clique_nat", "compile_circuits",
                  "bridge_roundtrip")
SETUP_RUNS = 11
TAIL_BEYOND = 10
MIN_OPS = TAIL_BEYOND + 1   # so the tail percentile always exists
TRACED_OPS = 3
PAD_LEVELS = 128   # frames of _padded, at 136 bytes each, span a 16 KiB chunk
PAD_STEP = 37
SUBPROCESS_TIMEOUT_S = 170

SETUP_PROBE = (
    "import time\n"
    "import reference\n"
    "before = reference.measure()\n"
    "t0 = time.perf_counter()\n"
    "import matfor\n"
    "from matfor import stdlib\n"
    "stdlib.all_named()\n"
    "wall = time.perf_counter() - t0\n"
    "print(repr(wall), repr(before), repr(reference.measure()))\n")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), env.get("PYTHONPATH")) if p)
    return env


def measure_setup_s():
    """(scaled, wall) median set-up time over SETUP_RUNS fresh
    interpreters."""
    scaled, walls = [], []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE],
                              env=_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=60, check=True)
        wall, before, after = map(
            float, proc.stdout.strip().splitlines()[-1].split())
        scaled.append(reference.scale(wall, before, after))
        walls.append(wall)
    return statistics.median(scaled), statistics.median(walls)


def _padded(depth, fn, arg):
    """fn(arg), called `depth` frames deeper than this call."""
    if depth:
        return _padded(depth - 1, fn, arg)
    return fn(arg)


class Phase:
    """Times and outcomes of the operations of one loop; `scaled` holds the
    times at the reference speed when the loop was asked to scale them."""

    def __init__(self):
        self.times = []
        self.scaled = []
        self.passes = []
        self.attempted = 0
        self.failed = 0
        self.first_error = None


def run_ops(wl, seed, *, seconds=None, ks=None, min_ops=MIN_OPS, enter=None,
            leave=None, warmup=False, scale=False):
    """Run operations k = 0, 1, ... for `seconds` (at least `min_ops` of
    them), or exactly the operations in `ks`.  `enter(k)` and `leave()`
    bracket the timed call.  A warm-up operation (input index -1) is
    checked and counted as attempted but not timed.  With `scale`, a
    reference pass runs right before and right after each timed call."""
    phase = Phase()
    k = -1 if warmup else 0
    deadline = None if seconds is None else time.perf_counter() + seconds
    while True:
        if k < 0:
            idx = k
        elif ks is not None:
            if k >= len(ks):
                break
            idx = ks[k]
        else:
            if k >= min_ops and time.perf_counter() >= deadline:
                break
            idx = k
        inp = wl.make(seed, idx)
        gc.collect()
        before = reference.measure() if scale else None
        if enter:
            enter(k)
        t0 = time.perf_counter()
        try:
            out = _padded(idx * PAD_STEP % PAD_LEVELS, wl.op, inp)
        except Exception as exc:  # a raising operation is a failed one
            dt = time.perf_counter() - t0
            err = f"{type(exc).__name__}: {exc}"
        else:
            dt = time.perf_counter() - t0
            err = None
        finally:
            if leave:
                leave()
        after = reference.measure() if scale else None
        if err is None:
            err = wl.check(inp, out)
        inp = out = None  # the next collection starts without them
        if k >= 0:
            phase.times.append(dt)
            if scale:
                phase.scaled.append(reference.scale(dt, before, after))
                phase.passes += (before, after)
        phase.attempted += 1
        if err is not None:
            phase.failed += 1
            phase.first_error = phase.first_error or f"op {idx}: {err}"
        k += 1
    return phase


def tail(times):
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples strictly beyond it."""
    ordered = sorted(times)
    idx = len(ordered) - TAIL_BEYOND - 1
    while idx > 0 and ordered[idx] == ordered[idx + 1]:
        idx -= 1
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def interquartile_mean(xs):
    """Mean of the values between the first and third quartile."""
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return statistics.fmean(x for x in xs if q1 <= x <= q3)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(wl, seed, seconds, record):
    setup_s, setup_wall_s = measure_setup_s()
    phase = run_ops(wl, seed, seconds=seconds, warmup=True, scale=True)
    tail_s, pct = tail(phase.scaled)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record.update(samples=len(phase.times), tail_percentile=pct,
                  fail_ratio=phase.failed / phase.attempted,
                  first_error=phase.first_error,
                  reference_s=reference.REFERENCE_S,
                  reference_pass_p50_s=statistics.median(phase.passes),
                  setup_wall_s=setup_wall_s,
                  run_wall_p50_s=statistics.median(phase.times))
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "run_p50_s": _metric(statistics.median(phase.scaled), "s"),
        "run_tail_s": _metric(tail_s, "s"),
        "ops_per_s": _metric(1.0 / interquartile_mean(phase.scaled), "1/s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }
    return phase.attempted, phase.failed, phase.failed == 0, metrics


def run_traced(wl, seed, seconds, tracer, all_named_s, record):
    untraced = run_ops(wl, seed, seconds=seconds * 0.4, min_ops=TRACED_OPS,
                       warmup=True)

    def traced_pass(offset, **which):
        tracer.counts = dict.fromkeys(tracing.REPEATED_COUNTS, 0)
        tracer.gc_collections, tracer.gc_pause_s = 0, 0.0

        def enter(k):
            tracer.op_id = offset + k

        def leave():
            tracer.op_id = None

        tracer.install()
        try:
            phase = run_ops(wl, seed, enter=enter, leave=leave, **which)
        finally:
            tracer.restore()
        spans = tracer.spans_of(range(offset, offset + phase.attempted))
        counts = {f"{name}.calls": row[0] for name, row in spans.items()}
        counts.update(tracer.counts)
        return phase, spans, counts, (tracer.gc_collections,
                                      tracer.gc_pause_s)

    # a fixed number of operations, so counts also repeat across runs with
    # the same seed; the second pass repeats the first on the same inputs
    k = TRACED_OPS
    first, spans, counts_a, (gc_n, gc_s) = traced_pass(0, ks=range(k))
    second, _, counts_b, _ = traced_pass(k, ks=range(k))
    repeated = counts_a == counts_b
    if not repeated:
        record["count_mismatch"] = sorted(
            name for name in counts_a if counts_a[name] != counts_b[name])

    alloc = tracing.AllocPeak()
    alloc_phase = run_ops(wl, seed, ks=[0], enter=alloc.start,
                          leave=alloc.stop)

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{wl.name}-{seed}", range(k))

    phases = (untraced, first, second, alloc_phase)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    record.update(samples=len(untraced.times), traced_ops=k,
                  counts_repeated=repeated,
                  first_error=next((p.first_error for p in phases
                                    if p.first_error), None))

    # every span gives <span>_s, its inclusive time per operation
    m = {}
    for name in tracer.names:
        if name != "stdlib.all_named":
            m[f"{name}_s"] = _metric(spans[name][1] / k, "s/op")
        if name.startswith("matrix."):
            m[f"{name}.calls"] = _metric(spans[name][0] / k, "count/op")
    for name in ("matrix.mat_mul.madds", "matrix.mat_mul.basis_calls",
                 "circuits.n_gates", "parser.chars", "relalg.out_tuples"):
        m[name] = _metric(counts_a[name] / k, "count/op")
    m["evaluator.self_s"] = _metric(
        spans["evaluator.evaluate"][2] / k, "s/op")
    m["evaluator.peak_alloc_mb"] = _metric(alloc.peak_mb, "MB")
    m["runtime.gc_collections"] = _metric(gc_n / k, "count/op")
    m["runtime.gc_pause_s"] = _metric(gc_s / k, "s/op")
    gates_in = counts_a["circuits.prune.gates_in"]
    m["circuits.prune_kept_ratio"] = _metric(
        counts_a["circuits.prune.gates_out"] / gates_in if gates_in else 0.0,
        "ratio")
    m["circuits.depth"] = _metric(counts_a["circuits.depth"], "count")
    m["circuits.degree"] = _metric(counts_a["circuits.degree"], "count")
    m["stdlib.all_named_s"] = _metric(all_named_s, "s")
    m["trace.overhead_s"] = _metric(
        statistics.median(first.times) - statistics.median(untraced.times),
        "s")
    m["trace.ops"] = _metric(k, "count")
    return attempted, failed, failed == 0 and repeated, m


def _git_sha():
    """HEAD's commit id read from .git without running git; None outside a
    repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            packed = (ROOT / ".git" / "packed-refs").read_text()
            for line in packed.splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def run_one(args):
    sys.path.insert(0, str(SRC))
    import matfor
    if Path(matfor.__file__).resolve().parent != SRC / "matfor":
        print(f"matfor imported from {matfor.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    from matfor import stdlib
    import workloads

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "python": platform.python_version(),
              "platform": platform.platform(), "nproc": os.cpu_count(),
              "git_sha": _git_sha(), "gc_threshold": gc.get_threshold()}
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.op_id = -1
        try:
            lib = stdlib.all_named()
        finally:
            tracer.op_id = None
            tracer.restore()
        all_named_s = tracer.spans_of([-1])["stdlib.all_named"][1]
    else:
        lib = stdlib.all_named()
    wl = workloads.WORKLOADS[args.workload](lib)
    if args.trace:
        attempted, failed, correct, metrics = run_traced(
            wl, args.seed, args.seconds, tracer, all_named_s, record)
    else:
        attempted, failed, correct, metrics = run_untraced(
            wl, args.seed, args.seconds, record)

    OUT.mkdir(exist_ok=True)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    path = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"record": record, "result": result},
                               indent=1) + "\n")
    if record.get("first_error"):
        print(f"first failure: {record['first_error']}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own interpreter, so none inherits another's
    heap; prints one row per metric, then the combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit status {proc.returncode}", file=sys.stderr)
            return 2
        lines = proc.stdout.strip().splitlines()
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
        tail_pct = record.get("tail_percentile")
        print(f"{name}: attempted {result['attempted']} failed "
              f"{result['failed']} fail_ratio "
              f"{result['failed'] / result['attempted']:.4g} correct "
              f"{result['correct']} samples {record['samples']}"
              + (f" tail p{tail_pct:.0f}" if tail_pct else ""))
        for metric, v in result["metrics"].items():
            print(f"  {metric:32s} {v['value']:.6g} {v['unit']}")
            combined["metrics"][f"{name}.{metric}"] = v
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "matfor" / "__init__.py").is_file():
        print(f"no matfor sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
