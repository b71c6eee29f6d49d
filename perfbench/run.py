"""Benchmark of treeshrink's reduce and nd pipeline through its Python API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or any checkout of it): the package is
imported from ``src/`` next to this directory and nowhere else.  One client
runs a closed loop in this process: an operation is one reduction
(initializer plus ``reduce_tree``) and its certification by the exact
``nested_distance``.  With ``--trace 0`` passes over the workload's input
trees repeat until the next pass would overrun ``--seconds``, and the last
output line holds the end-to-end metrics, the line before it how far the
reports are from the truth.  With ``--trace 1`` one pass does
every operation untraced, with the layers wrapped (see ``spans.py``) and
untraced again, and the last line holds the per-layer metrics, summed over
the trees.

Set-up (import, build the seeded trees, save them as JSON, load and validate
them) is timed in fresh interpreters, several times, and reported as its
median.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from spans import Tracer, layer_metric_names

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Every BLAS back end numpy may be built with reads one of these.  One
# thread keeps the small matrix products of the solvers free of pool
# overhead and of contention with the second core.
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 5

END_TO_END = {"setup_s": "s", "reduce_s": "s", "nd_s": "s", "nd_exact": "1",
              "peak_rss_mb": "MB"}
# Per-layer metrics that come from the operation records, not the spans.
TRACE_EXTRA = {
    "trace.reduce_s": "s", "trace.nd_s": "s",
    "trace.reduce_s_overhead": "s", "trace.nd_s_overhead": "s",
    "report.final_nd_error": "1", "report.unconverged_share": "1",
    "report.inner_solves": "count",
}


def check(start, final, report, nd_exact):
    """Why an operation's output is wrong, or None when it is right."""
    violations = final.validate()
    if violations:
        return "returned tree is invalid: " + "; ".join(violations[:3])
    if (final.parent.shape != start.parent.shape
            or (final.parent != start.parent).any()
            or (final.stage != start.stage).any() or final.d != start.d):
        return "returned tree differs in shape from the start tree"
    if not (math.isfinite(nd_exact) and nd_exact >= 0.0):
        return f"nested distance {nd_exact} is not finite and >= 0"
    # Exact LP solves make the reported final_nd the cost of a feasible
    # plan, an upper bound of the exact distance.
    exact = all(solve["solver"] == "lp" for solve in report.solver_log)
    if exact and nd_exact > report.final_nd * (1 + 1e-9):
        return f"exact nd {nd_exact!r} exceeds the reported plan cost {report.final_nd!r}"
    return None


def run_op(treeshrink, workload, original, start_seed, tracer=None):
    """One reduction plus its certification; returns the operation record."""
    rec = {"failure": None, "traced": tracer is not None}
    if tracer is not None:
        tracer.reset()
    try:
        tick = time.perf_counter()
        start = workload.start(original, start_seed)
        final, report = treeshrink.reduce_tree(original, start, workload.config())
        mid = time.perf_counter()
        nd_exact, _ = treeshrink.nested_distance(original, final)
        rec.update(reduce_s=mid - tick, nd_s=time.perf_counter() - mid, nd_exact=nd_exact)
        if tracer is not None:
            rec["layers"] = tracer.layer_metrics()
        solves = report.solver_log
        rec["final_nd_error"] = abs(report.final_nd - nd_exact) / nd_exact if nd_exact else 0.0
        rec["unconverged"] = sum(not s["converged"] for s in solves)
        rec["solves"] = len(solves)
        rec["failure"] = check(start, final, report, nd_exact)
    except Exception as exc:  # a failed operation is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        rec["failure"] = f"raised {type(exc).__name__}: {exc}"
    return rec


def time_setup(workload_name, seed, outdir, toy):
    """Median seconds of fresh-interpreter set-ups; the trees land in outdir."""
    repeats = 1 if toy else SETUP_REPEATS
    probe = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload_name,
             str(seed), str(outdir)] + (["--toy"] if toy else [])
    samples = []
    for _ in range(repeats):
        done = subprocess.run(probe, capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def loop(treeshrink, workload, originals, seed, seconds, tracer):
    """Closed loop of passes over the input trees; one record list per tree.

    An untraced run makes one pass, then more while the next pass fits in
    ``seconds``.  A traced run makes one pass and does each operation three
    times: untraced, traced, untraced.  The traced time less the better
    untraced one is the tracing overhead, whichever of them paid for a cold
    start.
    """
    per_tree = [[] for _ in originals]
    trees = list(zip(per_tree, originals, workload.seeds(seed)))
    began = time.perf_counter()
    while True:
        tick = time.perf_counter()
        for recs, original, start_seed in trees:
            recs.append(run_op(treeshrink, workload, original, start_seed))
            if tracer is not None:
                with tracer:
                    recs.append(run_op(treeshrink, workload, original, start_seed, tracer))
                recs.append(run_op(treeshrink, workload, original, start_seed))
        now = time.perf_counter()
        if tracer is not None or now - began + (now - tick) > seconds:
            return per_tree


def _ok(recs, key):
    """Values of a key over the operations that succeeded."""
    return [rec[key] for rec in recs if rec["failure"] is None]


def end_to_end(per_tree, setup_s):
    """The end-to-end metrics of an untraced run, means over the trees.

    A tree's time is its best pass, as other load on a shared host can slow
    the cores by up to 40% for stretches of seconds; its distance repeats
    exactly between passes.  The batch mean varies less from seed to seed
    than its median: the trees' times and distances are spread, but without
    outliers.
    """
    out = {"setup_s": setup_s}
    for key, per_pass in (("reduce_s", min), ("nd_s", min), ("nd_exact", statistics.median)):
        values = [per_pass(v) for v in (_ok(recs, key) for recs in per_tree) if v]
        out[key] = statistics.fmean(values) if values else None
    # ru_maxrss is in KiB on Linux.
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def report_metrics(records):
    """How far the reports are from the truth, over the operations that succeeded.

    The worst ``|final_nd - nd_exact| / nd_exact``, the share of inner solves
    that stopped unconverged, and the number of inner solves.
    """
    ok = [rec for rec in records if rec["failure"] is None]
    solves = sum(rec["solves"] for rec in ok)
    return {
        "report.final_nd_error": max((rec["final_nd_error"] for rec in ok), default=0.0),
        "report.unconverged_share": (sum(rec["unconverged"] for rec in ok) / solves
                                     if solves else 0.0),
        "report.inner_solves": solves,
    }


def layer_totals(per_tree, load_layers):
    """Per-layer metrics of a traced run, summed over the trees.

    The input trees are loaded once per run, before the loop, so the load
    layer comes from ``load_layers``.
    """
    names = layer_metric_names()
    out = dict.fromkeys(list(names) + list(TRACE_EXTRA), 0)
    load = [name for name in names if name.startswith("tree.ScenarioTree.load.")]
    out.update({name: load_layers[name] for name in load})
    complete = []
    for plain, traced, plain_again in per_tree:
        if plain["failure"] or traced["failure"] or plain_again["failure"]:
            continue
        for name in names:
            if name not in load:
                out[name] += traced["layers"][name]
        for key in ("reduce_s", "nd_s"):
            out[f"trace.{key}"] += traced[key]
            out[f"trace.{key}_overhead"] += traced[key] - min(plain[key], plain_again[key])
        complete.append(traced)
    out.update(report_metrics(complete))
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="shrink every input tree (harness self-test)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "treeshrink" / "__init__.py").is_file():
        print(f"error: no treeshrink package under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    for path in (str(BENCH_DIR), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)

    import numpy
    import scipy
    import treeshrink
    from workloads import workloads

    if Path(treeshrink.__file__).resolve().parent != SRC / "treeshrink":
        print(f"error: imported treeshrink from {treeshrink.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    table = workloads(toy=args.toy)
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(table)}", file=sys.stderr)
        return 2
    workload = table[args.workload]
    print(json.dumps({"environment": {
        "treeshrink": treeshrink.__version__, "numpy": numpy.__version__,
        "scipy": scipy.__version__, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
        "blas_vars": list(BLAS_VARS), "workload": workload.name,
        "seed": args.seed, "instances": workload.instances, "toy": args.toy,
        "workers": 1, "clients": 1, "loop": "closed"}}), flush=True)

    # A toy-sized operation first, so lazy imports and first-call set-up
    # inside numpy and scipy happen before timing starts.
    warm = workloads(toy=True)[workload.name]
    run_op(treeshrink, warm, warm.original(0), 0)

    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        setup_s = time_setup(workload.name, args.seed, tmp, args.toy)
        with tracer or contextlib.nullcontext():
            originals = [treeshrink.ScenarioTree.load(Path(tmp) / f"original-{k}.json")
                         for k in range(workload.instances)]
        load_layers = tracer.layer_metrics() if tracer else None
    per_tree = loop(treeshrink, workload, originals, args.seed, args.seconds, tracer)

    records = [rec for recs in per_tree for rec in recs]
    failures = [rec["failure"] for rec in records if rec["failure"]]
    for failure in failures:
        print(f"failed: {failure}", file=sys.stderr)
    print(f"failed {len(failures)} of {len(records)} operations", file=sys.stderr)

    if tracer is None:
        metrics, units = end_to_end(per_tree, setup_s), END_TO_END
        # The report metrics are 0 on the LP workloads, so they cannot carry
        # a bound as end-to-end metrics; an untraced run prints them on the
        # line before the result, from its first pass.
        report = report_metrics([recs[0] for recs in per_tree])
        print(json.dumps({"report": {name: {"value": value, "unit": TRACE_EXTRA[name]}
                                     for name, value in report.items()}}), flush=True)
    else:
        metrics = layer_totals(per_tree, load_layers)
        units = dict(layer_metric_names(), **TRACE_EXTRA)
        print(json.dumps({"trace": {"absent_layers": tracer.absent}}), flush=True)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
