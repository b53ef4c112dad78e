"""The t2mc benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload verify|jordan_ladder|dense_hom \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; t2mc is imported from its `src/`.  A run
repeats passes over the workload's fixed item list until S seconds have
passed (at least MIN_PASSES).  Each pass starts from a fresh import of t2mc
and freshly written inputs, as one CLI invocation would.  Every item of
every pass is checked; any failure makes the run exit 1.

`pass_s` is the sum over items of each item's fastest wall time in the run,
`largest_item_s` the fastest time of the largest item and `setup_s` the
fastest set-up (import plus input generation); the pass-time quartiles are
printed alongside.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones, the tracing overhead, and writes the spans of the last
traced pass to .bench_out/.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from time import perf_counter

from tracer import Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
EXTRA_SETUPS = 5

# metrics whose value is a count that must repeat exactly between passes
DETERMINISTIC = ("calls", "cells", "nnz", "pivots", "max_bits", "max_rows",
                 "max_cols", "inconsistent", "failed", "system_rows",
                 "system_cols", "det_evals", "inconclusive", "complex_dims",
                 "report_bytes", "_ops")
COUNT_UNITS = {"cli.report_bytes": "bytes", "qlinalg.rref.max_bits": "bits"}


def fresh_import():
    """Import t2mc (and its CLI) from the checkout, as a new process would."""
    for name in [m for m in sys.modules if m == "t2mc"
                 or m.startswith("t2mc.")]:
        del sys.modules[name]
    t2mc = importlib.import_module("t2mc")
    importlib.import_module("t2mc.cli")
    if not os.path.abspath(t2mc.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: t2mc imported from {t2mc.__file__}, "
                         f"not from {SRC}")
    return t2mc


def setup(workload, seed, workdir):
    start = perf_counter()
    t2mc = fresh_import()
    items = workload.generate(seed, workdir)
    return t2mc, items, perf_counter() - start


def run_pass(workload, seed, workdir, expected, traced):
    """One pass: set up, run every item, then check them untimed."""
    gc.collect()
    t2mc, items, setup_s = setup(workload, seed, workdir)
    for item in items:  # so that every check reads what this pass wrote
        for key in ("out", "hom"):
            if key in item and os.path.exists(item[key]):
                os.remove(item[key])
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install(t2mc)
    results, times = [], {}
    for item in items:
        start = perf_counter()
        try:
            results.append(workload.run(t2mc, item))
        except Exception:  # an item that raises is a failed item
            results.append(traceback.format_exc())
        times[item["name"]] = perf_counter() - start
    problems, report_bytes = [], 0
    for item, result in zip(items, results):
        if isinstance(result, str):
            problems.append(f"{item['name']}: raised\n{result}")
            continue
        try:
            outcome = workload.check(t2mc, item, result, expected)
        except Exception:  # a missing or malformed report is a failed item
            problems.append(f"{item['name']}: check raised\n"
                            f"{traceback.format_exc()}")
            continue
        report_bytes += outcome.report_bytes
        if not outcome.ok:
            problems.append(f"{item['name']}: {outcome.problem}")
    return {"setup_s": setup_s, "pass_s": sum(times.values()),
            "times": times, "items": len(items),
            "problems": problems, "tracer": tracer,
            "report_bytes": report_bytes}


def quartiles(values):
    """First quartile, median and third quartile, by the default method of
    `statistics.quantiles`."""
    return tuple(statistics.quantiles(values, n=4))


def fastest(passes):
    """Each item's fastest time over the passes.

    Other tenants of the machine only ever add time, in phases of seconds to
    minutes, so the fastest observation is the least disturbed one; the
    median moves with whatever phase a run happens to fall in.
    """
    return {name: min(p["times"][name] for p in passes)
            for name in passes[0]["times"]}


def layer_metrics(workload, traced_passes, untraced_passes):
    """Per-layer metrics from the traced passes, with their own checks."""
    problems = []
    reads = [p["tracer"].layer_metrics(p["report_bytes"])
             for p in traced_passes]
    counts, ratios = reads[0][0], reads[0][1]
    for other in reads[1:]:
        drift = sorted(k for k in counts if counts[k] != other[0][k]
                       and k.endswith(DETERMINISTIC))
        if drift:
            problems.append(f"counts differ between traced passes: {drift}")
    for _, _, _, root, accounted in reads:
        if abs(root - accounted) > 1e-4 * root:
            problems.append(f"self times add to {accounted}, spans to {root}")
    for name in workload.reaches:
        if counts[f"{name}.calls"] == 0:
            problems.append(f"{name} was never reached")
    for name in workload.avoids:
        if counts[f"{name}.calls"] != 0:
            problems.append(f"{name} was reached")
    metrics = {}
    for key, value in counts.items():
        metrics[key] = (value, COUNT_UNITS.get(key, "count"))
    for key, value in ratios.items():
        metrics[key] = (value, "ratio")
    for key in reads[0][2]:
        metrics[key] = (statistics.median(r[2][key] for r in reads), "s")
    traced = sum(fastest(traced_passes).values())
    plain = sum(fastest(untraced_passes).values())
    metrics["trace.overhead_ratio"] = (traced / plain, "ratio")
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "t2mc", "__init__.py")):
        print(f"error: no t2mc sources under {SRC}; run from the root of a "
              f"t2mc checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK)
    try:
        return measure(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(workload, args, workdir):
    setups = []
    for _ in range(EXTRA_SETUPS):
        t2mc, items, setup_s = setup(workload, args.seed, workdir)
        setups.append(setup_s)
    expected = workload.expectations(t2mc, items)
    del t2mc

    untraced, traced = [], []
    start = perf_counter()
    while True:
        trace_now = bool(args.trace) and len(untraced) > len(traced)
        result = run_pass(workload, args.seed, workdir, expected, trace_now)
        (traced if trace_now else untraced).append(result)
        enough = (len(untraced) >= MIN_PASSES if not args.trace
                  else len(traced) >= MIN_TRACED_PASSES)
        if enough and perf_counter() - start >= args.seconds:
            break
    passes = untraced + traced
    problems = [p for r in passes for p in r["problems"]]
    attempted = sum(r["items"] for r in passes)
    failed = sum(1 for r in passes for _ in r["problems"])
    setups += [r["setup_s"] for r in passes]

    best = fastest(untraced)
    pass_q = quartiles([r["pass_s"] for r in untraced])
    item_q = quartiles([r["times"][workload.largest] for r in untraced])
    print(f"# {workload.name} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes of {passes[0]['items']} items, "
          f"{len(setups)} set-ups")
    print(f"# untraced pass wall time: quartiles {pass_q[0]:.4f} "
          f"{pass_q[1]:.4f} {pass_q[2]:.4f} s; {workload.largest}: "
          f"{item_q[0]:.4f} {item_q[1]:.4f} {item_q[2]:.4f} s")
    print(f"# fail_ratio {failed / attempted:g} ({failed} of {attempted} "
          f"items)")
    if args.trace:
        metrics, trace_problems = layer_metrics(workload, traced, untraced)
        problems += trace_problems
        os.makedirs(OUT, exist_ok=True)
        traced[-1]["tracer"].dump(os.path.join(
            OUT, f"spans-{workload.name}-seed{args.seed}.jsonl"))
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"setup_s": (min(setups), "s"),
                   "pass_s": (sum(best.values()), "s"),
                   "largest_item_s": (best[workload.largest], "s"),
                   "peak_rss_mb": (rss, "MB")}

    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    width = max(len(k) for k in metrics)
    for key, (value, unit) in metrics.items():
        print(f"{key:<{width}}  {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
