"""Self-test of the benchmark itself.

    python3 bench/selftest.py

It runs every workload at seed 7, with one-second runs.

1. Two traced runs of the same seed, in separate processes, must report
   identical deterministic counts (calls, cells, nnz, pivots, max_bits,
   shapes, operator counts ...).  Each traced run also checks its own passes
   against each other, and `verify` checks the report digest on traced
   passes, so a pass means tracing left the report byte-identical.
2. Every run must report exactly the metric names and units BENCHMARK.json
   lists, with --trace 0 and with --trace 1.
3. In a directory that holds only BENCHMARK.json and the benchmark's files,
   the benchmark must exit non-zero without printing a result.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

from repeat import ROOT, invoke, load_spec, result_of
from run import DETERMINISTIC

SEED = 7
SECONDS = 1


def check_units(spec, metrics, section):
    want = {m["name"]: m["unit"] for m in spec[section]}
    got = {k: v["unit"] for k, v in metrics.items()}
    if want != got:
        raise AssertionError(f"{section} metrics differ from BENCHMARK.json: "
                             f"{sorted(set(want.items()) ^ set(got.items()))}")


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]

    for workload in workloads:
        plain = result_of(invoke(spec, ROOT, workload, SEED, SECONDS, False),
                          workload)
        check_units(spec, plain["metrics"], "end_to_end")
        first, second = (
            result_of(invoke(spec, ROOT, workload, SEED, SECONDS, True),
                      f"traced {workload}")
            for _ in range(2))
        check_units(spec, first["metrics"], "per_layer")
        drift = [k for k, v in first["metrics"].items()
                 if k.endswith(DETERMINISTIC)
                 and v["value"] != second["metrics"][k]["value"]]
        if drift:
            raise AssertionError(f"{workload}: counts differ between "
                                 f"traced runs: {drift}")
        print(f"ok {workload}: counts repeat across traced runs, "
              f"metric names and units match BENCHMARK.json")

    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT,
                                                             ".bench_work"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = invoke(spec, bare, workloads[0], SEED, SECONDS, False)
        if proc.returncode == 0 or proc.stdout.strip():
            raise AssertionError("the benchmark ran without t2mc sources")
        print(f"ok bare directory: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
