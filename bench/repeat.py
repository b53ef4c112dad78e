"""Run two sets of the benchmark over seeds 1-10 and record the baseline.

    python3 bench/repeat.py [--out bench/baseline.json]

Each set runs the command of BENCHMARK.json once per workload and seed, one
fresh process at a time, for the file's run_seconds.  For every end-to-end
metric it prints each set's median, quartiles and quartile spread as a share
of the median, and how far the second set's median is from the first's,
next to the metric's bound.  One traced run per workload (seed 1) adds the
per-layer metrics.  --out writes all of it as JSON.  The exit code is 1 if a
spread (setup_s's excepted) or the second median's excess over the first
is larger than the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import quartiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = list(range(1, 11))
SETS = 2


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def invoke(spec, cwd, workload, seed, seconds, trace):
    """Run the benchmark command in `cwd` in a fresh process."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace",
                             str(int(trace))]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180, check=False)


def result_of(proc, what):
    """The result line of a finished run; a failed run ends the caller."""
    if proc.returncode != 0:
        raise SystemExit(f"{what} exited {proc.returncode}:\n"
                         f"{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary_of(values):
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    spec = load_spec()
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {(s, w, m): [] for s in range(SETS) for w in workloads
              for m in bounds}
    for s in range(SETS):
        for workload in workloads:
            for seed in SEEDS:
                result = result_of(
                    invoke(spec, ROOT, workload, seed, seconds, False),
                    f"set {s + 1} {workload} seed {seed}")
                for name in bounds:
                    values[s, workload, name].append(
                        result["metrics"][name]["value"])
                print(f"set {s + 1} {workload} seed {seed}: " + "  ".join(
                    f"{name}={values[s, workload, name][-1]:.4g}"
                    for name in bounds), flush=True)

    summary = {"seconds": seconds, "seeds": SEEDS, "workloads": {}}
    over = []
    for workload in workloads:
        rows = {}
        for name, bound in bounds.items():
            sets = [summary_of(values[s, workload, name])
                    for s in range(SETS)]
            drift = sets[-1]["median"] / sets[0]["median"] - 1
            rows[name] = {"bound": bound, "sets": sets, "drift": drift}
            for s, row in enumerate(sets):
                print(f"{workload:<14} {name:<15} set {s + 1}: median "
                      f"{row['median']:.5g}  q1 {row['q1']:.5g}  q3 "
                      f"{row['q3']:.5g}  spread {row['spread']:.3f}")
                if name != "setup_s" and row["spread"] > bound:
                    over.append(f"{workload} {name} set {s + 1} spread")
            print(f"{workload:<14} {name:<15} second median vs first "
                  f"{drift:+.3f}  bound {bound}")
            if drift > bound:
                over.append(f"{workload} {name} drift")
        traced = result_of(invoke(spec, ROOT, workload, SEEDS[0], seconds,
                                  True), f"traced {workload}")
        summary["workloads"][workload] = {
            "end_to_end": rows,
            "per_layer": {k: v["value"]
                          for k, v in traced["metrics"].items()}}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    for problem in over:
        print(f"OUT OF BOUND {problem}", file=sys.stderr)
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
