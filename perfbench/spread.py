#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs `perfbench/run.py` once per seed for each workload (from the root
of a checkout) and reports, per metric, the median of the runs and the
distance between their first and third quartiles as a share of the
median (statistics.quantiles(values, n=4)), next to the metric's bound
in BENCHMARK.json. A spread above a third of the bound is flagged.
`--compare` reads two such sets of runs of the same code and prints how
far each metric's median moved for the worse from the first set to the
second, next to its bound: the check a regression gate makes.

    python3 perfbench/spread.py                      # 10 seeds, every workload
    python3 perfbench/spread.py --workloads warm_wire --seeds 5
    python3 perfbench/spread.py --json spread.json   # also write the raw runs
    python3 perfbench/spread.py --compare a.json b.json
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({done.returncode}):\n{done.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2]).get("meta", {}) if len(lines) > 1 else {}


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def compare(bench, first, second):
    """Median drift for the worse, per workload and metric, of two sets."""
    with open(first) as fh:
        a = json.load(fh)
    with open(second) as fh:
        b = json.load(fh)
    exceeded = 0
    for workload in [w for w in a if w in b]:
        print(f"{workload} ({len(a[workload])} vs {len(b[workload])} runs)")
        for m in bench["end_to_end"]:
            name = m["name"]
            med_a, med_b = (statistics.median(r["result"]["metrics"][name]["value"] for r in runs)
                            for runs in (a[workload], b[workload]))
            worse = (med_b - med_a) if m["better"] == "lower" else (med_a - med_b)
            drift = worse / abs(med_a) if med_a else 0.0
            flag = "  <-- beyond the bound" if drift > m["bound"] else ""
            exceeded += bool(flag)
            print(f"  {name:32s} {med_a:14.6g} -> {med_b:14.6g}  worse by {drift:+8.4f}  "
                  f"bound {m['bound']:.3f}{flag}")
    return 1 if exceeded else 0


def main():
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--json", help="write every run's result and metadata here")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                        help="compare the medians of two --json files instead of running")
    args = parser.parse_args()
    if args.compare:
        return compare(bench, *args.compare)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    raw = {}
    worst = 0.0
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, meta = run_once(workload, seed, args.seconds)
            if not result["correct"] or result["failed"]:
                print(f"  {workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
            runs.append({"seed": seed, "result": result, "meta": meta})
        raw[workload] = runs
        print(f"{workload} ({len(runs)} runs)")
        names = runs[0]["result"]["metrics"].keys()
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med, rel = spread(values)
            bound = bounds.get(name)
            flag = ""
            if bound and name != "setup_s" and rel > bound / 3:
                flag = "  <-- above a third of the bound"
                worst = max(worst, rel / bound)
            bound_text = f"{bound:.3f}" if bound else "  -  "
            print(f"  {name:32s} median {med:14.6g}  spread {rel:7.4f}  bound {bound_text}{flag}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(raw, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
