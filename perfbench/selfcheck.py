#!/usr/bin/env python3
"""The benchmark's self-check, at a tiny profile (a few seconds a run).

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

Checks that
  * BENCHMARK.json has the shape its format requires;
  * every workload, untraced, prints exactly the end_to_end metrics with
    their units, answers correctly and fails nothing;
  * every workload, traced, prints exactly the per_layer metrics with
    their units; the traced runs together give every layer self time;
    warm_wire leaves the engines idle, cold_solve leaves the wire idle;
  * in a directory holding only BENCHMARK.json and the benchmark's own
    files, the command exits non-zero without printing a result.
Exits non-zero on the first failed check.
"""

import json
import os
import re
import shutil
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
LAYERS = ["serve", "core", "solver", "algorithms", "exact", "heuristics", "sim",
          "multicrit", "loadgen"]
ENGINE_BUSY = ["algorithms.paper_ms", "exact.exact_ms", "exact.comm_exact_ms",
               "exact.comm_bb_ms", "heuristics.heuristic_ms",
               "heuristics.comm_heuristic_ms", "solver.hedged_ms"]
SECONDS = 3


def fail(message):
    sys.exit(f"selfcheck: FAIL: {message}")


def check_format(bench):
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(bench) != keys:
        fail(f"BENCHMARK.json keys {sorted(bench)} != {sorted(keys)}")
    names = []
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            fail(f"bad workload entry {w}")
        names.append(w["name"])
    for m in bench["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            fail(f"bad end_to_end entry {m}")
    for m in bench["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            fail(f"bad per_layer entry {m}")
    metrics = bench["end_to_end"] + bench["per_layer"]
    names += [m["name"] for m in metrics]
    bad = [n for n in names if not NAME.match(n)]
    if bad or len(set(names)) != len(names):
        fail(f"names must be unique and well formed: {bad or names}")
    if any(not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher") for m in metrics):
        fail("a unit or `better` is malformed")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s (unit s, lower) is missing")
    if setup[0]["bound"] < max(m["bound"] for m in bench["end_to_end"]):
        fail("setup_s must carry the largest bound")
    if not 1 <= bench["run_seconds"] <= 60 or not 2 <= len(bench["workloads"]) <= 8:
        fail("run_seconds or the workload count is out of range")


def run(workload, trace, cwd="."):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", str(SECONDS), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def result_of(workload, trace):
    done = run(workload, trace)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        fail(f"{workload} trace={trace} exited {done.returncode}: {done.stderr[-1500:]}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: correct={result['correct']} "
             f"failed={result['failed']}/{result['attempted']}: {done.stderr[-1500:]}")
    return result


def check_metrics(workload, result, declared):
    got = result["metrics"]
    if list(got) != [m["name"] for m in declared]:
        missing = {m["name"] for m in declared} - set(got)
        extra = set(got) - {m["name"] for m in declared}
        fail(f"{workload}: metrics differ from BENCHMARK.json (missing {missing}, extra {extra})")
    for m in declared:
        entry = got[m["name"]]
        if set(entry) != {"value", "unit"} or entry["unit"] != m["unit"]:
            fail(f"{workload}: {m['name']} printed as {entry}, declared unit {m['unit']}")


def check_bare_directory(bench):
    """The command must fail cleanly where only the benchmark's files are."""
    bare = os.path.join(".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(path, os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("target"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(os.path.abspath(bare), ".bench_build"))
    cmd = bench["command"] + ["--workload", bench["workloads"][0]["name"], "--seed", "1",
                              "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=bare, env=env, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        fail("in a bare directory the command must exit non-zero without a result")


def main():
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    check_format(bench)
    self_time = {layer: 0.0 for layer in LAYERS}
    for w in [w["name"] for w in bench["workloads"]]:
        result = result_of(w, 0)
        check_metrics(w, result, bench["end_to_end"])
        zero = [n for n, v in result["metrics"].items() if v["value"] == 0]
        if zero:
            fail(f"{w}: end-to-end metrics read zero: {zero}")
        result = result_of(w, 1)
        check_metrics(w, result, bench["per_layer"])
        values = {n: v["value"] for n, v in result["metrics"].items()}
        for layer in LAYERS:
            self_time[layer] += values[f"layer.{layer}.self_ms"]
        if w == "warm_wire" and any(values[n] for n in ENGINE_BUSY):
            fail("warm_wire kept an engine busy: the hot set was not all cache hits")
        if w == "cold_solve" and any(v for n, v in values.items() if n.startswith("serve.")):
            fail("cold_solve loaded the serve layer")
        print(f"selfcheck: {w}: ok")
    idle = [layer for layer, ms in self_time.items() if ms <= 0]
    if idle:
        fail(f"no traced run covered layers {idle}")
    check_bare_directory(bench)
    print("selfcheck: ok")


if __name__ == "__main__":
    main()
