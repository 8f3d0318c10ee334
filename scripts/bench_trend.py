#!/usr/bin/env python3
"""Aggregates the `BENCH_pr*.json` CI artifacts into one trend table.

CI's `bench-smoke` job emits one JSON artifact per benchmark family
(per-engine golden wall times, comm-bb wall times, serving throughput,
daemon latency, hedging tails, core raw speed). This script folds every
`BENCH_pr*.json` found in each input directory into:

* a machine-readable trend file (``--out``, default ``BENCH_trend.json``)
  with one row per (label, artifact, metric) triple, and
* a markdown table on stdout (and ``--markdown FILE`` if given) with
  metrics as rows and one column per input directory — so pointing the
  script at several downloaded artifact directories (one per past PR)
  yields a side-by-side trend across PRs, while a single directory
  yields this PR's summary column.

Usage::

    bench_trend.py [--out FILE] [--markdown FILE] [DIR ...]

Each ``DIR`` (default: the current directory) is labeled by its
basename (``.`` becomes ``current``).

**Schema validation is strict and the script hard-fails (exit 1) on any
malformed artifact**: unparseable JSON, a wrong top-level shape, or a
recognized artifact missing a required metric all abort the run with
one error line per problem. A benchmark bin that silently changes its
report schema therefore breaks CI here instead of producing a trend
table with holes. Unrecognized ``BENCH_pr*.json`` files are accepted
(future artifacts must not break old checkouts) but still must parse
and carry at least one numeric metric.
"""

import argparse
import json
import sys
from pathlib import Path

# ---------------------------------------------------------------------------
# Schema registry: required dotted metric paths per known artifact name.
# `[]` in a path means "every element of this array" (solve batches).
# ---------------------------------------------------------------------------

SOLVE_BATCH_ROW_KEYS = ("file", "engine", "optimality", "wall_time_ms")

OBJECT_SCHEMAS = {
    "BENCH_pr_throughput.json": [
        "requests",
        "cold_solves_per_sec",
        "warm_solves_per_sec",
        "warm_speedup",
        "cache_hit_rate",
        "errors",
    ],
    "BENCH_pr_serve.json": [
        "requests",
        "requests_per_sec",
        "p50_us",
        "p95_us",
        "p99_us",
        "errors",
    ],
    "BENCH_pr_hedge.json": [
        "requests",
        "hedging_off.p99_ms",
        "hedging_on.p99_ms",
        "hedge_stats.races",
    ],
    "BENCH_pr_core.json": [
        "p8_u32_ms",
        "p8_u64_ms",
        "p33_wall_ms",
        "parallel_speedup",
        "parse_speedup",
        "parse_request_ms",
    ],
}

SOLVE_BATCH_ARTIFACTS = {"BENCH_pr.json", "BENCH_pr_comm_bb.json"}


def lookup(tree, dotted):
    """Resolves a dotted path in nested dicts; None when absent."""
    node = tree
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def numeric_leaves(tree, prefix=""):
    """Every numeric leaf of a nested dict as (dotted_path, value)."""
    rows = []
    if isinstance(tree, dict):
        for key, value in tree.items():
            rows.extend(numeric_leaves(value, f"{prefix}{key}."))
    elif isinstance(tree, bool):
        pass
    elif isinstance(tree, (int, float)):
        rows.append((prefix[:-1], tree))
    return rows


def fold_solve_batch(name, data, errors):
    """Headline metrics of a `solve --json` batch artifact."""
    if not isinstance(data, list) or not data:
        errors.append(f"{name}: expected a non-empty JSON array of solve reports")
        return {}
    metrics = {}
    total_wall = 0.0
    max_wall = 0.0
    proven = 0
    for i, row in enumerate(data):
        if not isinstance(row, dict):
            errors.append(f"{name}[{i}]: solve report must be a JSON object")
            return {}
        missing = [k for k in SOLVE_BATCH_ROW_KEYS if k not in row]
        if missing:
            errors.append(f"{name}[{i}]: solve report missing {missing}")
            return {}
        wall = row["wall_time_ms"]
        if not isinstance(wall, (int, float)) or isinstance(wall, bool):
            errors.append(f"{name}[{i}]: wall_time_ms must be numeric")
            return {}
        total_wall += wall
        max_wall = max(max_wall, wall)
        proven += row["optimality"] == "proven"
    metrics["instances"] = len(data)
    metrics["proven"] = proven
    metrics["total_wall_time_ms"] = round(total_wall, 3)
    metrics["max_wall_time_ms"] = round(max_wall, 3)
    return metrics


def fold_object(name, data, required, errors):
    """Headline metrics of a single-object artifact with a known schema."""
    if not isinstance(data, dict):
        errors.append(f"{name}: expected a JSON object")
        return {}
    metrics = {}
    for path in required:
        value = lookup(data, path)
        if value is None or isinstance(value, bool) or not isinstance(value, (int, float)):
            errors.append(f"{name}: required metric `{path}` is missing or non-numeric")
            continue
        metrics[path] = value
    return metrics


def fold_unknown(name, data, errors):
    """Future artifacts: accept any object/array, keep numeric leaves."""
    if isinstance(data, list):
        return {"entries": len(data)}
    if isinstance(data, dict):
        metrics = dict(numeric_leaves(data))
        if not metrics:
            errors.append(f"{name}: no numeric metrics found in unrecognized artifact")
        return metrics
    errors.append(f"{name}: expected a JSON object or array at top level")
    return {}


def fold_directory(directory, errors):
    """All BENCH_pr*.json artifacts in one directory → {artifact: {metric: v}}."""
    artifacts = {}
    paths = sorted(directory.glob("BENCH_pr*.json"))
    if not paths:
        errors.append(f"{directory}: no BENCH_pr*.json artifacts found")
        return artifacts
    for path in paths:
        name = path.name
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as e:
            errors.append(f"{name}: unreadable or invalid JSON ({e})")
            continue
        if name in SOLVE_BATCH_ARTIFACTS:
            metrics = fold_solve_batch(name, data, errors)
        elif name in OBJECT_SCHEMAS:
            metrics = fold_object(name, data, OBJECT_SCHEMAS[name], errors)
        else:
            metrics = fold_unknown(name, data, errors)
        if metrics:
            artifacts[name] = metrics
    return artifacts


def fmt(value):
    if isinstance(value, float):
        return f"{value:,.3f}".rstrip("0").rstrip(".")
    return f"{value:,}"


def markdown_table(labels, columns):
    """Metrics as rows, one column per label; `-` marks absent cells."""
    keys = []
    for column in columns:
        for artifact, metrics in column.items():
            for metric in metrics:
                key = (artifact, metric)
                if key not in keys:
                    keys.append(key)
    lines = [
        "| artifact | metric | " + " | ".join(labels) + " |",
        "|---|---|" + "---|" * len(labels),
    ]
    for artifact, metric in keys:
        cells = []
        for column in columns:
            value = column.get(artifact, {}).get(metric)
            cells.append("-" if value is None else fmt(value))
        lines.append(f"| {artifact} | {metric} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="*", default=["."], metavar="DIR")
    parser.add_argument("--out", default="BENCH_trend.json")
    parser.add_argument("--markdown", default=None)
    args = parser.parse_args()

    errors = []
    labels = []
    columns = []
    for raw in args.dirs:
        directory = Path(raw)
        if not directory.is_dir():
            errors.append(f"{raw}: not a directory")
            continue
        label = directory.resolve().name if raw in (".", "./") else directory.name
        labels.append(label or "current")
        columns.append(fold_directory(directory, errors))

    if errors:
        for line in sorted(set(errors)):
            print(f"error: {line}", file=sys.stderr)
        return 1

    rows = [
        {"label": label, "artifact": artifact, "metric": metric, "value": value}
        for label, column in zip(labels, columns)
        for artifact, metrics in sorted(column.items())
        for metric, value in metrics.items()
    ]
    trend = {"labels": labels, "rows": rows}
    Path(args.out).write_text(json.dumps(trend, indent=2) + "\n", encoding="utf-8")

    table = markdown_table(labels, columns)
    if args.markdown:
        Path(args.markdown).write_text(table, encoding="utf-8")
    sys.stdout.write(table)
    print(f"\nwrote {args.out} ({len(rows)} trend rows)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
