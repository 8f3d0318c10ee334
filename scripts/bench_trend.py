#!/usr/bin/env python3
"""Aggregates the `solve --json` CI artifacts into one trend table.

CI's `bench-smoke` job writes two batches of `solve --json` reports:
``BENCH_pr.json`` (every golden instance under the default route) and
``BENCH_pr_comm_bb.json`` (the comm golden instances forced through
comm-bb). This script folds the ones found in each input directory
into:

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

**Validation is strict and the script hard-fails (exit 1) on any
malformed artifact**: unparseable JSON, anything but a non-empty array
of report objects, or a report missing a required key or carrying a
non-numeric wall time all abort the run with one error line per
problem. Other files in the directory are ignored.
"""

import argparse
import json
import sys
from pathlib import Path

# Required keys of every row of a `solve --json` batch artifact.
SOLVE_BATCH_ROW_KEYS = ("file", "engine", "optimality", "wall_time_ms")

ARTIFACTS = ("BENCH_pr.json", "BENCH_pr_comm_bb.json")


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


def fold_directory(directory, errors):
    """The known artifacts in one directory → {artifact: {metric: v}}."""
    artifacts = {}
    paths = [directory / name for name in ARTIFACTS if (directory / name).is_file()]
    if not paths:
        errors.append(f"{directory}: none of {', '.join(ARTIFACTS)} found")
        return artifacts
    for path in paths:
        name = path.name
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as e:
            errors.append(f"{name}: unreadable or invalid JSON ({e})")
            continue
        metrics = fold_solve_batch(name, data, errors)
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
