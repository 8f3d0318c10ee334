#!/usr/bin/env python3
"""Build the daemon and the benchmark from source, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload warm_wire --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --regen-references

Builds go to $CARGO_TARGET_DIR (default: .bench_build in the checkout).
The last line of standard output is the result object (see
perfbench/README.md); build output goes to standard error. Exits
non-zero without printing a result when the build or the run fails.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.abspath(os.getcwd())


def revision():
    """The git revision, or a hash of the sources when not in a git tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=True,
        )
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=True,
        )
        return out.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if f.endswith((".rs", ".toml", ".lock", ".json", ".py")))
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as fh:
                digest.update(fh.read())
    return "tree-" + digest.hexdigest()[:12]


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "repliflow-serve",
         "--bin", "repliflow-serve"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("error: build failed: " + " ".join(cmd))


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    build(target)
    cmd = [os.path.join(target, "release", "perfbench"), "--root", ROOT]
    if "--regen-references" not in sys.argv[1:]:
        cmd += [
            "--serve-bin", os.path.join(target, "release", "repliflow-serve"),
            "--out-dir", os.path.join(ROOT, ".bench_out"),
            "--revision", revision(),
        ]
    done = subprocess.run(cmd + sys.argv[1:], cwd=ROOT)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
