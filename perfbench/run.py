#!/usr/bin/env python3
"""Build `rrs` and the benchmark from source, then run one benchmark pass.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ingest|mixed --seed N --seconds S --trace 0|1

Both builds go to $CARGO_TARGET_DIR (default `.bench_build`); scratch
directories go under it too. Everything after the build is the
benchmark binary's own output: a report, then one JSON result line.
The exit code is the benchmark's (non-zero when a build fails or an
output is wrong).
"""

import os
import subprocess
import sys


def capture(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "-p", "rrs-cli", "--bin", "rrs"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        # Build output goes to stderr so the result stays the last stdout line.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("error: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    commit = os.environ.get("RRS_BENCH_COMMIT", "unknown")
    if commit == "unknown" and os.path.isdir(os.path.join(root, ".git")):
        commit = capture(["git", "-C", root, "rev-parse", "--short", "HEAD"])
    bench = [
        os.path.join(target, "release", "rrs-perfbench"),
        *sys.argv[1:],
        "--server", os.path.join(target, "release", "rrs"),
        "--work", os.path.join(target, "perfbench-work"),
        "--commit", commit,
        "--rustc", capture(["rustc", "--version"]),
    ]
    sys.stdout.flush()
    return subprocess.run(bench, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
