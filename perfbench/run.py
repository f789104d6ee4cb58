#!/usr/bin/env python3
"""Build the PolyMath benchmark from source and run one workload.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the repository root. The benchmark binary is built in release
mode into $CARGO_TARGET_DIR (default `.bench_build`). Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result. The
script exits non-zero, without a result, when the build fails, the run
times out, or any output of the stack is wrong. `--workload all` runs the
three workloads one after another, each in its own process.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
WORKLOADS = ("serve-hot", "serve-churn", "compile-large")
# Inputs of the build, digested into the run metadata (a checkout of the
# repository need not be a git repository).
SOURCES = ("Cargo.lock", "crates", "vendor", "perfbench/src", "perfbench/Cargo.toml")


def source_digest():
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = []
        if os.path.isfile(path):
            files = [path]
        for base, dirs, names in os.walk(path):
            dirs.sort()
            files.extend(os.path.join(base, n) for n in sorted(names))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    env["PERFBENCH_RUSTC"] = command_output(["rustc", "--version"])
    env["PERFBENCH_COMMIT"] = command_output(["git", "rev-parse", "HEAD"])
    env["PERFBENCH_SOURCE"] = source_digest()
    binary = os.path.join(ROOT, target, "release", "perfbench")
    args = sys.argv[1:]
    runs = [args]
    if "--workload" in args:
        at = args.index("--workload") + 1
        if args[at : at + 1] == ["all"]:
            # One process per workload: the srDFG store is process-global.
            runs = [args[:at] + [w] + args[at + 1 :] for w in WORKLOADS]
    for run_args in runs:
        try:
            run = subprocess.run([binary, *run_args], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"run.py: benchmark run failed: {e}", file=sys.stderr)
            return 1
        if run.returncode != 0:
            return run.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
