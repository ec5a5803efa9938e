#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload count-skewed --seed 1 --seconds 10 --trace 0

Run from the repository root.  Builds the library and the C++ benchmark
(perfbench/perfbench.cpp) in Release mode into .bench_build (or
$CARGO_TARGET_DIR when set), then runs one workload.  The benchmark prints
a human-readable summary and, as its last stdout line, one JSON object
{"correct", "attempted", "failed", "metrics"}.  Exits nonzero, without
a result line, when the build fails, the benchmark fails or times out.
"""

import argparse
import hashlib
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def source_id(root):
    """Commit id when the tree is a git checkout, else a digest of the
    library sources (an exported checkout carries no git metadata)."""
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("CMakeLists.txt", "src"):
        path = os.path.join(root, base)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(root, build_dir):
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench"])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            log(f"build step failed ({result.returncode}): {' '.join(step)}")
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "perfbench", "run.py")):
        log("run from the repository root")
        return 2
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("library sources (src/) not found next to perfbench/")
        return 2
    if not build(root, build_dir):
        return 2

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", build_dir, "--commit", source_id(root)]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench exceeded {RUN_TIMEOUT_S} s and was killed")
        return 3
    if result.returncode != 0:
        log(f"perfbench exited with {result.returncode}")
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
