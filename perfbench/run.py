#!/usr/bin/env python3
"""Host-time benchmark of the x-kernel RPC simulator.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload pair-null --seed 1 --seconds 35 --trace 0

Builds perfbench/ (the simulator libraries plus the xk_perfbench program) with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then
runs xk_perfbench. Its last stdout line is the result JSON: end-to-end
metrics with --trace 0, per-layer metrics with --trace 1. Its output checks
decide "correct"; any failed check, build error or missing source makes the
exit code non-zero.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("pair-null", "pair-16k", "datacenter", "sessions")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def source_rev(root):
    """The git revision, or a digest of the sources when not in a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for sub in ("src", "perfbench"):
        base = os.path.join(root, sub)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build(root, build_dir):
    src_dir = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no simulator sources (src/CMakeLists.txt) under " + root)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", src_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(["ninja", "--version"], capture_output=True).returncode == 0:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "xk_perfbench", "-j",
           str(min(4, os.cpu_count() or 1))]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "xk_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    build_dir = os.path.join(root, build_dir)
    binary = build(root, build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--baseline", os.path.join(root, "bench", "baseline.json"),
           "--rev", source_rev(root)]
    if args.trace:
        cmd += ["--spans", os.path.join(build_dir, "spans-%s.jsonl" % args.workload)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("xk_perfbench exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail("xk_perfbench exited with %d" % proc.returncode)


if __name__ == "__main__":
    main()
