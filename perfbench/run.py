#!/usr/bin/env python3
"""Build the toolkit benchmark and run one workload.

    python3 perfbench/run.py --workload type|open|collab --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root.  The benchmark is configured and built with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
with the toolkit's default build type; an up-to-date build is reused.  The
process environment is pinned: every ATK_* variable the toolkit reads is
removed, so a shell export cannot change what is measured.  Traced runs
write a Perfetto trace to <build dir>/traces/<workload>-seed<N>.json.

The last line of standard output is the result JSON of atk_perfbench.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def pinned_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("ATK_")}


def build(build_root):
    """Configures (once) and builds atk_perfbench; returns its path or None."""
    build_dir = os.path.join(build_root, "perfbench")
    env = pinned_env()
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir])
    steps.append(["cmake", "--build", build_dir, "--target", "atk_perfbench", "-j", BUILD_JOBS])
    for step in steps:
        done = subprocess.run(step, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(step))
            return None
    return os.path.join(build_dir, "atk_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["type", "open", "collab"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_root)
    if binary is None:
        return 1

    if args.selftest:
        cmd = [binary, "--selftest"]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            traces = os.path.join(build_root, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--perfetto",
                    os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, env=pinned_env(), stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: atk_perfbench did not finish in %d s\n" % RUN_TIMEOUT_S)
        return 1
    out = done.stdout.decode(errors="replace")
    if done.returncode != 0:
        sys.stderr.write(out)
        return done.returncode
    if args.selftest:
        sys.stdout.write(out)
        return 0
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                       "metrics"}:
        sys.stderr.write(out)
        sys.stderr.write("run.py: malformed result line\n")
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
