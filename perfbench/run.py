#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <checkpoint|metadata|strided> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first call configures and builds
perfbench/ (with the stack sources in src/) under $CARGO_TARGET_DIR, or
.bench_build when it is unset; later calls rebuild incrementally.  Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result.  Any failure -- build, run, timeout, or a result that is not one
JSON object -- exits non-zero.

While the benchmark runs, one SCHED_IDLE spinner process per CPU
(`lwfs_perfbench --spin`) keeps every CPU busy with work the kernel
preempts at once.  The stack's small-op
latency is mostly thread wake-ups; on a virtual machine a CPU with nothing
to run is halted and handed back to the hypervisor, and waking it again
costs a host-dependent delay.  Without the spinners that delay dominated
(and varied 2-4x from run to run); with them the runs measure the stack.
The spinners run in their own processes, so the benchmark's process CPU
numbers exclude them.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def start_spinners(binary):
    return [subprocess.Popen([binary, "--spin"], stdin=subprocess.DEVNULL,
                             stdout=subprocess.DEVNULL)
            for _ in range(os.cpu_count() or 1)]


def stop_spinners(spinners):
    for p in spinners:
        p.kill()
    for p in spinners:
        p.wait()


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "lwfs_perfbench",
         "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["checkpoint", "metadata", "strided"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    out_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(out_root, "perfbench"))
    if not build(build_dir):
        return 2

    binary = os.path.join(build_dir, "lwfs_perfbench")
    cmd = [binary,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-file", os.path.join(
            build_dir, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    spinners = start_spinners(binary)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3
    finally:
        stop_spinners(spinners)

    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        sys.stderr.write(line + "\n")
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict):
        sys.stderr.write("perfbench: no JSON result (exit %d)\n" % done.returncode)
        return done.returncode or 4
    print(lines[-1], flush=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
