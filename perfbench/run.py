#!/usr/bin/env python3
"""Runs one workload of the snapstab layered benchmark.

    python3 perfbench/run.py --workload sim_mix --seed 1 --seconds 10 --trace 0

Builds perfbench/ (and through it the snapstab library) from source into
.bench_build/perfbench, runs the workload in its own process and prints two
lines on stdout: a run record (seed, host fingerprint, the run's CPU steal
share, the trace file) and, last, the result object with the keys
correct, attempted, failed and metrics. --trace 0 prints the end-to-end
metrics, --trace 1 the per-layer ones and writes the spans to
.bench_out/. Exits non-zero when the build fails, a correctness check fails
or the benchmark misbehaves. perfbench/README.md describes the workloads
and the metrics.
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "snapbench")
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("sim_mix", "sim_storm", "thread_loop", "socket_loop")
RUN_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; one build at a time per checkout."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           check=True, timeout=300)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=840)


def cpu_times():
    """Aggregate jiffies from /proc/stat: (steal, total)."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal; guest time is already
    # inside user and nice.
    return fields[7], sum(fields[:8])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """SHA-256 over the library and benchmark sources, for checkouts that
    carry no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if it is there."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except OSError:
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be within 1..60")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    trace_file = None
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        trace_file = os.path.join(
            OUT, f"trace-{args.workload}-seed{args.seed}.json")
        cmd += ["--trace-out", trace_file]
    steal0, total0 = cpu_times()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} ran past {RUN_TIMEOUT_S} s")
        return 1
    steal1, total1 = cpu_times()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        log(f"perfbench: {args.workload} exited {proc.returncode} "
            "without a result")
        return 1
    build_info = json.loads(lines[-2])
    result = json.loads(lines[-1])

    names = declared_metrics(args.trace)
    if names is not None and sorted(names) != sorted(result["metrics"]):
        log("perfbench: printed metrics differ from BENCHMARK.json")
        return 1

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "steal_share": (steal1 - steal0) / max(1, total1 - total0),
        "host": {
            "cpu_model": cpu_model(),
            "nproc": os.cpu_count(),
            "build_type": build_info["build_type"],
            "compiler": build_info["compiler"],
            "git_sha": git_sha(),
            "source_digest": source_digest(),
        },
        "trace_file": os.path.relpath(trace_file, ROOT) if trace_file else None,
    }
    print(json.dumps(record))
    print(json.dumps(result), flush=True)
    if not result["correct"] or proc.returncode != 0:
        log("perfbench: a correctness check failed")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
