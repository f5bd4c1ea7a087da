#!/usr/bin/env python3
"""Host-path benchmark for emdpa: build, then run one workload in a fresh process.

    python3 perfbench/run.py --workload fluid-100k --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke      # all four workloads, tiny sizes, both modes

Run from the repository root.  The binary is built from ../src into
.bench_build/ (CMake, RelWithDebInfo).  Checkpoint and store directories
live under .bench_build/io-<pid>/ and are removed when the run ends.  The last
line of standard output is the result JSON; build output goes to stderr.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["fluid-100k", "paper-n2-8k", "ensemble-32k", "bisect-32k"]
RUN_TIMEOUT_S = 170
# Knobs the library reads from the environment; the benchmark pins them.
PINNED_ENV = ("EMDPA_FAULTS", "EMDPA_THREADS", "EMDPA_SIMD")


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no src/ beside perfbench/; run from a full checkout")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "-j", jobs]]
    if os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd))


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run(workload, seed, seconds, trace, extra=(), capture=False):
    """Run one workload in its own process; returns (exit code, stdout or None)."""
    io_dir = os.path.join(BUILD, "io-%d" % os.getpid())
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--io-dir", io_dir, "--commit", commit(), *extra]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(io_dir, ignore_errors=True)
    return proc.returncode, (out.decode() if capture else None)


def result_of(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def smoke():
    """Every workload at tiny sizes, timed and traced; exit 1 unless all pass."""
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run(workload, 1, 1, trace, ["--smoke"], capture=True)
            result = result_of(out) if code == 0 else {}
            ok = result.get("correct") is True and result.get("failed") == 0
            bad += not ok
            print("smoke %-13s trace %d: %s" % (workload, trace, "ok" if ok else "FAILED"))
            if not ok:
                print(out)
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny sizes and check they pass")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    build()
    if args.smoke:
        return smoke()
    code, _ = run(args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
