#!/usr/bin/env python3
"""End-to-end benchmark of the sdsp compile path.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the compiler, sdspc, sdspd and the benchmark program from the
sources of this checkout (Release, assertions off) under .bench_build/,
then runs one workload in its own process.  The last line of stdout is
the result object; see README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(".bench_build", "perfbench")
WORKLOADS = ("kernels", "large_loops")
# A run must end within 180 s; sdsp_e2e is stopped before that.
RUN_TIMEOUT_S = 170


def clean_env():
    """The program reads SDSP_* variables; none may reach a measurement."""
    return {k: v for k, v in os.environ.items() if not k.startswith("SDSP_")}


def build(env):
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit("perfbench: build failed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="show that every output check rejects a "
                         "perturbed output")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    os.chdir(ROOT)
    env = clean_env()
    build(env)
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(BUILD, "sdsp_e2e_selftest")],
                                env=env).returncode)

    work = os.path.join(".bench_build", "work-%s-%d" % (args.workload,
                                                       os.getpid()))
    cmd = [os.path.join(BUILD, "sdsp_e2e"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--sdspc", os.path.join(BUILD, "sdspc"),
           "--sdspd", os.path.join(BUILD, "sdspd"),
           "--work", work]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run did not finish in %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("perfbench: sdsp_e2e failed (exit %d)" % proc.returncode)
    result = json.loads(lines[-1])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
