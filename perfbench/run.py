#!/usr/bin/env python3
"""Build and run one perfbench workload; print its result as the last line.

    python3 perfbench/run.py --workload paper_surface|fleet_churn|serve_session \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a sharch checkout.  The first run configures and
builds the repo's libraries, sharch-serve and the perfbench binary in
Release under $CARGO_TARGET_DIR (default .bench_build); later runs only
check that the build is current.  The binary's scratch output (spans,
journals, snapshots) goes to .bench_out.  Set-up time is measured from
the moment the perfbench process is spawned, after the build.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then bring the build up to date; False on error."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    rc = subprocess.run(["cmake", "--build", out, "-j", jobs],
                        stdout=sys.stderr, stderr=sys.stderr).returncode
    return rc == 0


def run_bench(args):
    """Run perfbench in its own process group; returns (rc, stdout)."""
    binary = os.path.join(build_dir(), "perfbench")
    cmd = [binary] + args + ["--spawn-ns", str(time.monotonic_ns()),
                             "--out", os.path.join(ROOT, ".bench_out"),
                             "--serve-bin", os.path.join(build_dir(), "sharch-serve")]
    # Its own process group holds perfbench and every sharch-serve it
    # starts, so a timeout or a signal to this script ends them all.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, stop)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"perfbench exceeded {RUN_TIMEOUT_S} s and was killed")
        return 1, ""
    return proc.returncode, stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload",
                    choices=["paper_surface", "fleet_churn", "serve_session"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run every workload tiny and show each output "
                         "check rejects a wrong output")
    a = ap.parse_args()
    if not a.self_test and a.workload is None:
        ap.error("--workload is required")
    if a.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not build():
        log("build failed")
        return 1
    if a.self_test:
        rc, _ = run_bench(["--self-test"])
        return rc

    rc, stdout = run_bench(["--workload", a.workload, "--seed", str(a.seed),
                             "--seconds", str(a.seconds),
                             "--trace", str(a.trace)])
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"perfbench printed no result (exit {rc})")
        return rc or 1
    if set(result) != RESULT_KEYS:
        log(f"perfbench result has keys {sorted(result)}")
        return 1
    print(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main())
