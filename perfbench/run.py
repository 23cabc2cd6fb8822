#!/usr/bin/env python3
"""Builds the serving-path benchmark from source and runs one workload.

Run from the root of an optabs checkout:

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
scratch files and the traced run's ledger go to .bench_run/. The last line of
standard output is the benchmark's JSON result. See perfbench/README.md.
"""

import argparse
import fcntl
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run must end within 180 s; leave room to stop the servers.
RUN_TIMEOUT_S = 170


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                    ["cmake", "--build", build_dir, "-j", jobs,
                     "--target", "perfbench"]):
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["suite-cold", "tenants-hot", "edit-requery"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    run_root = ".bench_run"
    os.makedirs(os.path.join(run_root, "ledger"), exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload=" + args.workload,
           "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds,
           "--trace=%d" % args.trace,
           "--tools-dir=" + os.path.join(build_dir, "optabs-tools"),
           "--reference=" + os.path.join(HERE, "reference", "answers.tsv"),
           "--run-dir=" + os.path.join(run_root, "%s-%d" % (args.workload,
                                                             os.getpid())),
           "--ledger=" + os.path.join(run_root, "ledger", "%s-seed%d.json" %
                                      (args.workload, args.seed))]
    # Its own process group, so a timeout stops the servers it spawned too.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
