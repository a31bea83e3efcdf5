#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the omflp CLI (the program
under test) and the benchmark runner with dune inside the checkout, runs
one workload, and relays the runner's report: '#' lines describing what
ran, then one JSON result line, which is the last line of standard output.
Exits non-zero when the checkout cannot be built, the run fails, or any
output is not correct. See perfbench/README.md for workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading

WORKLOADS = ["serve-light", "serve-durable", "serve-heavy", "certify"]
SOURCES = ["dune-project", "bin/omflp_cli.ml", "lib/serve/server.ml", "perfbench/src/dune"]
OMFLP = "_build/default/bin/omflp_cli.exe"
RUNNER = "_build/default/perfbench/src/perfbench.exe"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 160


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(env):
    cmd = ["dune", "build", "--root", ".", OMFLP, RUNNER]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log("build failed: %s" % e)
        return False
    if done.returncode != 0:
        log("build failed (dune exit %d)" % done.returncode)
        return False
    return True


def run_runner(args, work_dir, env):
    cmd = [
        RUNNER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--omflp", os.path.abspath(OMFLP),
        "--work-dir", work_dir,
    ]
    # Own process group, so a timeout also takes down the servers and
    # echo peers the runner spawned.
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def kill_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def on_timeout():
        log("runner timed out")
        kill_group()

    watchdog = threading.Timer(RUN_TIMEOUT_S, on_timeout)
    watchdog.start()
    last = None
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()
            if line.strip():
                last = line.strip()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            kill_group()
            proc.wait()
    return proc.returncode, last


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()
    missing = [f for f in SOURCES if not os.path.isfile(f)]
    if missing:
        log("not the root of a source checkout (missing %s)" % ", ".join(missing))
        return 2
    env = dict(os.environ)
    # Keep every build artefact inside the checkout: no shared dune cache.
    env["DUNE_CACHE"] = "disabled"
    if not build(env):
        return 2
    work_dir = os.path.join(".perfbench-work", "%s-%d-%d-%d" % (args.workload, args.seed, args.trace, os.getpid()))
    try:
        code, last = run_runner(args, work_dir, env)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    try:
        result = json.loads(last or "")
    except ValueError:
        log("runner printed no result line")
        return code or 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result line")
        return 1
    return code if code else (0 if result["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
