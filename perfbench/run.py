#!/usr/bin/env python3
"""Build and run the simulator benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload busy4096 --seed 1 --seconds 15 --trace 0

It builds the Go program in this directory (its own module, which uses
the simulator's packages from the repository root) into .bench_build/,
with the Go build cache there too, then runs it with the Go runtime
settings pinned. The program prints a report and, as its last line, one
JSON object with the results. Exits non-zero, printing no result, when
the simulator's sources are not there or the build or the run fails.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD_DIR, "gocache"),
        GOTMPDIR=os.path.join(BUILD_DIR, "tmp"),
        GOPATH=os.path.join(BUILD_DIR, "gopath"),
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
        GOSUMDB="off",
        GOWORK="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    return env


def run_env():
    env = dict(os.environ)
    # Results must not depend on the host's Go settings.
    for key in ("GODEBUG", "GOMEMLIMIT"):
        env.pop(key, None)
    env.update(GOMAXPROCS="2", GOGC="100")
    return env


def run(cmd, cwd, env, timeout):
    """Runs cmd, stopping it and everything it started on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
        return 124
    except BaseException:
        os.killpg(proc.pid, 9)
        proc.wait()
        raise


def main():
    if not os.path.isfile(os.path.join(BENCH_DIR, os.pardir, "go.mod")):
        print("perfbench: the simulator's sources (go.mod) are not beside this directory", file=sys.stderr)
        return 2
    for d in ("gocache", "tmp", "gopath"):
        os.makedirs(os.path.join(BUILD_DIR, d), exist_ok=True)
    code = run(["go", "build", "-o", BINARY, "."], BENCH_DIR, go_env(), BUILD_TIMEOUT_S)
    if code != 0:
        print(f"perfbench: build failed ({code})", file=sys.stderr)
        return code or 1
    code = run([BINARY, "--out", BUILD_DIR] + sys.argv[1:], ROOT, run_env(), RUN_TIMEOUT_S)
    return code


if __name__ == "__main__":
    sys.exit(main())
