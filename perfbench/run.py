#!/usr/bin/env python3
"""Build and run zen-go's benchmark.

    python3 perfbench/run.py --workload fig10-verify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The Go program is built from source into
.bench_build/ (its build cache, module cache and Go configuration stay
there too). An untraced run also times two set-up-only processes and
reports the median of the three set-up times as setup_s. The last line of
standard output is the result: one JSON object with the keys correct,
attempted, failed and metrics. Extra flags after the four standard ones
(for example --inject absint=5ms or --corrupt-reference) pass through to
the program; selftest.py uses them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
# Each run must finish well inside three minutes; the first build may not.
BUILD_TIMEOUT = 840
RUN_TIMEOUT = 150


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOENV=os.path.join(BUILD, "config", "go", "env"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOFLAGS="-mod=readonly -buildvcs=false",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOTELEMETRY="off",
    )
    return env


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, **kw):
    """Runs cmd to completion; on timeout kills it and waits for it."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("%s: timed out after %ds" % (" ".join(cmd), timeout))
    return proc.returncode, out.decode()


def last_json(out):
    lines = out.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = ap.parse_known_args()

    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    code, _ = run(["go", "build", "-o", BINARY, "."], BUILD_TIMEOUT, cwd=HERE, env=go_env())
    if code != 0:
        fail("build failed")

    # Set-up work depends on the run length (fig10-verify precomputes the
    # reference verdict of every query a run can issue), so the set-up-only
    # processes get the same --seconds as the measured one.
    base = [BINARY, "-workload", args.workload, "-seed", str(args.seed), "-seconds", str(args.seconds)]
    setups = []
    if args.trace == 0:
        for _ in range(2):
            code, out = run(base + ["-setup-only"] + extra, RUN_TIMEOUT, cwd=ROOT)
            res = last_json(out)
            if code != 0 or res is None:
                fail("set-up run failed")
            setups.append(res["setup_s"])

    code, out = run(base + ["-trace", str(args.trace)] + extra,
                    RUN_TIMEOUT, cwd=ROOT)
    res = last_json(out)
    if res is None or "metrics" not in res:
        fail("measured run failed (exit %d)" % code)
    if args.trace == 0:
        setups.append(res["metrics"]["setup_s"]["value"])
        res["metrics"]["setup_s"]["value"] = statistics.median(setups)
    print(json.dumps(res))
    sys.exit(code)


if __name__ == "__main__":
    main()
