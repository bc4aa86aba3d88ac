#!/usr/bin/env python3
"""Self-tests of the benchmark's answer checks and layer attribution.

    python3 perfbench/selftest.py

Run from the root of a checkout; it takes about three minutes.

1. Corrupted reference: every workload, run with --corrupt-reference,
   must report correct=false and exit non-zero.
2. Attribution: a delay injected from the benchmark side at one layer
   boundary must move that layer's metric and its workload's latency by
   about the delay, and leave the other layers' timing metrics alone.
   - fig10-verify, traced: the absint.Simplify call is wrapped.
   - zend-mix: Handler() is wrapped in a slow http.Handler.
"""

import json
import os
import re
import subprocess
import sys

RUN = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")]
failures = []


def bench(workload, seconds, trace, *extra):
    cmd = RUN + ["--workload", workload, "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)] + list(extra)
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1]) if lines else None
    return proc.returncode, res, proc.stderr


def metrics(res):
    return {k: v["value"] for k, v in res["metrics"].items()}


def check(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def moved(name, base, hit, delay_ms, share=1.0):
    """The injected layer's metric rises by about delay_ms * share."""
    d = hit[name] - base[name]
    check(0.7 * delay_ms * share <= d <= 1.5 * delay_ms * share + 0.3 * base[name],
          "%s moved %.3f -> %.3f (injected %.1f ms)" % (name, base[name], hit[name], delay_ms * share))


def unmoved(names, base, hit, delay_ms):
    """Other layers' timings move by much less than the delay."""
    for name in names:
        d = abs(hit[name] - base[name])
        check(d <= max(0.3 * base[name], 0.25 * delay_ms),
              "%s unmoved %.3f -> %.3f" % (name, base[name], hit[name]))


def traced_mean(stderr):
    m = re.search(r"traced latency mean ([\d.]+) ms", stderr)
    return float(m.group(1)) if m else float("nan")


def main():
    for w in ("fig10-verify", "zend-mix", "dataplane-eval"):
        code, res, _ = bench(w, 4, 0, "--corrupt-reference")
        check(code != 0 and res is not None and res["correct"] is False and res["failed"] > 0,
              "%s: corrupted reference fails the run (exit %d)" % (w, code))

    delay = 20.0
    _, base, err0 = bench("fig10-verify", 12, 1)
    _, hit, err1 = bench("fig10-verify", 12, 1, "--inject", "absint=%dms" % delay)
    b, h = metrics(base), metrics(hit)
    moved("absint.presolve_ms", b, h, delay)
    unmoved(["zen.build_ms", "sym.eval_ms", "sat.solve_ms", "portfolio.race_ms", "zen.decode_ms"], b, h, delay)
    check(traced_mean(err1) > traced_mean(err0),
          "fig10-verify traced latency mean %.3f -> %.3f ms" % (traced_mean(err0), traced_mean(err1)))

    delay = 3.0
    _, base, _ = bench("zend-mix", 10, 0)
    _, hit, _ = bench("zend-mix", 10, 0, "--inject", "http=%dms" % delay)
    moved("latency_p50_ms", metrics(base), metrics(hit), delay)
    _, base, _ = bench("zend-mix", 10, 1)
    _, hit, _ = bench("zend-mix", 10, 1, "--inject", "http=%dms" % delay)
    b, h = metrics(base), metrics(hit)
    moved("serve.http_ms", b, h, delay)
    unmoved(["serve.cached_p50_ms", "serve.subsumed_p50_ms", "serve.cold_p50_ms", "serve.update_p50_ms"], b, h, delay)

    print("%d checks failed" % len(failures) if failures else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
