"""Benchmark of the u21hecke verifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each pass is a cold interpreter
(perfbench/cold_pass.py) that imports u21hecke from ./src, builds its own
tower and weights, and checks every verdict against a known answer.  Passes
run one after another, single-threaded.

--trace 0: full passes are repeated while another one still fits in
--seconds (at least one).  Set-up alone is then repeated in further cold
interpreters, up to SETUP_SAMPLES samples in all, while these extra runs
stay within SETUP_BUDGET_S.  Reported, as medians:
    wall_s       seconds from the prepared catalog to the last verdict
    setup_s      seconds from interpreter launch to the prepared catalog
    peak_rss_mb  high-water RSS of a full pass
Times are reference seconds: measured seconds rescaled by a CPU speed probe
sampled during the pass (perfbench/speed.py), because the speed the host
gives a process drifts by tens of per cent.  Only the interpreter start-up
and imports inside setup_s stay raw (see cold_pass.py).  The raw medians are
in the context line.
--trace 1: one pass with the outside-in tracer (perfbench/tracer.py); it
reports the per-layer metrics, times in reference seconds, and writes its
spans (raw seconds) to .perfbench-out/<workload>-seed<N>.spans.gz.

The last line of stdout is one JSON object:
    {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}
where attempted and failed count identity checks; failed/attempted is the
check failure fraction (a check that raised or returned a wrong answer).
The line before it gives the run's context (kernel backend, Python, nproc,
window, passes, raw seconds, mean probe time).  Exits non-zero, printing no
result, when ./src/u21hecke is missing or a pass dies.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COLD_PASS = Path(__file__).resolve().parent / "cold_pass.py"
PACKAGE = ROOT / "src" / "u21hecke"
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("battery_q3", "recursion_q3", "grid_q5", "tiny_q3")

SETUP_SAMPLES = 5
SETUP_BUDGET_S = 4.0
RUN_DEADLINE_S = 170.0


class PassFailed(RuntimeError):
    pass


def _cold_pass(workload, seed, deadline, extra=()):
    """Run one cold pass; returns (its duration, its JSON)."""
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise PassFailed("no time left for another pass")
    t_launch = time.perf_counter()
    cmd = [sys.executable, str(COLD_PASS), "--workload", workload,
           "--seed", str(seed), "--launched-at", repr(t_launch), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise PassFailed("pass of %s exceeded the run deadline" % workload)
    took = time.perf_counter() - t_launch
    if proc.returncode != 0:
        raise PassFailed("pass of %s exited with %d"
                         % (workload, proc.returncode))
    return took, json.loads(proc.stdout.strip().splitlines()[-1])


def _median(outs, key):
    return statistics.median(out[key] for out in outs)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run(workload, seed, seconds, trace, inject_wrong=False):
    """Measure one run; returns (result dict, context dict)."""
    t0 = time.perf_counter()
    deadline = t0 + RUN_DEADLINE_S
    extra = ["--inject-wrong"] if inject_wrong else []
    checks = []
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / ("%s-seed%d.spans.gz" % (workload, seed))
        _, out = _cold_pass(workload, seed, deadline,
                            extra + ["--trace-spans", str(spans)])
        checks = out["checks"]
        metrics = {k: _metric(v, u) for k, (v, u) in out["metrics"].items()}
        metrics["trace.wall_s"] = _metric(out["wall_s"], "s")
        metrics["trace.top_span_cover"] = _metric(
            out["top_span_s"] / out["raw_wall_s"], "ratio")
        metrics["check_fail_frac"] = _metric(
            sum(1 for _, ok, _ in checks if not ok) / len(checks), "ratio")
        passes = setups = [out]
    else:
        passes, setups, spent = [], [], 0.0
        while True:
            took, out = _cold_pass(workload, seed, deadline, extra)
            passes.append(out)
            setups.append(out)
            checks.extend(out["checks"])
            if time.perf_counter() + took > t0 + seconds:
                break
        while (len(setups) < SETUP_SAMPLES and spent
               + _median(setups, "raw_setup_s") <= SETUP_BUDGET_S):
            took, out = _cold_pass(workload, seed, deadline, ["--setup-only"])
            setups.append(out)
            spent += took
        metrics = {
            "wall_s": _metric(_median(passes, "wall_s"), "s"),
            "setup_s": _metric(_median(setups, "setup_s"), "s"),
            "peak_rss_mb": _metric(_median(passes, "rss_mb"), "MB"),
        }
    failed = sum(1 for _, ok, _ in checks if not ok)
    result = {"correct": failed == 0, "attempted": len(checks),
              "failed": failed, "metrics": metrics}
    context = {
        "workload": workload, "seed": seed, "trace": bool(trace),
        "backend": passes[0]["backend"], "window": passes[0]["window"],
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "passes": len(passes), "setup_samples": len(setups),
        "raw_wall_s": _median(passes, "raw_wall_s"),
        "raw_setup_s": _median(setups, "raw_setup_s"),
        "probe_ms": _median(passes, "probe_ms"),
    }
    return result, context


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (PACKAGE / "induction.py").is_file():
        print("perfbench: %s not found; run from the root of a u21hecke "
              "source checkout" % PACKAGE, file=sys.stderr)
        return 2
    try:
        result, context = run(args.workload, args.seed, args.seconds,
                              args.trace)
    except PassFailed as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    print("# context " + json.dumps(context))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
