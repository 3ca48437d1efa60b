"""One cold pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/cold_pass.py --workload NAME --seed N --launched-at T
        [--setup-only] [--trace-spans PATH] [--inject-wrong]

--launched-at is the parent's time.perf_counter() just before it started
this interpreter (CLOCK_MONOTONIC, shared by all processes).

Set-up imports u21hecke, builds a new Tower(p, f) (never the process-wide
build_tower cache), sets the tier-1 window on it, computes iwahori_constants
for both compacts, builds the workload's weights and runs the Weight methods
its checks need.  The pass then runs every check and compares the verdict
with the known answer; a check that raises counts as failed and its
traceback goes to stderr.  With --trace-spans the tracer is installed before
set-up and the spans are written to PATH at the end.  --inject-wrong replaces
the first check's expected value with a wrong one (harness self-check only).

A speed probe (speed.py) runs from the end of the imports on.  wall_s is
reported in reference seconds.  setup_s is the interpreter start-up and the
imports in raw seconds plus the rest of set-up in reference seconds: start-up
and imports mostly load files, and their time did not follow the probe.  The
raw seconds are reported too.  The last line of stdout is one JSON object
with these times, the peak RSS and the check verdicts.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import speed

SRC = Path(__file__).resolve().parent.parent / "src"
INJECTED = "injected wrong answer"


def _null_region(name):
    return nullcontext()


def run_pass(name, seed, probe, setup_only=False, tracer=None,
             inject_wrong=False):
    """Set up and run one workload; returns (t_ready, t_done, verdicts)."""
    from u21hecke.fields import Tower
    from u21hecke.unitary_group import K0, K1, iwahori_constants

    import workloads

    wl = workloads.WORKLOADS[name]
    region = tracer.region if tracer is not None else _null_region
    with region("fields.Tower"):
        tower = Tower(wl.p, wl.f)
    tower.default_window = workloads.WINDOW
    with region("unitary_group.iwahori_constants"):
        for K in (K0, K1):
            iwahori_constants(tower, K)
    with region("weights.make_weight"):
        catalog = {
            key: workloads.make_weight(tower, *key) for key in wl.weights
        }
    with region("weights.prep"):
        for w in catalog.values():
            for method in wl.prep:
                getattr(w, method)()
    probe.sample()
    t_ready = time.perf_counter()
    if setup_only:
        return t_ready, None, []
    checks = []
    for i, (label, thunk, expected) in enumerate(wl.checks(catalog, seed)):
        if inject_wrong and i == 0:
            expected = (INJECTED, expected)
        with region("check " + label):
            try:
                got = thunk()
            except Exception:
                traceback.print_exc()
                checks.append((label, False, "raised"))
                continue
        ok = got == expected
        if not ok:
            print("check %r: got %r, expected %r" % (label, got, expected),
                  file=sys.stderr)
        checks.append((label, ok, None if ok else "wrong answer"))
    probe.sample()
    return t_ready, time.perf_counter(), checks


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--launched-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-spans", default=None)
    ap.add_argument("--inject-wrong", action="store_true")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from u21hecke import _kernel
    import workloads

    tracer = None
    if args.trace_spans:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    t_imported = time.perf_counter()
    probe = speed.SpeedProbe()
    probe.start()
    t_ready, t_done, checks = run_pass(
        args.workload, args.seed, probe, args.setup_only, tracer,
        args.inject_wrong)
    probe.stop()
    t0 = args.launched_at
    out = {
        "backend": _kernel.BACKEND_NAME,
        "window": workloads.WINDOW,
        "setup_s": (t_imported - t0) + probe.ref_seconds(t_imported, t_ready),
        "raw_setup_s": t_ready - t0,
    }
    if t_done is not None:
        out.update(
            wall_s=probe.ref_seconds(t_ready, t_done),
            raw_wall_s=t_done - t_ready,
            probe_ms=1e3 * probe.mean_probe_s(t_imported, t_done),
            rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            checks=checks,
        )
    if tracer is not None:
        tracer.uninstall()
        scale = probe.factor(t_imported, t_done)
        out["metrics"] = {
            k: (v * scale if u == "s" else v, u)
            for k, (v, u) in tracing.layer_metrics(tracer).items()
        }
        out["top_span_s"] = tracer.top_level_s("check ")
        tracer.write_spans(args.trace_spans, t_ready)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
