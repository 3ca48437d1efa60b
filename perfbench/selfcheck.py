"""Self-check of the benchmark harness, on a tiny input (a few seconds):

    python3 perfbench/selfcheck.py

1. An untraced run of tiny_q3 (q = 3 recursion 0->1 and 1->2) passes its
   checks and emits exactly the end_to_end metrics of BENCHMARK.json, each
   with its unit.
2. Two traced runs with the same seed emit exactly the per_layer metrics,
   each with its unit, and every count repeats exactly.
3. A wrong expected value, injected in the harness, drives check_fail_frac
   above 0 and makes the run incorrect.

Prints one line per failed condition and exits 1 if there is any.
"""

import json
import sys

import run

WORKLOAD = "tiny_q3"
SEED = 1


def _units(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []

    plain, _ = run.run(WORKLOAD, SEED, 1, 0)
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if _units(plain) != want:
        problems.append("end-to-end metrics %r, expected %r"
                        % (_units(plain), want))
    if not plain["correct"] or plain["failed"] or plain["attempted"] < 1:
        problems.append("tiny run not correct: %r" % (plain,))

    traced = [run.run(WORKLOAD, SEED, 1, 1)[0] for _ in range(2)]
    want = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for res in traced:
        if _units(res) != want:
            problems.append("per-layer metrics %r, expected %r"
                            % (_units(res), want))
    for name, unit in want.items():
        if unit != "count":
            continue
        a, b = (res["metrics"].get(name, {}).get("value") for res in traced)
        if a != b:
            problems.append("count %s differs between traced runs: %r, %r"
                            % (name, a, b))

    bad, _ = run.run(WORKLOAD, SEED, 1, 1, inject_wrong=True)
    if bad["correct"] or not bad["failed"]:
        problems.append("injected wrong answer not detected: %r"
                        % ({k: bad[k] for k in ("correct", "failed")},))
    if not bad["metrics"]["check_fail_frac"]["value"] > 0:
        problems.append("check_fail_frac is 0 with an injected wrong answer")

    for p in problems:
        print("selfcheck: " + p)
    print("selfcheck: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
