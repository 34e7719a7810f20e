#!/usr/bin/env python3
"""Steadiness check for the benchmark.

    python3 perfbench/steady.py [--workloads serve_mix,...] [--runs 10]
                                [--seed 1] [--sets 1] [--exact-runs 2]

For each workload (default: those BENCHMARK.json lists), run it --runs times untraced, each with another
seed (seed, seed+1, ...), and print every end-to-end metric's median,
quartiles and spread (Q3 - Q1) / median next to its bound from
BENCHMARK.json.  A spread above a third of the bound is flagged
"wide", above the bound "NOISY" (setup_s is reported, not judged).
With --sets 2 the whole set is repeated and the second median must
stay within the bound of the first.  Then --exact-runs traced runs
on one seed check that the exact counts a workload reports repeat
exactly.  Raw results
are appended to .bench_out/steady.ndjson.  Exit code 1 on a wrong
answer, a NOISY metric, a drifting median or a count that moved.
"""

import argparse
import json
import statistics
import sys
import time

from run import ROOT, build, run

EXACT = ("engine.rows_out", "durability.replayed_records",
         "durability.wal_bytes_per_doc")


def calib_ms(stdout):
    """The host.calib_ms probe a run prints before its workload."""
    for line in stdout.splitlines():
        if "host.calib_ms" in line and not line.startswith("{"):
            return float(line.rsplit(" ", 1)[-1])
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--exact-runs", type=int, default=2)
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    binary = build()
    log = ROOT / ".bench_out" / "steady.ndjson"
    log.parent.mkdir(exist_ok=True)
    bad = False

    def one(workload, seed, trace):
        nonlocal bad
        t0 = time.monotonic()
        code, res, out = run(binary, workload, seed, seconds, trace,
                             echo=False)
        wall = time.monotonic() - t0
        calib = calib_ms(out)
        with log.open("a") as f:
            f.write(json.dumps({"workload": workload, "seed": seed,
                                "trace": trace, "exit": code,
                                "wall_s": wall, "calib_ms": calib,
                                "result": res}) + "\n")
        if res is not None:
            vals = " ".join(f"{k}={v['value']:.4g}"
                            for k, v in res["metrics"].items()
                            if k in bounds)
            print(f"  run {workload} seed {seed} trace {trace}: "
                  f"{wall:.1f} s, host.calib_ms={calib} {vals}",
                  flush=True)
        if code != 0 or res is None or not res.get("correct"):
            print(f"  {workload} seed {seed}: FAILED (exit {code})")
            bad = True
            return None
        return res["metrics"]

    for w in workloads:
        medians = []
        for s in range(args.sets):
            rows = [one(w, args.seed + i, 0) for i in range(args.runs)]
            rows = [r for r in rows if r is not None]
            if len(rows) < 2:
                continue
            print(f"\n{w} set {s + 1}: {len(rows)} runs, seeds "
                  f"{args.seed}..{args.seed + args.runs - 1}")
            print(f"  {'metric':<16} {'unit':<5} {'median':>12} "
                  f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
            med = {}
            for name, m in bounds.items():
                vals = [r[name]["value"] for r in rows]
                q1, q2, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / q2 if q2 else float("inf")
                med[name] = q2
                if name == "setup_s":
                    flag = "(not judged)"
                elif spread > m["bound"]:
                    flag, bad = "NOISY", True
                elif spread > m["bound"] / 3:
                    flag = "wide"
                else:
                    flag = "ok"
                print(f"  {name:<16} {m['unit']:<5} {q2:12.4f} {q1:12.4f} "
                      f"{q3:12.4f} {spread:8.3f} {m['bound']:6.2f} {flag}")
            medians.append(med)
        for s in range(1, len(medians)):
            for name, m in bounds.items():
                a, b = medians[0][name], medians[s][name]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                status = "ok" if worse <= m["bound"] else "DRIFT"
                if status != "ok":
                    bad = True
                print(f"  set {s + 1} vs 1: {name:<16} {worse:+.3f} "
                      f"(bound {m['bound']}) {status}")

        if args.exact_runs > 0:
            traced = [one(w, args.seed, 1) for _ in range(args.exact_runs)]
            traced = [t for t in traced if t is not None]
            for name in EXACT:
                vals = [t[name]["value"] for t in traced if name in t]
                if not vals:
                    continue
                same = len(set(vals)) <= 1
                bad |= not same
                print(f"  exact {name:<30} {vals} "
                      f"{'repeats' if same else 'MOVED'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
