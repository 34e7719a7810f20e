#!/usr/bin/env python3
"""Print every benchmark metric by name and unit, per workload.

    python3 perfbench/report.py --seed N [--workloads serve_mix,...]

For each workload (default: those BENCHMARK.json lists) this makes one untraced run (end-to-end metrics) and
one traced run (per-layer metrics, with the benchmark's spans written
to .bench_out/spans-<workload>-<seed>.ndjson), then prints both lists,
the error rate and the tracing overhead: traced vs untraced throughput.
Exit code 1 when any run fails or any answer is wrong.
"""

import argparse
import json
import sys

from run import ROOT, build, run


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    binary = build()
    bad = False
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    for w in workloads:
        print(f"\n== {w} (seed {args.seed}, --seconds {seconds})")
        results = {}
        for trace in (0, 1):
            code, res, _ = run(binary, w, args.seed, seconds, trace,
                               echo=False)
            if code != 0 or res is None:
                print(f"  trace {trace}: run failed (exit {code})")
                bad = True
                continue
            results[trace] = res
            kind = "per-layer (traced run)" if trace else "end-to-end"
            rate = res["failed"] / res["attempted"]
            bad |= not res["correct"]
            print(f"  {kind}: correct={res['correct']} attempted="
                  f"{res['attempted']} failed={res['failed']} "
                  f"error_rate={rate:.6f}")
            for name, m in res["metrics"].items():
                print(f"    {name:<38} {m['value']:16.6f} {m['unit']}")
        if 0 in results and 1 in results:
            off = results[0]["metrics"]["throughput"]["value"]
            on = results[1]["metrics"]["trace.throughput"]["value"]
            print(f"  tracing overhead: throughput {off:.2f} untraced vs "
                  f"{on:.2f} traced = {100 * (off - on) / off:+.2f}%")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
