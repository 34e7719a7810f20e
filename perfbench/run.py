#!/usr/bin/env python3
"""Build and run one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench; later calls only re-check the build.
Build output goes to stderr.  The last line of stdout is the result
object {"correct", "attempted", "failed", "metrics"}.  The exit code is
non-zero when the build fails, the run fails or an answer is wrong.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve_mix", "scan_parallel", "ingest_restart")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build():
    """Configure (once) and build the benchmark binary; return its path."""
    out = build_dir()
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("no src/CMakeLists.txt next to perfbench/: "
                           "run from a full checkout")
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(["cmake", "--build", str(out), "-j4",
                    "--target", "dvp_perfbench"],
                   check=True, stdout=sys.stderr, cwd=ROOT)
    return out / "dvp_perfbench"


def run(binary, workload, seed, seconds, trace, echo=True):
    """Run one workload; return (exit code, result dict or None, stdout)."""
    proc = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--out-dir", str(ROOT / ".bench_out")],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result, proc.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in [1, 600]")
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    try:
        code, result, _ = run(binary, args.workload, args.seed,
                              args.seconds, args.trace)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    if result is None:
        print("perfbench: the run printed no result", file=sys.stderr)
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
