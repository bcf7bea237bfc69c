"""Steadiness report: run the benchmark N times per workload, one seed each,
and print every metric's median and quartiles, so steadiness is shown.

    python3 perfbench/steady.py --runs 10 --first-seed 100
    python3 perfbench/steady.py --runs 5 --workload evolve-replay

Run from the repository root. Runs are sequential, one process at a time.
The spread is the interquartile range over the median, with quartiles as
``statistics.quantiles(values, n=4)`` gives them; for end-to-end metrics it
is compared with a third of the bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable); default: all in BENCHMARK.json")
    ap.add_argument("--seconds", type=int, default=manifest["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workloads = args.workload or [w["name"] for w in manifest["workloads"]]
    specs = manifest["end_to_end"] if args.trace == 0 else manifest["per_layer"]
    steady = True
    for wl in workloads:
        results = []
        for k in range(args.runs):
            res = run_once(wl, args.first_seed + k, args.seconds, args.trace)
            results.append(res)
            values = " ".join(f"{m['value']:.5g}" for m in res["metrics"].values())
            print(f"{wl} seed {args.first_seed + k}: correct {res['correct']}, "
                  f"failed {res['failed']}/{res['attempted']}: {values}", flush=True)
            steady &= res["correct"] and res["failed"] == 0
        print(f"\n{wl}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}")
        print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound/3':>8s}")
        for spec in specs:
            values = [r["metrics"][spec["name"]]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / abs(med) if med else 0.0
            limit = spec.get("bound")
            verdict = ""
            if limit is not None and spec["name"] != "setup_s":
                ok = spread < limit / 3
                steady &= ok
                verdict = "ok" if ok else "WIDE"
            print(f"  {spec['name']:28s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {'' if limit is None else f'{limit / 3:8.4f}'} {verdict}")
        print(flush=True)
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
