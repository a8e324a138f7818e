#!/usr/bin/env python3
"""Run the benchmark once per seed on each workload and summarize.

    python3 bench/collect.py --seeds 1-10 --out /tmp/runs.json
    python3 bench/collect.py --seeds 1-10 --workload gen-recipes

Runs `bench/run.py` one at a time (never in parallel, which would distort
the timings), then prints, per workload and end-to-end metric, the median,
the quartiles and the spread: the distance between the first and third
quartile as a share of the median, which `BENCHMARK.json` bounds. With
`--out` it writes every run's metrics and input fingerprint, plus that
summary, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",")]


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    ap.add_argument("--workload", action="append", help="default: all")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                sys.exit(f"{workload} seed {seed} exited {proc.returncode}")
            result = json.loads(lines[-1])
            fingerprint = lines[0].rsplit("sha256:", 1)[-1]
            runs.append({"seed": seed, "fingerprint": fingerprint, **result})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
            ), flush=True)
        summary = {
            name: summarize([r["metrics"][name]["value"] for r in runs])
            for name in bounds
        }
        report["workloads"][workload] = {"summary": summary, "runs": runs}
        for name, s in summary.items():
            flag = "" if name == "setup_s" or s["spread"] <= bounds[name] else "  OVER BOUND"
            print(f"  {name:16s} median {s['median']:.4g}  q1 {s['q1']:.4g}  "
                  f"q3 {s['q3']:.4g}  spread {s['spread']:.3f} "
                  f"(bound {bounds[name]}){flag}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
