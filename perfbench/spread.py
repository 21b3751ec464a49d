"""Repeat benchmark runs over seeds and report the spread of each metric.

    python3 perfbench/spread.py --workload qbm-long --workload is-search \\
        --seeds 1-10 --seconds 10 --out perfbench/results/<name>.json
    python3 perfbench/spread.py --workload all --seeds 0 --trace 1 --repeat 2

Each run is `run.py` in its own process, one after another.  For each
end-to-end metric the spread is (Q3 - Q1) / median over the runs, with
quartiles from statistics.quantiles(values, n=4).  With --repeat 2 each
seed runs twice, and every count metric must read the same both times.
The record written to --out holds every run's result line and
environment record, plus the summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run
import workloads

#: Units of metrics that count work; they must repeat exactly for one seed.
#: (Byte sizes are left out: qbm and measure reports carry their wall time.)
COUNT_UNITS = {"count", "points/row"}


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return {"workload": workload, "seed": seed, "env": env,
            "result": json.loads(lines[-1])}


def summarize(runs: list[dict]) -> dict:
    values: dict = {}
    for r in runs:
        for name, metric in r["result"]["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    summary = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else 0.0}
    return summary


def count_mismatches(runs: list[dict]) -> list[str]:
    """Count metrics that differ between runs of the same seed."""
    first: dict = {}
    out = []
    for r in runs:
        for name, metric in r["result"]["metrics"].items():
            if metric["unit"] not in COUNT_UNITS:
                continue
            key = (r["seed"], name)
            if first.setdefault(key, metric["value"]) != metric["value"]:
                out.append(f"seed {r['seed']} {name}: {first[key]} vs {metric['value']}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark spread over seeds")
    parser.add_argument("--workload", action="append", required=True,
                        choices=[*workloads.WORKLOADS, *workloads.EXTRA_WORKLOADS, "all"])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    names = workloads.WORKLOADS if "all" in args.workload else args.workload

    record = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in names:
        runs = [one_run(workload, seed, args.seconds, args.trace)
                for seed in parse_seeds(args.seeds) for _ in range(args.repeat)]
        summary = summarize(runs)
        mismatches = count_mismatches(runs)
        failed = sum(r["result"]["failed"] for r in runs)
        ok = ok and not mismatches and not failed
        record["workloads"][workload] = {"runs": runs, "summary": summary,
                                         "count_mismatches": mismatches}
        print(f"{workload}: {len(runs)} runs, {failed} failed operations")
        for name, s in summary.items():
            if args.trace and not name.startswith(("trace.", "cli.")):
                continue
            print(f"  {name:<24} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f}")
        for line in mismatches:
            print(f"  COUNT MISMATCH {line}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
