"""Repeat the benchmark over seeds and record each metric's median and spread.

    python3 perfbench/collect.py --out perfbench/results/BENCH_<label>.json
        [--runs 10] [--seconds S] [--workloads NAME,NAME]

For every workload this makes ``--runs`` untraced runs of ``run.py``, one
per seed (1, 2, ..., ``--runs``), then one traced run with seed 0.  Per
end-to-end metric it records the values, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
next to the bound in ``BENCHMARK.json``.  A change that claims a gain
quotes two such files, its parent's and its own, made on the same machine.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    for line in lines:
        for tag in ("env", "self_ms_by_layer"):
            if line.startswith(f"# {tag} "):
                out[tag] = json.loads(line[len(tag) + 3:])
    return out


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "bound": bound}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "runs": args.runs, "workloads": {}}
    for name in args.workloads.split(","):
        seeds = list(range(1, args.runs + 1))
        results = [run_once(name, seed, args.seconds, 0) for seed in seeds]
        entry = {
            "seeds": seeds,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "correct": all(r["correct"] for r in results),
            "end_to_end": {
                metric: dict(unit=results[0]["metrics"][metric]["unit"], **summarize(
                    [r["metrics"][metric]["value"] for r in results], bound))
                for metric, bound in bounds.items()
            },
        }
        report.setdefault("env", results[0].get("env"))
        traced = run_once(name, 0, args.seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["self_ms_by_layer"] = traced.get("self_ms_by_layer")
        entry["correct"] = entry["correct"] and traced["correct"]
        report["workloads"][name] = entry
        for metric, s in entry["end_to_end"].items():
            print(f"{name:14s} {metric:18s} median {s['median']:.6g} {s['unit']:4s} "
                  f"spread {s['spread']:.4f} (bound {s['bound']})", flush=True)
        for metric, value in entry["per_layer"].items():
            print(f"{name:14s} {metric:30s} {value:.6g} {traced['metrics'][metric]['unit']}")
        print(f"{name:14s} fail_rate {entry['failed']}/{entry['attempted']}", flush=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
