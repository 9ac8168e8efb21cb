"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload NAME [--workload NAME ...]
        [--seeds 1-10] [--trace 0|1] [--out FILE]

Run from the repository root.  Runs are sequential and each lasts
``run_seconds`` of BENCHMARK.json.  For every metric the
summary gives the median and the quartiles of the per-seed values
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, next to the metric's bound
in BENCHMARK.json.  With --out the per-seed results and the summary are
written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workload:
        runs = []
        for seed in seeds(args.seeds):
            proc = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(seconds),
                                   "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} exit {proc.returncode}:\n"
                         f"{proc.stderr}")
            result = json.loads(proc.stdout.splitlines()[-1])
            runs.append({"seed": seed, **result})
            print(workload, seed, result["correct"], result["attempted"],
                  result["failed"], {k: round(v["value"], 4) for k, v in
                                     result["metrics"].items()
                                     if k in bounds}, flush=True)
        names = runs[0]["metrics"]
        stats = {}
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs]
            stats[name] = dict(summary(values), unit=names[name]["unit"],
                               bound=bounds.get(name))
            s = stats[name]
            print(f"  {name:32s} median {s['median']:.6g}"
                  f"  spread {s['spread']:.4f}  bound {s['bound']}")
        report["workloads"][workload] = {"runs": runs, "summary": stats}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
