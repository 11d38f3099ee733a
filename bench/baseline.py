#!/usr/bin/env python3
"""Measure the benchmark's spread across seeds, as an automated comparison does.

    python3 bench/baseline.py [--workload W]... [--runs 10] [--first-seed 1] [--label NAME]

For each workload, runs ``bench/run.py --workload W --seed S --seconds T
--trace 0`` once for each of ``--runs`` consecutive seeds, with ``T`` the
``run_seconds`` of ``BENCHMARK.json``, and prints for every end-to-end metric
the median, quartiles and spread — ``(q3 - q1) / median`` — of the runs'
values next to the metric's bound.  With ``--label`` the raw result of every
invocation is written to ``bench/results/<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "bench" / "results"


def measure(workload: str, seed: int, seconds: int) -> dict:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return {"seed": seed, "wall_s": time.monotonic() - start,
            "result": json.loads(proc.stdout.strip().splitlines()[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--label", help="write raw results to bench/results/<label>.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [workload["name"] for workload in spec["workloads"]]
    raw: dict[str, list[dict]] = {}
    for workload in workloads:
        raw[workload] = [
            measure(workload, seed, spec["run_seconds"])
            for seed in range(args.first_seed, args.first_seed + args.runs)
        ]
        walls = [entry["wall_s"] for entry in raw[workload]]
        print(f"{workload}: {len(walls)} invocations, {min(walls):.1f}-{max(walls):.1f} s each")
        for metric in spec["end_to_end"]:
            values = [entry["result"]["metrics"][metric["name"]]["value"]
                      for entry in raw[workload]]
            q1, median, q3 = statistics.quantiles(values, n=4)
            print(f"  {metric['name']:<12} median {median:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {(q3 - q1) / median:6.1%}  bound {metric['bound']:.0%}")
    if args.label:
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / f"{args.label}.json").write_text(json.dumps(raw, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
