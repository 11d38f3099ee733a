#!/usr/bin/env python3
"""Run the repository benchmark: four workloads, end-to-end metrics, per-layer ledger.

From the repository root::

    PYTHONPATH=src python bench/run.py [--workload W]... [--repeats N] [--seed S] [--bless]

runs each workload ``N`` times (default 5), each run in a fresh child process,
checks every run's outputs, prints every metric with its unit, median,
quartiles and run count, then makes one traced run per workload for the
per-layer ledger.  Results land in ``bench/out/``.  ``--seed`` replaces every
workload's default seed (held-out checks); ``--bless`` records the runs'
output digests in ``bench/golden.json``.

    python3 bench/run.py --workload W --seed S --seconds T --trace 0|1

repeats untraced runs of one workload for about ``T`` seconds and prints one
JSON object as its last line: the median of every end-to-end metric of
``BENCHMARK.json`` (``--trace 0``), or every per-layer metric from one extra
traced run (``--trace 1``).

The exit status is non-zero when a check fails or a run crashes.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import write_chrome_trace

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"
#: A run that takes longer than this is killed and fails the benchmark.
CHILD_TIMEOUT_S = 150
#: Fewest untraced runs a timed (``--seconds``) invocation makes.
MIN_RUNS = 3
#: Virtual-clock results and their units.  They are exact — identical on
#: every run of one seed, and pinned by the golden digest — so they are
#: reported here rather than given a tolerance in ``BENCHMARK.json``.
VIRTUAL_UNITS = {
    "sched_latency_ms": "sim_ms",
    "sim_p50_ms": "sim_ms",
    "sim_p99_ms": "sim_ms",
    "slo_attainment": "ratio",
}


class RunError(Exception):
    """A child run crashed or timed out."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# --------------------------------------------------------------------------- #
# Running                                                                     #
# --------------------------------------------------------------------------- #
def spawn(workload: str, seed: int | None, scale: float, traced: bool) -> dict:
    """One run of ``workload`` in a fresh interpreter; its JSON result."""
    command = [sys.executable, str(BENCH / "workloads.py"), "--workload", workload,
               "--scale", repr(scale)]
    if seed is not None:
        command += ["--seed", str(seed)]
    if traced:
        command.append("--trace")
    python_path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=python_path, REPRO_COMPILE_JOBS="1")
    env["BENCH_SPAWN_MONOTONIC"] = repr(time.monotonic())
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunError(f"{workload} run exceeded {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{workload} run exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def untraced_runs(workload: str, seed: int | None, scale: float, *,
                  repeats: int | None = None, seconds: float | None = None,
                  min_runs: int = MIN_RUNS) -> list[dict]:
    """``repeats`` runs, or as many as fit in ``seconds`` (at least ``min_runs``)."""
    runs: list[dict] = []
    start = time.monotonic()
    while True:
        runs.append(spawn(workload, seed, scale, traced=False))
        if repeats is not None:
            if len(runs) >= repeats:
                return runs
            continue
        elapsed = time.monotonic() - start
        if len(runs) >= min_runs and elapsed * (len(runs) + 1) / len(runs) > seconds:
            return runs


# --------------------------------------------------------------------------- #
# Checking                                                                    #
# --------------------------------------------------------------------------- #
def golden_key(run: dict) -> str:
    seed = "any" if run["seed"] is None else run["seed"]
    return f"{run['workload']} seed={seed} scale={run['scale']:g}"


def check_digests(runs: list[dict], golden: dict[str, str]) -> str:
    """Compare every run's digest with the golden one; mark mismatching runs.

    All runs of one workload and seed — traced and untraced — must produce the
    same digest: the program is deterministic, and the ledger's wrappers must
    not change what it computes.  Returns a one-line verdict.
    """
    expected = golden.get(golden_key(runs[0]))
    digests = [run["digest"] for run in runs]
    reference = expected if expected is not None else max(set(digests), key=digests.count)
    for run in runs:
        if run["digest"] != reference:
            run["failures"].append(
                f"digest {run['digest'][:16]} differs from "
                f"{'golden' if expected is not None else 'the other runs'} {reference[:16]}"
            )
    status = "golden ok" if expected is not None else "no golden for this seed and scale"
    if any(run["digest"] != reference for run in runs):
        status = "MISMATCH"
    return f"{reference[:16]} {status}"


def bless(runs: list[dict], golden: dict[str, str]) -> None:
    """Record the runs' digest, if every run passed its checks and agreed."""
    failures = [failure for run in runs for failure in run["failures"]]
    if failures or len({run["digest"] for run in runs}) != 1:
        raise SystemExit(f"refusing to bless {golden_key(runs[0])}: runs failed or disagree")
    golden[golden_key(runs[0])] = runs[0]["digest"]
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


# --------------------------------------------------------------------------- #
# Summaries                                                                   #
# --------------------------------------------------------------------------- #
def summarize(values: list[float]) -> dict[str, float]:
    """Median, quartiles (``statistics.quantiles``, n=4) and count."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end_values(run: dict) -> dict[str, float]:
    """The ``BENCHMARK.json`` end-to-end metrics of one run."""
    return {
        "setup_s": run["setup_s"],
        "compile_s": run["compile_s"],
        "us_per_op": run["timed_s"] / run["ops"] * 1e6,
        "peak_rss_mb": run["peak_rss_mb"],
    }


def tally(runs: list[dict]) -> tuple[int, int]:
    """Operations attempted and failed; a failed check fails its whole run."""
    attempted = sum(run["ops"] for run in runs)
    failed = sum(run["ops"] for run in runs if run["failures"])
    return attempted, failed


def layer_metrics(spec: dict, traced: dict, untraced: list[dict]) -> dict[str, float]:
    """The traced run's ledger plus its overhead against the untraced median.

    A ``BENCHMARK.json`` per-layer metric the run did not report fails it.
    """
    base = statistics.median(run["timed_s"] for run in untraced)
    layers = {**traced["layers"], "trace_overhead_ratio": traced["timed_s"] / base}
    missing = sorted({metric["name"] for metric in spec["per_layer"]} - set(layers))
    if missing:
        traced["failures"].append(f"per-layer metrics missing: {missing}")
    return layers


def write_layer_files(workload: str, traced: dict, layers: dict[str, float]) -> None:
    OUT.mkdir(exist_ok=True)
    document = {"workload": workload, "seed": traced["seed"], "scale": traced["scale"],
                "timed_s": traced["timed_s"], "metrics": layers}
    (OUT / f"{workload}.layers.json").write_text(json.dumps(document, indent=2) + "\n")
    write_chrome_trace(OUT / f"{workload}.trace.json", traced["spans"], workload)


def top_self_time(traced: dict, count: int = 3) -> str:
    """The traced run's ``count`` layers with the most self time.

    Each share is of the run's wall time from process start to the end of
    the timed phase.
    """
    wall = traced["setup_s"] + traced["timed_s"]
    self_times = {name[: -len(".self_s")]: value for name, value in traced["layers"].items()
                  if name.endswith(".self_s")}
    ranked = sorted(self_times.items(), key=lambda item: -item[1])[:count]
    return ", ".join(f"{name} {value:.3f} s ({value / wall:.0%})" for name, value in ranked)


def print_workload(name: str, summary: dict, units: dict[str, str]) -> None:
    runs, traced = summary["runs"], summary["traced"]
    seed = "n/a" if runs[0]["seed"] is None else runs[0]["seed"]
    print(f"\n{name}  seed {seed}  scale {runs[0]['scale']:g}  "
          f"{len(runs)} runs + 1 traced")
    print(f"  {'metric':<16} {'unit':<7} {'median':>12} {'q1':>12} {'q3':>12} {'n':>4}")
    for metric, stats in summary["metrics"].items():
        print(f"  {metric:<16} {units[metric]:<7} {stats['median']:>12.6g} "
              f"{stats['q1']:>12.6g} {stats['q3']:>12.6g} {stats['n']:>4}")
    attempted, failed = summary["attempted"], summary["failed"]
    print(f"  {'error_rate':<16} {'ratio':<7} {failed / attempted:>12.6g}"
          f"   ({failed} of {attempted} operations failed)")
    completed = summary["virtual"].get("completed")
    if completed is not None:
        print(f"  percentiles over {completed['median']:.0f} completed requests per run")
    print(f"  digest {summary['digest']}")
    for failure in sorted({f for run in runs + [traced] for f in run["failures"]})[:10]:
        print(f"  FAILED: {failure}")
    print(f"  top self time (traced run, {traced['setup_s'] + traced['timed_s']:.2f} s): "
          f"{top_self_time(traced)}")
    print(f"  per-layer ledger: bench/out/{name}.layers.json, "
          f"phase trace: bench/out/{name}.trace.json")


# --------------------------------------------------------------------------- #
# Entry points                                                                #
# --------------------------------------------------------------------------- #
def run_timed(spec: dict, workload: str, seed: int | None, scale: float, seconds: float,
              traced: bool) -> int:
    """One ``--seconds`` invocation; prints the result object as the last line."""
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if traced:
        runs = untraced_runs(workload, seed, scale, seconds=seconds / 2, min_runs=1)
        runs.append(spawn(workload, seed, scale, traced=True))
        layers = layer_metrics(spec, runs[-1], runs[:-1])
        write_layer_files(workload, runs[-1], layers)
        wanted = spec["per_layer"]
        values = {metric["name"]: layers.get(metric["name"], 0) for metric in wanted}
    else:
        runs = untraced_runs(workload, seed, scale, seconds=seconds)
        wanted = spec["end_to_end"]
        per_run = [end_to_end_values(run) for run in runs]
        values = {metric["name"]: statistics.median(v[metric["name"]] for v in per_run)
                  for metric in wanted}
    check_digests(runs, golden)
    attempted, failed = tally(runs)
    for failure in sorted({f for run in runs for f in run["failures"]}):
        print(f"FAILED: {failure}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
                    for metric in wanted},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_sets(spec: dict, workloads: list[str], seed: int | None, scale: float,
             repeats: int, do_bless: bool) -> int:
    """Human-facing mode: every workload, a table each, files under bench/out/."""
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    units.update(VIRTUAL_UNITS)
    results: dict[str, dict] = {}
    all_ok = True
    for name in workloads:
        runs = untraced_runs(name, seed, scale, repeats=repeats)
        traced = spawn(name, seed, scale, traced=True)
        write_layer_files(name, traced, layer_metrics(spec, traced, runs))
        digest = check_digests(runs + [traced], {} if do_bless else golden)
        if do_bless:
            bless(runs + [traced], golden)
            digest = f"{runs[0]['digest'][:16]} blessed"
        per_run = [end_to_end_values(run) for run in runs]
        metrics = {metric: summarize([values[metric] for values in per_run])
                   for metric in per_run[0]}
        virtual = {key: summarize([run["virtual"][key] for run in runs])
                   for key in runs[0]["virtual"]}
        metrics.update({key: stats for key, stats in virtual.items() if key in VIRTUAL_UNITS})
        attempted, failed = tally(runs + [traced])
        all_ok = all_ok and failed == 0
        summary = {"runs": runs, "traced": traced, "metrics": metrics, "virtual": virtual,
                   "attempted": attempted, "failed": failed, "digest": digest}
        print_workload(name, summary, units)
        results[name] = {
            "seed": runs[0]["seed"], "scale": scale, "digest": digest,
            "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
            "metrics": metrics, "runs": runs,
            "traced_run": {key: value for key, value in traced.items() if key != "spans"},
        }
    OUT.mkdir(exist_ok=True)
    (OUT / "results.json").write_text(json.dumps({"workloads": results}, indent=2) + "\n")
    print("\nresults: bench/out/results.json")
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=None,
                        help="replace every workload's default seed")
    parser.add_argument("--repeats", type=int, default=5, help="untraced runs per workload")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply each run's operations (tests use a tiny scale)")
    parser.add_argument("--bless", action="store_true",
                        help="record the runs' digests in bench/golden.json")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed mode: run one workload for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="timed mode: report per-layer metrics from a traced run")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    workloads = args.workload or names
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {names}")
    try:
        if args.seconds is not None:
            if len(workloads) != 1:
                parser.error("--seconds measures exactly one --workload")
            return run_timed(spec, workloads[0], args.seed, args.scale, args.seconds,
                             bool(args.trace))
        return run_sets(spec, workloads, args.seed, args.scale, args.repeats, args.bless)
    except RunError as error:
        print(f"run failed: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
