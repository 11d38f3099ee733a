"""The benchmark's workloads; ``run.py`` runs each one in a fresh child process.

    python bench/workloads.py --workload NAME [--seed N] [--scale X] [--trace]

Builds the workload's inputs from the seed, runs it, checks the outputs from
outside the program, and prints one JSON object as the last line of stdout:
the run's wall-clock measurements, its virtual-clock results, a sha256 digest
of every virtual-clock output, and any failed check.  With ``--trace`` the
per-layer ledger of :mod:`layers` is installed for the run and its numbers
are included.

Each run is one process, so no schedule memo, engine pool or cost-model cache
survives from one run into the next; schedule registries stay in memory.
``run.py`` sets ``BENCH_SPAWN_MONOTONIC`` to the moment it started the
process, so set-up time includes interpreter start and imports.
"""

from __future__ import annotations

import time

START = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Callable  # noqa: E402

from layers import LAYERS, Ledger  # noqa: E402

from repro.cluster import ClusterConfig, run_cluster_serving  # noqa: E402
from repro.core import ScheduleValidationError  # noqa: E402
from repro.engine import Engine  # noqa: E402
from repro.frontend import load  # noqa: E402
from repro.obs import (  # noqa: E402
    Histogram,
    SamplingConfig,
    SamplingTracer,
    TimeSeriesRegistry,
    chrome_trace_json,
    default_alert_rules,
)
from repro.serve import (  # noqa: E402
    InferenceService,
    ServingConfig,
    TrafficConfig,
    TrafficGenerator,
)
from repro.serve.batcher import BatchPolicy  # noqa: E402

#: The paper's Table-2 networks, cheapest compile first: a ``--scale`` below 1
#: compiles a prefix of this list.
PAPER_MODELS = ("squeezenet", "inception_v3", "randwire", "nasnet_a")
LADDER = (1, 2, 4, 8)
POLICY = BatchPolicy(max_batch_size=8, max_wait_ms=2.0)
#: Layers every run installs: compile time and the start of a cluster replay
#: are read from them.  A traced run installs all of :data:`layers.LAYERS`.
BASE_LAYERS = ("engine", "cluster.loop")
#: Work counts read from the run's outputs at the end of a traced run; a
#: workload that does not exercise a counter's layer reports 0.
COUNTERS = (
    "passes.rewrites", "core.transitions", "core.cost_model.measurements",
    "core.cost_model.hit_ratio", "engine.block_searches", "engine.block_memo_hits",
    "serve.admission.rejected", "serve.autoscale.events", "obs.metrics.values_held",
    "obs.timeseries.windows", "obs.trace.retained", "obs.trace.peak_retained",
    "obs.export.events", "cluster.transfers",
)


@dataclass
class Outcome:
    """What one workload run measured, checked and produced."""

    #: Operations attempted: model compiles, or offered requests.
    ops: int
    #: Monotonic time the timed phase began, and its wall-clock length.
    timed_start: float
    timed_s: float
    #: Virtual-clock results; exact, so identical on every run of one seed.
    virtual: dict[str, float]
    digest: str
    failures: list[str] = field(default_factory=list)
    #: End-of-run counts for the per-layer ledger.
    counters: dict[str, float] = field(default_factory=dict)


# --------------------------------------------------------------------------- #
# Checks and digests                                                          #
# --------------------------------------------------------------------------- #
def _sha256(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _schedule_failures(compiled) -> list[str]:
    """The schedule is valid and places every schedulable operator exactly once."""
    graph = compiled.graph
    try:
        compiled.schedule.validate(graph)
    except ScheduleValidationError as error:
        return [f"{graph.name}: {error}"]
    placed = Counter(op for stage in compiled.schedule.stages for op in stage.operators)
    expected = set(graph.schedulable_names())
    wrong = sorted(op for op in expected | set(placed) if placed[op] != (op in expected))
    if wrong:
        return [f"{graph.name}: operators not in exactly one stage: {wrong[:5]}"]
    return []


def _compile_counters(ledger: Ledger) -> dict[str, float]:
    """Work counts of every compile the run made, from the compiled models."""
    unique = {id(compiled): compiled for compiled in ledger.results["engine"]}
    totals = Counter()
    for compiled in unique.values():
        schedule = compiled.stats.stage("schedule").detail
        totals["passes.rewrites"] += compiled.stats.stage("passes").detail["rewrites"]
        totals["core.transitions"] += schedule["transitions"]
        totals["core.cost_model.measurements"] += compiled.stats.num_measurements
        totals["engine.block_searches"] += schedule["block_searches"]
        totals["engine.block_memo_hits"] += schedule["block_memo_hits"]
    lookups = ledger.stats["core.cost_model"].calls if "core.cost_model" in ledger.stats else 0
    measurements = totals["core.cost_model.measurements"]
    totals["core.cost_model.hit_ratio"] = 1 - measurements / lookups if lookups else 0.0
    return dict(totals)


def _request_failures(offered: int, records, rejected) -> list[str]:
    """Conservation (offered = completed + rejected) and per-record causality.

    The traffic generator numbers requests ``0 .. offered - 1``; each id must
    finish exactly once, completed or rejected.
    """
    failures = []
    finished = sorted(
        [record.request.request_id for record in records]
        + [rejection.request.request_id for rejection in rejected]
    )
    if finished != list(range(offered)):
        failures.append(
            f"offered {offered} requests but {len(records)} completed and "
            f"{len(rejected)} were rejected (or request ids differ)"
        )
    for record in records:
        if not (record.request.arrival_ms <= record.batched_ms
                <= record.dispatch_ms <= record.completion_ms):
            failures.append(
                f"request {record.request.request_id}: arrival {record.request.arrival_ms} "
                f"batched {record.batched_ms} dispatch {record.dispatch_ms} "
                f"completion {record.completion_ms} out of order"
            )
            if len(failures) >= 5:
                break
    return failures


def _request_fields(request) -> tuple:
    return (request.request_id, request.model, request.arrival_ms, request.num_samples,
            request.deadline_ms, request.priority, request.burst_id)


def _requests_digest(records, rejected) -> str:
    """sha256 over every record and rejection field, sorted by request id."""
    lines = [
        (record.request.request_id, repr((
            _request_fields(record.request), record.batched_ms, record.dispatch_ms,
            record.completion_ms, record.executed_batch_size, record.worker_id, record.device,
        )))
        for record in records
    ] + [
        (rejection.request.request_id, repr((
            _request_fields(rejection.request), "rejected", rejection.rejected_ms,
            rejection.reason,
        )))
        for rejection in rejected
    ]
    return _sha256(line for _, line in sorted(lines))


def _serving_virtual(report, records, offered: int) -> dict[str, float]:
    met = sum(1 for record in records if record.deadline_met)
    return {
        "sim_p50_ms": report.latency.p50_ms,
        "sim_p99_ms": report.latency.p99_ms,
        "slo_attainment": met / offered,
        "completed": len(records),
    }


def _histogram_values(registries) -> int:
    """Observations the run's metric histograms hold at the end."""
    total = 0
    for registry in registries:
        for name in registry.names():
            metric = registry.get(name)
            if isinstance(metric, Histogram):
                total += sum(metric.count(**labels) for labels in metric.labelsets())
    return total


# --------------------------------------------------------------------------- #
# Workloads                                                                   #
# --------------------------------------------------------------------------- #
def compile_paper(ops: int, seed: int, ledger: Ledger) -> Outcome:
    """Cold compile of the paper's Table-2 networks at batch 1 on a v100."""
    with ledger:
        graphs = [load(model, batch_size=1) for model in PAPER_MODELS[:ops]]
        start = time.monotonic()
        compiled = [Engine("v100", passes=True, jobs=1).compile(graph) for graph in graphs]
        end = time.monotonic()
    failures = [failure for model in compiled for failure in _schedule_failures(model)]
    lines = []
    for model in compiled:
        lines.append(f"{model.graph.name} {model.latency_ms()!r}")
        lines.extend(
            f"  {stage.strategy.value} {' '.join(stage.operators)}"
            for stage in model.schedule.stages
        )
    return Outcome(
        ops=len(compiled), timed_start=start, timed_s=end - start,
        virtual={"sched_latency_ms": sum(model.latency_ms() for model in compiled)},
        digest=_sha256(lines), failures=failures, counters=_compile_counters(ledger),
    )


def _serve(serving: ServingConfig, traffic: TrafficConfig, ledger: Ledger, *,
           tracer=None, alerts=None, window_ms: float = 50.0) -> Outcome:
    """Warm a service and generate traffic (set-up), then replay it (timed)."""
    with ledger:
        service = InferenceService(serving, tracer=tracer, alerts=alerts, window_ms=window_ms)
        service.warmup()
        requests = TrafficGenerator(traffic).generate()
        start = time.monotonic()
        report = service.run(requests)
        exported = chrome_trace_json(tracer) if tracer is not None else ""
        end = time.monotonic()
    records, rejected = report.records, report.rejected
    metrics = report.metrics
    sampling = tracer.sampling_metadata()["records"] if tracer is not None else {}
    return Outcome(
        ops=len(requests), timed_start=start, timed_s=end - start,
        virtual=_serving_virtual(report, records, len(requests)),
        digest=_requests_digest(records, rejected),
        failures=_request_failures(len(requests), records, rejected),
        counters={
            **_compile_counters(ledger),
            "serve.admission.rejected": len(rejected),
            "serve.autoscale.events": len(report.scale_events),
            "obs.metrics.values_held": _histogram_values([metrics]),
            "obs.timeseries.windows": (
                metrics.window_index() + 1 if isinstance(metrics, TimeSeriesRegistry) else 0
            ),
            "obs.trace.retained": sampling.get("kept", 0),
            "obs.trace.peak_retained": sampling.get("peak_retained", 0),
            # Events, not bytes: the export carries wall-clock compile spans,
            # so its length in bytes differs from run to run.
            "obs.export.events": exported.count('"ph":'),
        },
    )


def serve_steady(ops: int, seed: int, ledger: Ledger) -> Outcome:
    """Poisson load at about 60% of a 3-worker mixed fleet's capacity."""
    serving = ServingConfig(
        model="squeezenet", fleet="k80:1,v100:2", batch_sizes=LADDER, policy=POLICY,
        admission="deadline",
    )
    traffic = TrafficConfig(
        model="squeezenet", pattern="poisson", num_requests=ops, rate_rps=3000.0,
        slo_ms=25.0, seed=seed,
    )
    return _serve(serving, traffic, ledger)


def serve_overload_traced(ops: int, seed: int, ledger: Ledger) -> Outcome:
    """Bursty priority overload on an elastic k80 pool, with the obs layer on."""
    serving = ServingConfig(
        model="squeezenet", devices=("k80",), batch_sizes=LADDER, policy=POLICY,
        admission="priority", autoscale="1:4",
    )
    traffic = TrafficConfig(
        model="squeezenet", pattern="bursty", num_requests=ops, burst_size=64,
        burst_gap_ms=30.0, priorities=(0, 1, 2), priority_weights=(0.2, 0.3, 0.5),
        slo_ms=20.0, seed=seed,
    )
    tracer = SamplingTracer(SamplingConfig(max_records=20000, head_every=100))
    return _serve(serving, traffic, ledger, tracer=tracer,
                  alerts=default_alert_rules(slo_ms=20.0), window_ms=20.0)


def cluster_partitioned(ops: int, seed: int, ledger: Ledger) -> Outcome:
    """squeezenet pipelined across 4 k80 hosts over a modeled link.

    The timed phase starts when ``ClusterLoop.run`` is entered; everything
    before it inside ``run_cluster_serving`` (load, partition, warm-up
    compiles, traffic generation) is set-up.
    """
    serving = ServingConfig(model="squeezenet", devices=("k80",), batch_sizes=LADDER,
                            policy=POLICY)
    cluster = ClusterConfig(serving=serving, num_hosts=4, partition=True,
                            router="partition-affinity", link="bw=12.5,lat=0.05")
    traffic = TrafficConfig(model="squeezenet", pattern="poisson", num_requests=ops,
                            rate_rps=1000.0, slo_ms=40.0, seed=seed)
    with ledger:
        result = run_cluster_serving(traffic, cluster)
        end = time.monotonic()
    start = next(begin for layer, begin, _ in ledger.spans if layer == "cluster.loop")
    records, rejected = result.report.records, result.report.rejected
    failures = _request_failures(ops, records, rejected)
    hops = result.plan.num_stages - 1
    if result.transfers.count != hops * len(records):
        failures.append(
            f"{result.transfers.count} transfers for {len(records)} completed requests; "
            f"expected {hops} each"
        )
    registries = [report.metrics for report in result.host_reports if report is not None]
    return Outcome(
        ops=ops, timed_start=start, timed_s=end - start,
        virtual=_serving_virtual(result.report, records, ops),
        digest=_requests_digest(records, rejected), failures=failures,
        counters={
            **_compile_counters(ledger),
            "serve.admission.rejected": len(rejected),
            "obs.metrics.values_held": _histogram_values(
                registries + [result.cluster_metrics]
            ),
            "cluster.transfers": result.transfers.count,
        },
    )


@dataclass(frozen=True)
class Workload:
    run: Callable[[int, int, Ledger], Outcome]
    #: Operations one run attempts at ``--scale 1``.
    size: int
    #: Default seed; ``None`` when the inputs do not depend on the seed.
    seed: int | None


WORKLOADS = {
    "compile-paper": Workload(compile_paper, size=len(PAPER_MODELS), seed=None),
    "serve-steady": Workload(serve_steady, size=80_000, seed=0),
    "serve-overload-traced": Workload(serve_overload_traced, size=5_000, seed=3),
    "cluster-partitioned": Workload(cluster_partitioned, size=16_000, seed=11),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    spawned = float(os.environ.get("BENCH_SPAWN_MONOTONIC", START))

    workload = WORKLOADS[args.workload]
    seed = workload.seed if args.seed is None else args.seed
    layers = LAYERS if args.trace else {name: LAYERS[name] for name in BASE_LAYERS}
    ledger = Ledger(layers, clock=time.monotonic, keep_results=("engine",))
    outcome = workload.run(max(1, round(workload.size * args.scale)), seed, ledger)

    result = {
        "workload": args.workload,
        "seed": seed if workload.seed is not None else None,
        "scale": args.scale,
        "traced": args.trace,
        "ops": outcome.ops,
        "setup_s": outcome.timed_start - spawned,
        "compile_s": ledger.stats["engine"].total_s,
        "timed_s": outcome.timed_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "virtual": outcome.virtual,
        "digest": outcome.digest,
        "failures": outcome.failures,
    }
    if args.trace:
        result["layers"] = {**ledger.metrics(), **dict.fromkeys(COUNTERS, 0),
                            **outcome.counters}
        result["spans"] = [
            ("setup", spawned, outcome.timed_start),
            ("timed", outcome.timed_start, outcome.timed_start + outcome.timed_s),
        ] + ledger.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
