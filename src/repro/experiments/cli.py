"""Command-line entry point: ``ios-bench <experiment> [options]``.

Runs any of the paper-reproduction experiments and prints its table; optionally
writes CSV.  The ``serve`` subcommand instead runs the batch-aware inference
service of :mod:`repro.serve` under synthetic traffic.

Every IOS search — figure runs and serving alike — goes through
:class:`repro.engine.Engine`: the experiments share one
:class:`~repro.experiments.ExperimentContext`, which holds one engine per
(device, variant, pruning, profile), so ``ios-bench all`` compiles each
(model, batch, device) combination exactly once and later figures reuse the
cache.  Examples::

    ios-bench figure6 --device v100
    ios-bench table3-batch --model inception_v3
    ios-bench all --quick --csv-dir results/
    ios-bench serve --model inception_v3 --pattern poisson --requests 500
    ios-bench serve --compare --registry-dir schedules/ --csv-dir results/
    ios-bench serve --fleet k80:2,v100:4 --router earliest-finish
    ios-bench serve --fleet k80:2,v100:4 --compare   # fleet-comparison table
    ios-bench serve --slo 20 --admission deadline --autoscale 1:3
    ios-bench serve --slo 20 --compare               # admission-policy table
    ios-bench serve --trace trace.json --metrics metrics.json
    ios-bench serve --slo 20 --watch --alerts        # live dashboard + alerting
    ios-bench serve --trace t.json --trace-sample budget=20000,head=50
    ios-bench trace trace.json                       # validate + summarise
"""

from __future__ import annotations

import argparse
import importlib
import sys
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from ..checks import UnknownNameError
from ..tables import ExperimentTable

if TYPE_CHECKING:
    from .runner import ExperimentContext

__all__ = ["main", "serve_main", "trace_main", "EXPERIMENTS", "QUICK_MODELS"]

#: Model subset used with ``--quick`` (fast enough for CI smoke runs).
QUICK_MODELS = ["inception_v3", "squeezenet"]


def _registry_arg(registry) -> Callable[[str], str]:
    """argparse type resolving a flag through a name :class:`~repro.checks.Registry`.

    Accepts every spelling the API accepts (``Round_Robin``, ``IOS_Both``)
    and turns an unknown name into a clean argparse error listing the
    registered names.
    """

    def resolve(value: str) -> str:
        try:
            return registry.canonical(value)
        except UnknownNameError as error:
            raise argparse.ArgumentTypeError(str(error)) from None

    return resolve


def _choices(registry) -> str:
    """The ``{a,b,...}`` metavar argparse shows for a ``choices`` flag."""
    return "{" + ",".join(registry.names()) + "}"


def _run(target: str, **kwargs) -> ExperimentTable:
    """Import the experiment's ``module:function`` only now and run it."""
    module, _, function = target.partition(":")
    return getattr(importlib.import_module(f".{module}", __package__), function)(**kwargs)


def _experiments(
    quick: bool, context: ExperimentContext | None
) -> dict[str, Callable[[], ExperimentTable]]:
    """Every experiment as a thunk running on the one shared ``context``."""
    models = QUICK_MODELS if quick else None
    ctx = dict(context=context)
    return {
        "figure1": lambda: _run("fig01_trends:run_figure1", **ctx),
        "figure2": lambda: _run("fig02_motivating:run_figure2", **ctx),
        "table1": lambda: _run("tab01_complexity:run_table1", models=models, **ctx),
        "table2": lambda: _run("tab02_networks:run_table2", models=models, **ctx),
        "figure6": lambda: _run("fig06_schedules:run_figure6", models=models, **ctx),
        "figure7": lambda: _run("fig07_frameworks:run_figure7", models=models, **ctx),
        "figure8": lambda: _run("fig08_active_warps:run_figure8", **ctx),
        "figure9": lambda: _run("fig09_pruning:run_figure9", models=("inception_v3",) if quick else ("inception_v3", "nasnet_a"), **ctx),
        "table3-batch": lambda: _run("tab03_specialization:run_table3_batch", batch_sizes=(1, 32) if quick else (1, 32, 128), **ctx),
        "table3-device": lambda: _run("tab03_specialization:run_table3_device", **ctx),
        "figure10": lambda: _run("fig10_case_study:run_figure10", **ctx),
        "figure11": lambda: _run("fig11_batch_sizes:run_figure11", batch_sizes=(1, 16, 32) if quick else (1, 16, 32, 64, 128), **ctx),
        "figure12": lambda: _run("fig12_intra_vs_inter:run_figure12", models=models, **ctx),
        "figure13": lambda: _run("fig13_worst_case:run_figure13"),
        "figure14": lambda: _run("fig06_schedules:run_figure14", models=models, **ctx),
        "figure15": lambda: _run("fig07_frameworks:run_figure15", models=models, **ctx),
        "figure16": lambda: _run("fig16_blockwise:run_figure16", **ctx),
        "resnet-note": lambda: _run("resnet_note:run_resnet_note", **ctx),
        "ablation-cost-model": lambda: _run("ablations:run_cost_model_ablation", **ctx),
        "ablation-blockwise": lambda: _run("ablations:run_blockwise_ablation", **ctx),
        "ablation-passes": lambda: _run(
            "ablation_passes:run_pass_ablation",
            models=("inception_v3", "squeezenet") if quick else ("inception_v3", "nasnet_a"),
            **ctx,
        ),
    }


#: Stable list of experiment names shown in ``--help`` and accepted by ``run``.
EXPERIMENTS = sorted(_experiments(quick=True, context=None))


def _write_csv(table: ExperimentTable, csv_dir: str | None) -> None:
    """Export ``table`` to ``<csv_dir>/<experiment_id>.csv`` when requested."""
    if csv_dir is None:
        return
    path = Path(csv_dir) / f"{table.experiment_id}.csv"
    table.to_csv(path)
    print(f"wrote {path}", file=sys.stderr)


def _validate_topology_flags(args, parser) -> None:
    """Reject per-worker pool flags when a higher-level topology owns the pool.

    Three pool declarations share this check so their conflict rules cannot
    drift: ``--device``/``--num-workers`` spell out one homogeneous pool,
    ``--fleet`` declares the whole pool as device groups, and ``--cluster``
    replicates a pool per host (``--fleet`` then declares *each host's*
    workers).  The higher-level flag always owns the pool, so the low-level
    spellings are rejected rather than silently ignored.
    """
    per_worker = args.device is not None or args.num_workers is not None
    if args.fleet is not None and per_worker:
        parser.error("--fleet declares the whole pool; "
                     "drop --device/--num-workers")
    if getattr(args, "cluster", None) is not None and per_worker:
        parser.error("--cluster declares one pool per host (use --fleet for "
                     "each host's workers); drop --device/--num-workers")


def serve_main(argv: list[str] | None = None) -> int:
    """Entry point of the ``ios-bench serve`` subcommand."""
    # Imported lazily: repro.serve pulls in the whole serving stack, which the
    # figure/table experiments never need.
    from ..checks import require_number
    from ..cluster import CLUSTER_ROUTERS, ClusterConfig, LinkModel, run_cluster_serving
    from ..core import IOSVariant
    from ..serve import (
        ADMISSION_POLICIES,
        ROUTERS,
        BatchPolicy,
        FleetSpec,
        ServingConfig,
        TrafficConfig,
        run_fleet_comparison,
        run_serving,
        run_serving_comparison,
        run_slo_comparison,
    )

    parser = argparse.ArgumentParser(
        prog="ios-bench serve",
        description="Serve synthetic traffic with batch-size-specialised IOS schedules "
        "on a pool of simulated devices (optionally a mixed-device fleet).",
    )
    parser.add_argument("--model", default="inception_v3",
                        help="model to serve: a zoo name or a model-file path "
                             "(anything repro.frontend.load accepts)")
    parser.add_argument("--device", default=None,
                        help="device preset for a homogeneous pool (default: v100; "
                        "conflicts with --fleet)")
    parser.add_argument("--num-workers", type=int, default=None,
                        help="number of simulated devices in the pool (default: 2; "
                        "conflicts with --fleet)")
    parser.add_argument("--fleet", default=None, metavar="DEV:N[,DEV:N...]",
                        help="mixed-device worker groups, e.g. 'k80:2,v100:4'; "
                        "with --compare, runs the mixed-vs-homogeneous fleet table")
    parser.add_argument("--router", default="earliest-finish", type=_registry_arg(ROUTERS),
                        metavar=_choices(ROUTERS),
                        help="routing policy dispatching batches to workers "
                        "(default: earliest-finish, the device-aware policy)")
    parser.add_argument("--cluster", type=int, default=None, metavar="N",
                        help="replay the trace across N simulated hosts, each "
                        "running the --fleet pool (default v100:2 per host); "
                        "--cluster 1 reproduces the single-host loop exactly")
    parser.add_argument("--partition", action="store_true",
                        help="cut the model into one pipeline stage per host "
                        "(requires --cluster > 1); stage handoffs pay modeled "
                        "--link transfer costs")
    parser.add_argument("--cluster-router", default="earliest-finish-host",
                        type=_registry_arg(CLUSTER_ROUTERS),
                        metavar=_choices(CLUSTER_ROUTERS),
                        help="cluster-level policy placing arrivals on hosts "
                        "(default: earliest-finish-host)")
    parser.add_argument("--link", default=None, metavar="SPEC",
                        help="inter-host link model, e.g. "
                        "'bw=12.5,lat=0.05,ingress=1.0' (GB/s and ms; ingress "
                        "serialises each host's client-facing NIC)")
    parser.add_argument("--host-memory", default=None, metavar="GB[,GB...]",
                        help="per-host weight-memory bound in GB: one value "
                        "for every host, or one comma-separated value per host")
    parser.add_argument("--pattern", choices=["poisson", "bursty", "uniform"],
                        default=None,
                        help="synthetic arrival pattern (default: poisson; "
                        "--compare runs poisson and bursty unless one is given)")
    parser.add_argument("--requests", type=int, default=200,
                        help="number of requests to generate")
    parser.add_argument("--rate", type=float, default=200.0,
                        help="arrival rate in requests/second (poisson/uniform)")
    parser.add_argument("--burst-size", type=int, default=16,
                        help="requests per burst (bursty pattern)")
    parser.add_argument("--burst-gap-ms", type=float, default=50.0,
                        help="gap between bursts in ms (bursty pattern)")
    parser.add_argument("--batch-sizes", default="1,2,4,8,16",
                        help="comma-separated ladder of specialised batch sizes")
    parser.add_argument("--max-wait-ms", type=float, default=None,
                        help="dynamic batcher wait bound in ms (default: 5.0; "
                        "meaningless with --no-batching)")
    parser.add_argument("--variant", default="ios-both", type=_registry_arg(IOSVariant),
                        metavar="{ios-both,ios-parallel,ios-merge}",
                        help="IOS variant compiled on registry misses "
                        "(drifted spellings like 'both' or 'IOS_Merge' are "
                        "normalised)")
    parser.add_argument("--registry-dir", default=None,
                        help="directory persisting optimised schedules across runs")
    parser.add_argument("--compile-jobs", type=int, default=1, metavar="N",
                        help="worker processes for cold compile searches "
                        "(default: 1, serial; 0 uses every CPU; schedules "
                        "are identical either way)")
    parser.add_argument("--passes", action=argparse.BooleanOptionalAction, default=False,
                        help="run the repro.passes rewrite pipeline on served graphs "
                        "(schedule keys fingerprint the rewritten graph)")
    parser.add_argument("--slo", type=float, default=None, metavar="MS",
                        help="latency budget attached to every generated request "
                        "(enables SLO accounting; with --compare, runs the "
                        "admission-policy comparison table)")
    parser.add_argument("--admission", default="admit-all",
                        type=_registry_arg(ADMISSION_POLICIES),
                        metavar=_choices(ADMISSION_POLICIES),
                        help="admission policy gating arrivals "
                        "(default: admit-all, the no-shedding baseline)")
    parser.add_argument("--autoscale", default=None, metavar="MIN:MAX",
                        help="elastic worker-pool bounds, e.g. '1:4'; the pool "
                        "starts at its declared size and scales within the bounds")
    parser.add_argument("--seed", type=int, default=0, help="traffic seed")
    parser.add_argument("--no-batching", action="store_true",
                        help="serve every request by itself (baseline)")
    parser.add_argument("--compare", action="store_true",
                        help="print the dynamic-vs-unbatched comparison table instead")
    parser.add_argument("--csv-dir", default=None,
                        help="directory to write the comparison CSV to (with --compare)")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="record the run and write a Chrome-trace/Perfetto JSON "
                        "(compile stages, request lifecycles, per-worker kernel "
                        "activity); the report itself is unchanged")
    parser.add_argument("--metrics", default=None, metavar="FILE",
                        help="write the run's metrics-registry snapshot as JSON "
                        "(counters, gauges, histogram quantiles)")
    parser.add_argument("--watch", action="store_true",
                        help="print one live dashboard line per metrics window "
                        "to stderr (rps, p99, SLO attainment, queue depth, "
                        "firing alerts)")
    parser.add_argument("--window-ms", type=float, default=50.0, metavar="MS",
                        help="live-metrics window width in virtual ms "
                        "(default: 50; used by --watch/--alerts)")
    parser.add_argument("--alerts", nargs="?", const="default", default=None,
                        metavar="SPEC",
                        help="evaluate alert rules on every closed metrics "
                        "window, e.g. 'burn-rate=0.95,queue=32,p99=25'; bare "
                        "--alerts uses the default rule set (transitions land "
                        "in the report and the trace)")
    parser.add_argument("--trace-sample", nargs="?", const="default",
                        default=None, metavar="SPEC",
                        help="sample the recorded trace under a span budget, "
                        "e.g. 'budget=20000,head=50,track=4000'; bare "
                        "--trace-sample uses defaults; SLO-missed and "
                        "rejected requests are always kept (requires --trace)")
    args = parser.parse_args(argv)

    # Every knob is checked by the config that declares it, which names the
    # field in its ValueError; the CLI only turns that into a usage error.
    pattern = args.pattern or (
        "bursty" if args.compare and args.slo is not None else "poisson"
    )
    try:
        traffic = TrafficConfig(
            model=args.model, pattern=pattern,
            num_requests=args.requests, rate_rps=args.rate,
            burst_size=args.burst_size, burst_gap_ms=args.burst_gap_ms,
            slo_ms=args.slo, seed=args.seed,
        )
    except ValueError as error:
        parser.error(f"bad traffic configuration: {error}")
    try:
        batch_sizes = tuple(int(part) for part in args.batch_sizes.split(",") if part.strip())
    except ValueError:
        parser.error(f"--batch-sizes must be comma-separated integers, got {args.batch_sizes!r}")
    max_wait_ms = 5.0 if args.max_wait_ms is None else args.max_wait_ms
    try:
        pool = dict(fleet=args.fleet) if args.fleet is not None else dict(
            devices=FleetSpec.homogeneous(
                "v100" if args.device is None else args.device,
                2 if args.num_workers is None else args.num_workers,
            ).device_names()
        )
        serving = ServingConfig(
            model=args.model, batch_sizes=batch_sizes, variant=args.variant,
            registry_root=args.registry_dir, passes=args.passes, router=args.router,
            admission=args.admission, autoscale=args.autoscale,
            compile_jobs=args.compile_jobs, **pool,
        )
        # The ladder is known good here, so the batching policy can be sized
        # from it; a bad --max-wait-ms fails even when --no-batching ignores it.
        policy = BatchPolicy(max_batch_size=max(batch_sizes), max_wait_ms=max_wait_ms)
        serving = replace(serving, policy=(
            BatchPolicy(max_batch_size=1, max_wait_ms=0.0) if args.no_batching else policy
        ))
        # No windowed registry is built without --alerts/--watch, so the
        # window is checked here.
        require_number("window_ms", args.window_ms, positive=True)
    except ValueError as error:
        parser.error(f"bad serving configuration: {error}")
    cluster = None
    if args.cluster is not None:
        host_memory = None
        if args.host_memory is not None:
            try:
                host_memory = tuple(
                    float(part) for part in args.host_memory.split(",") if part.strip()
                )
            except ValueError:
                parser.error(f"--host-memory must be comma-separated numbers in GB, "
                             f"got {args.host_memory!r}")
            if len(host_memory) == 1:
                host_memory = host_memory[0]
        try:
            cluster = ClusterConfig(
                serving=serving, num_hosts=args.cluster,
                host_memory_gb=host_memory, partition=args.partition,
                router=args.cluster_router,
                link=LinkModel() if args.link is None else args.link,
            )
        except ValueError as error:
            parser.error(f"bad cluster configuration: {error}")

    _validate_topology_flags(args, parser)
    if args.partition and (cluster is None or cluster.num_hosts < 2):
        parser.error("--partition cuts the model across hosts; "
                     "add --cluster N with N > 1")
    if cluster is None and (args.link is not None or args.host_memory is not None):
        parser.error("--link/--host-memory configure a cluster run; "
                     "add --cluster N")
    if cluster is not None and args.compare:
        parser.error("--cluster replays a single run; drop --compare")
    if args.watch and cluster is not None and cluster.num_hosts > 1:
        print("note: --watch follows a single host's live windows; "
              "ignoring it for a multi-host cluster", file=sys.stderr)
    if args.max_wait_ms is not None and args.no_batching:
        print("note: --no-batching serves every request immediately; "
              "ignoring --max-wait-ms", file=sys.stderr)
    if args.trace_sample is not None and args.trace is None:
        parser.error("--trace-sample configures the trace recorder; "
                     "add --trace FILE")
    if args.csv_dir is not None and not args.compare:
        print("note: --csv-dir only writes the --compare table; ignoring it",
              file=sys.stderr)
    if args.compare and (args.trace is not None or args.metrics is not None):
        print("note: --trace/--metrics record a single run; ignoring them "
              "with --compare", file=sys.stderr)
    if args.compare and (args.alerts is not None or args.watch):
        print("note: --alerts/--watch observe a single run; ignoring them "
              "with --compare", file=sys.stderr)
    if args.compare:
        if args.no_batching:
            parser.error("--no-batching conflicts with --compare "
                         "(the comparison already includes the unbatched baseline)")
        if args.slo is not None:
            # Admission-policy comparison: the same deadline-carrying workload
            # through every policy, admit-all as the baseline.
            if serving.fleet is not None:
                parser.error("--slo --compare runs on a homogeneous pool; "
                             "drop --fleet")
            admissions = (
                ("admit-all", args.admission)
                if args.admission != "admit-all" else ("admit-all", "deadline")
            )
            table = run_slo_comparison(traffic, serving, admissions)
        else:
            if args.admission != "admit-all" or args.autoscale is not None:
                print("note: the dynamic-vs-unbatched and fleet comparisons run "
                      "admit-all on fixed pools; ignoring --admission/--autoscale "
                      "(add --slo for the admission-policy comparison)",
                      file=sys.stderr)
            # The fleet comparison pits a mixed fleet against homogeneous
            # fleets of each member device type.
            compare = run_fleet_comparison if serving.fleet is not None else run_serving_comparison
            table = compare(
                traffic, replace(serving, admission="admit-all", autoscale=None),
                (args.pattern,) if args.pattern else ("poisson", "bursty"),
            )
        print(table.to_text())
        _write_csv(table, args.csv_dir)
        return 0

    try:
        capped = traffic.capped_to(max(batch_sizes))
    except ValueError:
        parser.error(
            f"--batch-sizes maximum {max(batch_sizes)} cannot hold any request "
            f"of the traffic sample mix {traffic.sample_sizes}"
        )
    if capped is not traffic:
        print(
            f"note: sample mix capped to the ladder maximum {max(batch_sizes)} "
            f"(sizes {capped.sample_sizes} of {traffic.sample_sizes})",
            file=sys.stderr,
        )
        traffic = capped
    alerts = None
    if args.alerts is not None:
        from ..obs import parse_alert_rules

        try:
            alerts = parse_alert_rules(args.alerts, slo_ms=args.slo)
        except ValueError as error:
            parser.error(f"bad --alerts spec: {error}")
    tracer = None
    if args.trace is not None:
        if args.trace_sample is not None:
            from ..obs import SamplingTracer, parse_sampling_spec

            try:
                tracer = SamplingTracer(parse_sampling_spec(args.trace_sample))
            except ValueError as error:
                parser.error(f"bad --trace-sample spec: {error}")
        else:
            from ..obs import Tracer

            tracer = Tracer()
    if cluster is not None:
        try:
            cluster_report = run_cluster_serving(
                traffic, cluster, tracer=tracer,
                alerts=alerts, watch=True if args.watch else None,
                window_ms=args.window_ms,
            )
        except ValueError as error:
            parser.error(str(error))
        print(cluster_report.describe())
        report = cluster_report.report
        metrics_registry = (
            report.metrics if report.metrics is not None
            else cluster_report.cluster_metrics
        )
    else:
        report = run_serving(
            traffic, serving, tracer=tracer,
            alerts=alerts, watch=True if args.watch else None,
            window_ms=args.window_ms,
        )
        print(report.describe())
        metrics_registry = report.metrics
    if tracer is not None:
        from ..obs import write_chrome_trace

        path = write_chrome_trace(tracer, args.trace)
        print(f"wrote {path} ({len(tracer)} records; open in ui.perfetto.dev)",
              file=sys.stderr)
        metadata = getattr(tracer, "sampling_metadata", None)
        if metadata is not None:
            meta = metadata()
            kept = meta["requests"]
            print(f"  sampled: kept {kept['kept']}/{kept['total']} requests; "
                  f"{meta['records']['kept']} records kept, "
                  f"{meta['records']['dropped']} dropped "
                  f"(request-span budget {meta['budget']})", file=sys.stderr)
    if args.metrics is not None and metrics_registry is not None:
        metrics_path = metrics_registry.write(args.metrics)
        print(f"wrote {metrics_path}", file=sys.stderr)
    return 0


def trace_main(argv: list[str] | None = None) -> int:
    """Entry point of the ``ios-bench trace`` subcommand.

    Validates a Chrome-trace JSON file (as written by ``ios-bench serve
    --trace``) against the exporter's schema and prints a compact summary:
    event counts per phase, the traced time extent, the track layout, every
    counter series with its last sampled values, and — for traces recorded
    through a :class:`~repro.obs.SamplingTracer` — the kept/dropped span
    accounting embedded in ``otherData.sampling``.
    """
    import json
    from collections import Counter

    from ..obs import validate_chrome_trace

    parser = argparse.ArgumentParser(
        prog="ios-bench trace",
        description="Validate and summarise a Chrome-trace/Perfetto JSON file "
        "written by 'ios-bench serve --trace'.",
    )
    parser.add_argument("path", help="trace JSON file to inspect")
    parser.add_argument("--quiet", action="store_true",
                        help="only report validity, no summary")
    args = parser.parse_args(argv)

    try:
        with open(args.path) as handle:
            data = json.load(handle)
    except OSError as error:
        print(f"error: cannot read {args.path}: {error}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as error:
        print(f"error: {args.path} is not valid JSON: {error}", file=sys.stderr)
        return 1

    problems = validate_chrome_trace(data)
    if problems:
        print(f"{args.path}: INVALID — {len(problems)} problem(s)")
        for problem in problems:
            print(f"  - {problem}")
        return 1

    print(f"{args.path}: OK")
    if args.quiet:
        return 0
    events = data["traceEvents"]
    phases = Counter(event["ph"] for event in events)
    timed = [event for event in events if event["ph"] != "M"]
    start_us = min(event["ts"] for event in timed)
    end_us = max(event["ts"] + event.get("dur", 0.0) for event in timed)
    print(f"  events: {len(events)} (spans={phases.get('X', 0)}, "
          f"instants={phases.get('i', 0)}, counters={phases.get('C', 0)}, "
          f"async={phases.get('b', 0) + phases.get('e', 0)}, "
          f"metadata={phases.get('M', 0)})")
    print(f"  extent: {start_us / 1e3:.3f} .. {end_us / 1e3:.3f} ms")
    # Rebuild the row layout from the metadata events, in emitted order.
    process_names = {
        event["pid"]: event["args"]["name"]
        for event in events
        if event["ph"] == "M" and event["name"] == "process_name"
    }
    rows = Counter(
        (event["pid"], event["tid"]) for event in timed
    )
    print(f"  tracks: {sum(1 for e in events if e['ph'] == 'M' and e['name'] == 'thread_name')}")
    for event in events:
        if event["ph"] == "M" and event["name"] == "thread_name":
            process = process_names.get(event["pid"], f"pid {event['pid']}")
            count = rows.get((event["pid"], event["tid"]), 0)
            print(f"    {process}/{event['args']['name']}: {count} events")
    # Counter series: last sampled values, in first-seen order.  (These used
    # to be lumped into the bare phase count and never itemised.)
    counters: dict[str, dict] = {}
    for event in events:
        if event["ph"] == "C":
            counters[event["name"]] = event.get("args", {})
    if counters:
        print(f"  counters: {len(counters)} series (last values)")
        for name, values in counters.items():
            rendered = ", ".join(
                f"{key}={value:g}" for key, value in sorted(values.items())
            )
            print(f"    {name}: {rendered}")
    sampling = data.get("otherData", {}).get("sampling") if isinstance(
        data.get("otherData"), dict
    ) else None
    if sampling:
        requests = sampling.get("requests", {})
        records = sampling.get("records", {})
        print(f"  sampling: kept {requests.get('kept', 0)}/"
              f"{requests.get('total', 0)} requests "
              f"({requests.get('slo_miss_kept', 0)} SLO-miss, "
              f"{requests.get('rejected_kept', 0)} rejected, "
              f"{requests.get('head_kept', 0)} head); "
              f"{records.get('kept', 0)} records kept, "
              f"{records.get('dropped', 0)} dropped "
              f"(budget {sampling.get('budget')})")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (installed as ``ios-bench``)."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:1] == ["serve"]:
        return serve_main(argv[1:])
    if argv[:1] == ["trace"]:
        return trace_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="ios-bench",
        description="Reproduce tables and figures of 'IOS: Inter-Operator Scheduler for CNN "
        "Acceleration' on the simulated GPU.",
        epilog="'ios-bench serve ...' (subcommand first) runs the inference "
        "service instead of an experiment (ios-bench serve --help); "
        "'ios-bench trace FILE' validates and summarises a trace JSON "
        "written by 'ios-bench serve --trace'.",
    )
    parser.add_argument(
        "experiment",
        choices=EXPERIMENTS + ["all"],
        help="which experiment to run ('all' runs every one)",
    )
    parser.add_argument("--device", default="v100", help="device preset (default: v100)")
    parser.add_argument(
        "--quick", action="store_true",
        help="restrict heavy experiments to a small model subset / fewer batch sizes",
    )
    parser.add_argument(
        "--passes", action=argparse.BooleanOptionalAction, default=False,
        help="run the repro.passes rewrite pipeline on every model graph the "
        "experiments build (ablation-passes compares both forms regardless)",
    )
    parser.add_argument("--csv-dir", default=None, help="directory to write CSV outputs to")
    args = parser.parse_args(argv)

    from .runner import default_context

    try:
        context = default_context(args.device, passes=args.passes)
    except UnknownNameError as error:
        parser.error(str(error))
    registry = _experiments(quick=args.quick, context=context)
    names = EXPERIMENTS if args.experiment == "all" else [args.experiment]
    for name in names:
        table = registry[name]()
        print(table.to_text())
        print()
        _write_csv(table, args.csv_dir)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
