"""Benchmark: SLO-aware serving — deadline admission vs admit-all under overload.

Serves one seeded bursty-overload workload (every request carrying a latency
budget) through ``run_slo_comparison`` on an elastic single-K80 pool.  The
acceptance bar of the SLO PR, asserted here:

* **deadline-aware admission strictly beats admit-all on SLO attainment** —
  shedding requests that are predicted to miss keeps the queue short enough
  for the admitted ones to finish in time, while admit-all lets the backlog
  snowball and the tail blow through every deadline;
* the deadline row's **p99 latency** stays an order of magnitude tighter;
* the **autoscaler resizes the pool at least once** during the scenario
  (the bursts push the backlog over the scale-up watermark).

A second stage serves a priority-mixed workload through the
priority-preemptive policy and asserts the class differentiation: the high
class attains more of its SLOs than the low class it jumps over.
"""

from conftest import fast_run, full_run, run_once

from repro.serve import (
    AutoscaleConfig,
    BatchPolicy,
    InferenceService,
    ScheduleRegistry,
    ServingConfig,
    TrafficConfig,
    TrafficGenerator,
    run_slo_comparison,
)

MODEL = "squeezenet"
DEVICE = "k80"
LADDER = (1, 2, 4, 8)
SLO_MS = 20.0
AUTOSCALE = AutoscaleConfig(min_workers=1, max_workers=3, scale_up_backlog_ms=5.0)


def _rows_by_admission(table):
    return {row["admission"]: row for row in table.rows}


def test_deadline_admission_beats_admit_all_under_bursty_overload(benchmark):
    num_requests = 640 if full_run() else (160 if fast_run() else 320)
    traffic = TrafficConfig(
        model=MODEL,
        pattern="bursty",
        num_requests=num_requests,
        burst_size=64,
        burst_gap_ms=30.0,
        slo_ms=SLO_MS,
        seed=0,
    )
    serving = ServingConfig(
        model=MODEL,
        devices=(DEVICE,),
        batch_sizes=LADDER,
        policy=BatchPolicy(max_batch_size=max(LADDER), max_wait_ms=2.0),
        autoscale=AUTOSCALE,
    )
    table = run_once(benchmark, run_slo_comparison, traffic, serving, ("admit-all", "deadline"))
    rows = _rows_by_admission(table)
    admit_all, deadline = rows["admit-all"], rows["deadline"]

    # Load shedding pays: strictly higher SLO attainment than admit-all,
    # even though every rejected request counts as a miss.
    assert deadline["attainment"] > admit_all["attainment"]
    # The tail is where admit-all dies: its backlog snowballs across bursts.
    assert deadline["p99_ms"] < admit_all["p99_ms"]
    # Shedding actually happened (this is an overload scenario)...
    assert deadline["rejected"] > 0
    # ...and the elastic pool actually resized during the scenario.
    assert admit_all["scale_events"] + deadline["scale_events"] > 0
    assert max(admit_all["peak_workers"], deadline["peak_workers"]) > 1


def test_priority_admission_protects_the_high_class(benchmark):
    num_requests = 640 if full_run() else (160 if fast_run() else 320)
    traffic = TrafficConfig(
        model=MODEL,
        pattern="bursty",
        num_requests=num_requests,
        burst_size=64,
        burst_gap_ms=30.0,
        slo_ms=SLO_MS,
        priorities=(0, 1),
        priority_weights=(0.7, 0.3),
        seed=5,
    ).capped_to(max(LADDER))

    def serve():
        config = ServingConfig(
            model=MODEL,
            devices=(DEVICE,),
            batch_sizes=LADDER,
            policy=BatchPolicy(max_batch_size=max(LADDER), max_wait_ms=2.0),
            admission="priority",
        )
        service = InferenceService(config, registry=ScheduleRegistry())
        return service.run(TrafficGenerator(traffic).generate())

    report = benchmark.pedantic(serve, rounds=1, iterations=1)
    slo = report.slo_summary
    print()
    print(slo.describe())
    by_priority = {row.priority: row for row in slo.per_priority}
    high, low = by_priority[1], by_priority[0]
    # The policy differentiates: the high class attains more of its SLOs...
    assert high.attainment > low.attainment
    # ...and sheds proportionally less of its traffic than the low class.
    assert high.rejected / high.offered < low.rejected / low.offered
