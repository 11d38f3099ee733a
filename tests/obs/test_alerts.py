"""Tests for alert rules: thresholds, burn rate, the manager's transitions."""

from __future__ import annotations

import pytest

from repro.obs import (
    AlertManager,
    BurnRateRule,
    QueueSaturationRule,
    ThresholdRule,
    TimeSeriesRegistry,
    alerts_snapshot,
    default_alert_rules,
    parse_alert_rules,
)


def _slo_window(registry: TimeSeriesRegistry, met: float, missed: float) -> None:
    """Record one window's worth of SLO outcomes, then advance past it."""
    if met:
        registry.counter("serve.slo.met").inc(met)
    if missed:
        registry.counter("serve.slo.missed").inc(missed)
    registry.advance(registry.now_ms + registry.window_ms)


class TestThresholdRule:
    def test_counter_sum_breaches_above_threshold(self):
        registry = TimeSeriesRegistry(window_ms=10.0)
        registry.counter("errors").inc(5.0)
        rule = ThresholdRule("errors-high", "errors", "sum", 3.0)
        assert rule.observe(registry, registry.window_span(0)) == 5.0

    def test_missing_metric_never_breaches(self):
        registry = TimeSeriesRegistry(window_ms=10.0)
        rule = ThresholdRule("ghost", "absent", "sum", 0.0)
        assert rule.observe(registry, registry.window_span(0)) is None

    def test_for_windows_requires_a_streak(self):
        registry = TimeSeriesRegistry(window_ms=10.0)
        histogram = registry.histogram("serve.latency_ms")
        rule = ThresholdRule(
            "p99-latency", "serve.latency_ms", "p99", 20.0, for_windows=2
        )
        histogram.observe(30.0)
        registry.advance(10.0)
        assert rule.observe(registry, registry.window_span(0)) is None  # streak 1
        histogram.observe(35.0)
        registry.advance(20.0)
        assert rule.observe(registry, registry.window_span(1)) is not None
        histogram.observe(5.0)
        registry.advance(30.0)
        # A clean window resets the streak.
        assert rule.observe(registry, registry.window_span(2)) is None

    def test_gauge_max_stat_and_operator(self):
        registry = TimeSeriesRegistry(window_ms=10.0)
        gauge = registry.gauge("depth")
        gauge.set(31.0)
        gauge.set(4.0)
        at_31 = ThresholdRule("sat", "depth", "max", 31.0, op=">=")
        above_31 = ThresholdRule("sat", "depth", "max", 31.0, op=">")
        span = registry.window_span(0)
        assert at_31.observe(registry, span) == 31.0
        assert above_31.observe(registry, span) is None

    def test_bad_operator_rejected(self):
        with pytest.raises(ValueError, match="comparison"):
            ThresholdRule("x", "m", "sum", 1.0, op="!=")

    def test_stat_no_kind_has_is_rejected(self):
        with pytest.raises(ValueError, match="no metric kind has the window stat 'bogus'"):
            ThresholdRule("x", "m", "bogus", 1.0)

    def test_stat_the_family_lacks_raises_naming_it(self):
        # 'max' is a gauge stat, so the rule builds; a histogram cannot read it.
        registry = TimeSeriesRegistry(window_ms=10.0)
        registry.histogram("serve.latency_ms").observe(3.0)
        rule = ThresholdRule("x", "serve.latency_ms", "max", 1.0)
        with pytest.raises(ValueError, match=(
            r"histogram 'serve.latency_ms' has no window stat 'max'; "
            r"a histogram supports count, sum, mean, p<q>"
        )):
            AlertManager([rule]).evaluate(registry, registry.window_span(0))


#: Rule knobs that must fail where they are declared, naming the field.
BAD_RULE_KNOBS = {
    "nan-threshold": ("threshold", lambda: ThresholdRule(
        "x", "serve.latency_ms", "p99", float("nan"))),
    "inf-threshold": ("threshold", lambda: ThresholdRule("x", "m", "sum", float("inf"))),
    "inf-queue-limit": ("threshold", lambda: QueueSaturationRule("q", float("inf"))),
    "bool-for-windows": ("for_windows", lambda: ThresholdRule(
        "x", "m", "sum", 1.0, for_windows=True)),
    "float-for-windows": ("for_windows", lambda: QueueSaturationRule(
        "q", 32.0, for_windows=1.5)),
    "nan-factor": ("factor", lambda: BurnRateRule("b", 0.9, factor=float("nan"))),
    "zero-factor": ("factor", lambda: BurnRateRule("b", 0.9, factor=0.0)),
    "bool-short-windows": ("short_windows", lambda: BurnRateRule(
        "b", 0.9, short_windows=True)),
    "float-long-windows": ("long_windows", lambda: BurnRateRule(
        "b", 0.9, long_windows=8.0)),
}


@pytest.mark.parametrize("field,build", BAD_RULE_KNOBS.values(), ids=list(BAD_RULE_KNOBS))
def test_rule_knobs_are_checked_where_declared(field, build):
    with pytest.raises(ValueError, match=field):
        build()


class TestBurnRateRule:
    def test_fires_only_when_both_spans_burn(self):
        # Target 0.9 -> error budget 10%; factor 2 fires at >= 20% misses.
        registry = TimeSeriesRegistry(window_ms=10.0)
        rule = BurnRateRule("burn", 0.9, short_windows=2, long_windows=4)
        for window in range(4):
            _slo_window(registry, met=9.0, missed=1.0)  # burn 1.0: healthy
            assert rule.observe(registry, registry.window_span(window)) is None
        # Two hot windows push the short span over 2x, but the long span
        # still remembers the healthy tail.
        _slo_window(registry, met=7.0, missed=3.0)
        assert rule.observe(registry, registry.window_span(4)) is None
        _slo_window(registry, met=5.0, missed=5.0)
        value = rule.observe(registry, registry.window_span(5))
        assert value is not None and value >= 2.0

    def test_firing_and_resolution_are_deterministic(self):
        def run() -> list[tuple[str, float]]:
            registry = TimeSeriesRegistry(window_ms=10.0)
            manager = AlertManager(
                [BurnRateRule("burn", 0.9, short_windows=1, long_windows=2)]
            )
            outcomes = [(10, 0), (5, 5), (4, 6), (9, 1), (10, 0), (10, 0)]
            events = []
            for window, (met, missed) in enumerate(outcomes):
                _slo_window(registry, met, missed)
                events += manager.evaluate(registry, registry.window_span(window))
            return [(event.state, event.time_ms) for event in events]

        first, second = run(), run()
        assert first == second
        assert first == [("firing", 20.0), ("resolved", 40.0)]

    def test_empty_spans_do_not_breach(self):
        registry = TimeSeriesRegistry(window_ms=10.0)
        rule = BurnRateRule("burn", 0.9)
        registry.advance(10.0)
        assert rule.observe(registry, registry.window_span(0)) is None

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError, match="target"):
            BurnRateRule("burn", 1.0)
        with pytest.raises(ValueError, match="windows"):
            BurnRateRule("burn", 0.9, short_windows=3, long_windows=2)


class TestAlertManager:
    def _registry_with_queue(self, depth: float) -> TimeSeriesRegistry:
        registry = TimeSeriesRegistry(window_ms=10.0)
        registry.gauge("serve.queue.depth").set(depth)
        return registry

    def test_transitions_fire_once_per_state_change(self):
        registry = TimeSeriesRegistry(window_ms=10.0)
        manager = AlertManager(
            [ThresholdRule("errors-high", "errors", "sum", 0.0)]
        )
        counter = registry.counter("errors")
        events = []
        for window in range(3):
            counter.inc()
            registry.advance((window + 1) * 10.0)
            events += manager.evaluate(registry, registry.window_span(window))
        registry.advance(40.0)
        events += manager.evaluate(registry, registry.window_span(3))
        assert [event.state for event in events] == ["firing", "resolved"]
        assert manager.firing() == []
        assert len(manager) == 2

    def test_firing_lists_rules_in_declaration_order(self):
        registry = self._registry_with_queue(40.0)
        registry.counter("errors").inc()
        manager = AlertManager(
            [
                ThresholdRule("a-errors", "errors", "sum", 0.0),
                QueueSaturationRule("b-queue", 32.0, for_windows=1),
            ]
        )
        manager.evaluate(registry, registry.window_span(0))
        assert manager.firing() == ["a-errors", "b-queue"]

    def test_reset_clears_state_and_streaks(self):
        registry = self._registry_with_queue(40.0)
        manager = AlertManager([QueueSaturationRule("queue", 32.0, for_windows=1)])
        manager.evaluate(registry, registry.window_span(0))
        assert manager.firing() == ["queue"]
        manager.reset()
        assert manager.firing() == []
        assert manager.events == []

    def test_snapshot_is_round_trippable(self):
        registry = self._registry_with_queue(40.0)
        manager = AlertManager([QueueSaturationRule("queue", 32.0, for_windows=1)])
        manager.evaluate(registry, registry.window_span(0))
        snapshot = alerts_snapshot(manager.events)
        assert snapshot[0]["rule"] == "queue"
        assert snapshot[0]["state"] == "firing"
        assert snapshot == alerts_snapshot(manager.events)


class TestRuleSpecs:
    def test_default_rules_without_slo(self):
        rules = default_alert_rules()
        assert [rule.name for rule in rules] == ["slo-burn-rate", "queue-saturation"]

    def test_default_rules_with_slo_add_p99(self):
        rules = default_alert_rules(slo_ms=25.0)
        assert [rule.name for rule in rules] == [
            "slo-burn-rate", "queue-saturation", "p99-latency",
        ]
        assert rules[2].threshold == 25.0

    def test_empty_and_default_specs_match_the_default_set(self):
        for spec in ("", "default"):
            rules = parse_alert_rules(spec, slo_ms=20.0)
            assert [rule.name for rule in rules] == [
                "slo-burn-rate", "queue-saturation", "p99-latency",
            ]

    def test_explicit_spec_builds_each_rule(self):
        rules = parse_alert_rules("burn-rate=0.9,queue=16,p99=25")
        assert isinstance(rules[0], BurnRateRule)
        assert rules[0].target == 0.9
        assert isinstance(rules[1], QueueSaturationRule)
        assert rules[1].threshold == 16.0
        assert rules[2].threshold == 25.0

    def test_unknown_key_and_bad_number_raise(self):
        with pytest.raises(ValueError, match="unknown alert rule"):
            parse_alert_rules("latency=1")
        with pytest.raises(ValueError, match="not a number"):
            parse_alert_rules("queue=lots")
