"""Declarative alert rules evaluated on window close, inside the run.

PR 6's observability is post-hoc: an SLO regression only becomes visible when
the final :class:`~repro.serve.metrics.ServingReport` prints.  This module
makes it visible *while the simulation runs*: the serving loop hands every
closed :class:`~repro.obs.timeseries.WindowSpan` to an :class:`AlertManager`,
which evaluates a set of :class:`AlertRule`\\ s against the windowed series
and emits typed :class:`AlertEvent`\\ s on state *transitions* — once when a
rule starts firing, once when it resolves.  Events land in three places: the
trace (as ``alert``-category instants), the serving report (``alerts``
section), and — for firing events — the autoscaler's alert hook, so a
burn-rate breach can trigger scale-up ahead of the backlog watermark.

Three rule shapes cover the serving SLO surface:

* :class:`ThresholdRule` — a window statistic of one metric crossed a line
  for N consecutive windows (e.g. windowed p99 latency above the SLO).
* :class:`BurnRateRule` — the multi-window SLO burn rate: how fast the run
  is spending its error budget, measured over a short and a long trailing
  span of windows.  Both must breach for the rule to fire — the long span
  filters blips, the short one makes resolution fast.
* :class:`QueueSaturationRule` — the queue-depth high-water mark pinned at or
  above a limit for N consecutive windows.

Everything runs on the virtual clock over deterministic series, so alert
firing and resolution are reproducible run to run.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from ..checks import require_int, require_number
from .metrics import Counter, Gauge, Histogram

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .timeseries import TimeSeriesRegistry, WindowSpan

__all__ = [
    "AlertEvent",
    "AlertManager",
    "AlertRule",
    "BurnRateRule",
    "HostSaturationRule",
    "QueueSaturationRule",
    "ThresholdRule",
    "alerts_snapshot",
    "default_alert_rules",
    "parse_alert_rules",
    "per_host_alert_rules",
]

#: Counter families the serving loop feeds per request outcome; the burn-rate
#: rule reads their per-window deltas.
SLO_MET_METRIC = "serve.slo.met"
SLO_MISSED_METRIC = "serve.slo.missed"


@dataclass(frozen=True)
class AlertEvent:
    """One alert state transition (``firing`` or ``resolved``)."""

    time_ms: float
    rule: str
    state: str
    value: float
    threshold: float
    message: str
    severity: str = "warning"

    def summary(self) -> str:
        """One human-readable line (used by reports and ``--watch``)."""
        return (
            f"[{self.time_ms:9.1f}ms] {self.state.upper():8s} {self.rule}: "
            f"{self.message}"
        )


class AlertRule:
    """Base rule: a name, a severity, and a per-window breach predicate.

    Subclasses implement :meth:`observe`, returning the measured value when
    the window *breaches* and ``None`` otherwise; the manager turns breach
    streak edges into :class:`AlertEvent` transitions.
    """

    def __init__(self, name: str, severity: str = "warning"):
        if not name:
            raise ValueError("an alert rule needs a non-empty name")
        self.name = name
        self.severity = severity
        self.threshold = 0.0

    def observe(
        self, registry: "TimeSeriesRegistry", window: "WindowSpan"
    ) -> float | None:
        raise NotImplementedError

    def message(self, value: float) -> str:
        return f"value {value:g} vs threshold {self.threshold:g}"

    def reset(self) -> None:
        """Forget per-run state (breach streaks); rules are reusable."""

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{type(self).__name__} {self.name!r}>"


class ThresholdRule(AlertRule):
    """A window statistic of one metric crossed a threshold.

    ``stat`` is a statistic of the family's
    :meth:`~repro.obs.metrics.Metric.window_stat`: counters support
    ``"sum"``/``"rate"`` (increments per window / per second), gauges
    ``"last"``/``"max"``, histograms ``"p<q>"`` sketch quantiles (``"p99"``),
    ``"mean"``, ``"count"`` or ``"sum"``.  Windows with no data for the
    metric do not breach.
    """

    def __init__(
        self,
        name: str,
        metric: str,
        stat: str,
        threshold: float,
        *,
        op: str = ">",
        for_windows: int = 1,
        severity: str = "warning",
    ):
        super().__init__(name, severity)
        if op not in (">", ">=", "<", "<="):
            raise ValueError(f"unsupported comparison {op!r}")
        kinds = (Counter, Gauge, Histogram)
        if not any(kind.supports(stat) for kind in kinds):
            raise ValueError(
                f"no metric kind has the window stat {stat!r}; "
                + "; ".join(f"{kind.kind}s support {', '.join(kind.window_stats)}"
                            for kind in kinds)
            )
        require_number("threshold", threshold)
        require_int("for_windows", for_windows)
        self.metric = metric
        self.stat = stat
        self.threshold = float(threshold)
        self.op = op
        self.for_windows = for_windows
        self._streak = 0

    def _measure(
        self, registry: "TimeSeriesRegistry", window: "WindowSpan"
    ) -> float | None:
        family = registry.get(self.metric)
        return None if family is None else family.window_stat(window.index, self.stat)

    def observe(
        self, registry: "TimeSeriesRegistry", window: "WindowSpan"
    ) -> float | None:
        value = self._measure(registry, window)
        breached = value is not None and {
            ">": value > self.threshold,
            ">=": value >= self.threshold,
            "<": value < self.threshold,
            "<=": value <= self.threshold,
        }[self.op]
        self._streak = self._streak + 1 if breached else 0
        return value if self._streak >= self.for_windows else None

    def reset(self) -> None:
        self._streak = 0

    def message(self, value: float) -> str:
        return (
            f"{self.metric} {self.stat} {value:g} {self.op} {self.threshold:g} "
            f"for {self.for_windows} window(s)"
        )


class BurnRateRule(AlertRule):
    """Multi-window SLO burn rate over the attainment series.

    With an attainment target of ``target`` the run's *error budget* is
    ``1 - target`` — the fraction of requests allowed to miss.  The burn rate
    of a span of windows is ``miss_fraction / error_budget``: burn 1.0 spends
    the budget exactly; burn ``factor`` spends it ``factor`` times too fast.
    The rule fires when **both** the short and the long trailing spans burn at
    ``>= factor`` — the long window keeps single-burst noise from paging, the
    short window resolves the alert quickly once the system recovers.  Spans
    with no finished requests do not breach.
    """

    def __init__(
        self,
        name: str,
        target: float,
        *,
        factor: float = 2.0,
        short_windows: int = 2,
        long_windows: int = 8,
        severity: str = "critical",
    ):
        super().__init__(name, severity)
        if not 0.0 < target < 1.0:
            raise ValueError(f"attainment target must be in (0, 1), got {target}")
        require_number("factor", factor, positive=True)
        require_int("short_windows", short_windows)
        require_int("long_windows", long_windows)
        if long_windows < short_windows:
            raise ValueError(
                f"need 1 <= short_windows <= long_windows, got "
                f"{short_windows}/{long_windows}"
            )
        self.target = float(target)
        self.factor = float(factor)
        self.short_windows = short_windows
        self.long_windows = long_windows
        self.threshold = self.factor

    def _burn(self, registry: "TimeSeriesRegistry", last: int, span: int) -> float | None:
        met_family = registry.get(SLO_MET_METRIC)
        missed_family = registry.get(SLO_MISSED_METRIC)
        met = missed = 0.0
        for index in range(last - span + 1, last + 1):
            if met_family is not None:
                met += met_family.window_stat(index, "sum")
            if missed_family is not None:
                missed += missed_family.window_stat(index, "sum")
        finished = met + missed
        if not finished:
            return None
        return (missed / finished) / (1.0 - self.target)

    def observe(
        self, registry: "TimeSeriesRegistry", window: "WindowSpan"
    ) -> float | None:
        short = self._burn(registry, window.index, self.short_windows)
        long = self._burn(registry, window.index, self.long_windows)
        if short is None or long is None:
            return None
        if short >= self.factor and long >= self.factor:
            return short
        return None

    def message(self, value: float) -> str:
        return (
            f"SLO burn rate {value:.2f}x >= {self.factor:g}x over "
            f"{self.short_windows}/{self.long_windows} windows "
            f"(target attainment {self.target:.1%})"
        )


class QueueSaturationRule(ThresholdRule):
    """Queue-depth high-water mark at/above a limit for N consecutive windows."""

    def __init__(
        self,
        name: str,
        limit: float,
        *,
        metric: str = "serve.queue.depth",
        for_windows: int = 2,
        severity: str = "warning",
    ):
        super().__init__(
            name, metric, "max", limit,
            op=">=", for_windows=for_windows, severity=severity,
        )

    def message(self, value: float) -> str:
        return (
            f"queue depth high-water {value:g} >= {self.threshold:g} "
            f"for {self.for_windows} window(s)"
        )


class HostSaturationRule(QueueSaturationRule):
    """Per-host queue saturation for cluster runs (``hostN-queue-saturation``).

    Each simulated host of a :mod:`repro.cluster` run evaluates its own copy
    against its own windowed metrics; the host id in the rule name keeps the
    merged cluster-wide alert stream attributable to the saturated host.
    """

    def __init__(
        self,
        host_id: int,
        limit: float = 32.0,
        *,
        for_windows: int = 2,
        severity: str = "warning",
    ):
        super().__init__(
            f"host{host_id}-queue-saturation", limit,
            for_windows=for_windows, severity=severity,
        )
        self.host_id = host_id

    def message(self, value: float) -> str:
        return (
            f"host{self.host_id} queue depth high-water {value:g} >= "
            f"{self.threshold:g} for {self.for_windows} window(s)"
        )


def per_host_alert_rules(
    host_id: int, rules: Sequence[AlertRule]
) -> list[AlertRule]:
    """Fresh per-host copies of ``rules``, renamed ``hostN-<rule>``.

    Rules are stateful (consecutive-window counters, firing state), so N
    hosts must never share instances; each host gets deep copies, reset, with
    the host id prefixed to every name.  Queue-saturation rules become
    :class:`HostSaturationRule`\\ s so the per-host saturation alert carries
    its canonical name.
    """
    copies: list[AlertRule] = []
    for rule in rules:
        if isinstance(rule, QueueSaturationRule):
            clone: AlertRule = HostSaturationRule(
                host_id, rule.threshold,
                for_windows=rule.for_windows, severity=rule.severity,
            )
        else:
            clone = copy.deepcopy(rule)
            clone.name = f"host{host_id}-{clone.name}"
            clone.reset()
        copies.append(clone)
    return copies


class AlertManager:
    """Evaluates rules on every closed window; emits events on transitions.

    A rule whose :meth:`~AlertRule.observe` returns a value is *breaching*;
    the manager records one ``firing`` event on the first breaching window
    and one ``resolved`` event on the first clean window after.  Rule order
    is preserved, so event sequences are deterministic.
    """

    def __init__(self, rules: Sequence[AlertRule]):
        self.rules = list(rules)
        self._firing: dict[str, AlertEvent] = {}
        self.events: list[AlertEvent] = []

    def evaluate(
        self, registry: "TimeSeriesRegistry", window: "WindowSpan"
    ) -> list[AlertEvent]:
        """Run every rule against one closed window; return new transitions."""
        transitions: list[AlertEvent] = []
        for rule in self.rules:
            value = rule.observe(registry, window)
            was_firing = rule.name in self._firing
            if value is not None and not was_firing:
                event = AlertEvent(
                    time_ms=window.end_ms, rule=rule.name, state="firing",
                    value=float(value), threshold=rule.threshold,
                    message=rule.message(float(value)), severity=rule.severity,
                )
                self._firing[rule.name] = event
                transitions.append(event)
            elif value is None and was_firing:
                fired = self._firing.pop(rule.name)
                transitions.append(
                    AlertEvent(
                        time_ms=window.end_ms, rule=rule.name, state="resolved",
                        value=fired.value, threshold=rule.threshold,
                        message=f"recovered (fired at {fired.time_ms:g}ms)",
                        severity=rule.severity,
                    )
                )
        self.events.extend(transitions)
        return transitions

    def firing(self) -> list[str]:
        """Names of currently firing rules, in rule order."""
        return [rule.name for rule in self.rules if rule.name in self._firing]

    def reset(self) -> None:
        """Forget everything (the serving loop resets per run)."""
        self._firing.clear()
        self.events.clear()
        for rule in self.rules:
            rule.reset()

    def __len__(self) -> int:
        return len(self.events)


def default_alert_rules(
    *,
    slo_ms: float | None = None,
    attainment_target: float = 0.95,
    queue_limit: float = 32.0,
) -> list[AlertRule]:
    """The standard serving rule set (what bare ``--alerts`` enables).

    * ``slo-burn-rate`` — budget burning at >= 2x over 2/8 windows;
    * ``queue-saturation`` — queue high-water >= ``queue_limit`` twice;
    * ``p99-latency`` — windowed p99 above the SLO (when ``slo_ms`` given).
    """
    rules: list[AlertRule] = [
        BurnRateRule("slo-burn-rate", attainment_target),
        QueueSaturationRule("queue-saturation", queue_limit),
    ]
    if slo_ms is not None:
        rules.append(
            ThresholdRule(
                "p99-latency", "serve.latency_ms", "p99", float(slo_ms),
                for_windows=2,
            )
        )
    return rules


def parse_alert_rules(
    spec: str, *, slo_ms: float | None = None
) -> list[AlertRule]:
    """Build rules from a CLI spec like ``"burn-rate=0.9,queue=32,p99=25"``.

    Recognised keys: ``burn-rate=<target attainment>``, ``queue=<depth>``,
    ``p99=<ms>``.  The empty spec (bare ``--alerts``) yields
    :func:`default_alert_rules`.
    """
    spec = spec.strip()
    if not spec or spec == "default":
        return default_alert_rules(slo_ms=slo_ms)
    rules: list[AlertRule] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, raw = part.partition("=")
        key = key.strip()
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(f"alert rule {part!r}: {raw!r} is not a number")
        if key == "burn-rate":
            rules.append(BurnRateRule("slo-burn-rate", value))
        elif key == "queue":
            require_number("alert rule queue", value, positive=True)
            rules.append(QueueSaturationRule("queue-saturation", value))
        elif key == "p99":
            require_number("alert rule p99", value, positive=True)
            rules.append(
                ThresholdRule(
                    "p99-latency", "serve.latency_ms", "p99", value, for_windows=2
                )
            )
        else:
            raise ValueError(
                f"unknown alert rule key {key!r} (expected burn-rate/queue/p99)"
            )
    return rules


def alerts_snapshot(events: Sequence[AlertEvent]) -> list[Mapping[str, object]]:
    """Deterministic dict form of an event list (report/JSON export)."""
    return [
        {
            "time_ms": round(event.time_ms, 4),
            "rule": event.rule,
            "state": event.state,
            "value": round(event.value, 6),
            "threshold": event.threshold,
            "severity": event.severity,
            "message": event.message,
        }
        for event in events
    ]
