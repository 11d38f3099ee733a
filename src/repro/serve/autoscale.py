"""Elastic worker pools: grow under backlog, shrink when idle.

A fixed-size fleet wastes silicon between bursts and queues unboundedly
inside them.  The :class:`Autoscaler` closes that gap: the
:class:`~repro.serve.loop.ServingLoop` schedules a scale-check event every
``interval_ms`` of virtual time, and the autoscaler compares the pool's mean
per-worker backlog (how far each worker's horizon runs past *now*) against
its watermarks:

* backlog above ``scale_up_backlog_ms`` → add one worker (up to
  ``max_workers``);
* every worker idle and nothing queued → retire one worker (down to
  ``min_workers``).

One action per check, with an optional ``cooldown_ms`` between actions, so
the pool ramps instead of thrashing.  Every resize is recorded as a
:class:`ScaleEvent` in the :class:`~repro.serve.metrics.ServingReport`.

Bounds come either from an explicit :class:`AutoscaleConfig` (the CLI's
``--autoscale min:max``) or from the fleet declaration itself — a
:class:`~repro.serve.fleet.FleetSpec` with ``min_workers``/``max_workers``
set turns autoscaling on for every service using it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..checks import require_int, require_number
from ..hardware.device import DeviceSpec
from ..obs.metrics import ordered_sum

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..obs.alerts import AlertEvent
    from .loop import LoopState

__all__ = ["AutoscaleConfig", "Autoscaler", "ScaleEvent"]


@dataclass(frozen=True)
class AutoscaleConfig:
    """Knobs of the elastic-pool policy."""

    #: The pool never shrinks below this many workers.
    min_workers: int = 1
    #: The pool never grows beyond this many workers.
    max_workers: int = 4
    #: Virtual time between scale checks, in milliseconds.
    interval_ms: float = 5.0
    #: Scale up when the mean per-worker backlog exceeds this, in ms.
    scale_up_backlog_ms: float = 10.0
    #: Minimum virtual time between two scale actions, in milliseconds.
    cooldown_ms: float = 0.0

    def __post_init__(self) -> None:
        require_int("min_workers", self.min_workers)
        require_int("max_workers", self.max_workers)
        if self.max_workers < self.min_workers:
            raise ValueError(
                f"max_workers ({self.max_workers}) must be >= min_workers "
                f"({self.min_workers})"
            )
        require_number("interval_ms", self.interval_ms, positive=True)
        require_number("scale_up_backlog_ms", self.scale_up_backlog_ms)
        require_number("cooldown_ms", self.cooldown_ms)

    @classmethod
    def parse(cls, spec: str, **overrides) -> "AutoscaleConfig":
        """Parse the CLI spelling ``"min:max"`` into a config.

        ``"1:6"`` bounds the pool to 1..6 workers; keyword overrides set the
        remaining knobs.
        """
        parts = spec.strip().split(":")
        if len(parts) != 2:
            raise ValueError(f"autoscale spec must be 'min:max', got {spec!r}")
        try:
            low, high = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(
                f"autoscale bounds must be integers, got {spec!r}"
            ) from None
        return cls(min_workers=low, max_workers=high, **overrides)

    @classmethod
    def of(cls, spec: "AutoscaleConfig | str") -> "AutoscaleConfig":
        """Coerce any accepted autoscale spelling into an :class:`AutoscaleConfig`."""
        if isinstance(spec, AutoscaleConfig):
            return spec
        if isinstance(spec, str):
            return cls.parse(spec)
        raise TypeError(
            f"cannot build an AutoscaleConfig from {type(spec).__name__}; "
            "pass an AutoscaleConfig or a 'min:max' string"
        )


@dataclass(frozen=True)
class ScaleEvent:
    """One autoscaler resize, recorded in the serving report."""

    #: Virtual time of the resize.
    time_ms: float
    #: "up" (worker added) or "down" (worker retired).
    action: str
    #: Why the autoscaler acted (watermark crossed, pool idle, ...).
    reason: str
    #: The worker added or retired.
    worker_id: int
    #: Device preset of that worker.
    device: str
    #: Pool size *after* the resize.
    num_workers: int


class Autoscaler:
    """Backlog-driven elastic sizing of a :class:`~repro.serve.workers.WorkerPool`.

    The declared fleet composition is the anchor: scale-*down* retires
    surplus workers first (then the spawn device, then highest id), and
    scale-*up* revives whichever declared device the pool is missing before
    spawning extra primaries — so a mixed fleet's fast silicon is restored
    after an idle valley instead of drifting to all-primary-device.

    Parameters
    ----------
    config:
        Bounds and watermarks (or a ``"min:max"`` string).
    device:
        Device preset extra workers spawn with once the declared composition
        is whole — the fleet's primary device, chosen by the service.
        Replicas of an already-served type start warm: the pool's plan
        caches are keyed by device, not worker.
    """

    def __init__(self, config: "AutoscaleConfig | str", device: DeviceSpec):
        self.config = AutoscaleConfig.of(config)
        self.device = device
        self._last_action_ms = float("-inf")
        #: Declared composition {device name: count}, snapshotted from the
        #: pool on the first scale check (before any resize can have run).
        self._declared: dict[str, int] | None = None
        self._catalog: dict[str, DeviceSpec] = {}

    def reset(self) -> None:
        """Forget the last resize, so a new run starts without a cooldown."""
        self._last_action_ms = float("-inf")

    def _snapshot_declared(self, workers) -> None:
        if self._declared is not None:
            return
        self._declared = {}
        for worker in workers:
            name = worker.device.name
            self._declared[name] = self._declared.get(name, 0) + 1
            self._catalog.setdefault(name, worker.device)

    def _spawn_device(self, counts: dict[str, int]) -> DeviceSpec:
        """Revive missing declared capacity first; then spawn the primary."""
        for name, declared in self._declared.items():
            if counts.get(name, 0) < declared:
                return self._catalog[name]
        return self.device

    def evaluate(self, state: "LoopState") -> list[ScaleEvent]:
        """Run one scale check against the loop state; return resize events."""
        config = self.config
        now = state.now_ms
        pool = state.pool
        workers = pool.workers
        self._snapshot_declared(workers)
        if now - self._last_action_ms < config.cooldown_ms:
            return []
        backlogs = [max(0.0, worker.busy_until_ms - now) for worker in workers]
        mean_backlog = ordered_sum(backlogs) / len(workers)
        counts: dict[str, int] = {}
        for worker in workers:
            counts[worker.device.name] = counts.get(worker.device.name, 0) + 1

        can_grow = len(workers) < config.max_workers
        if mean_backlog > config.scale_up_backlog_ms and can_grow:
            worker = pool.add_worker(self._spawn_device(counts), now_ms=now)
            self._last_action_ms = now
            return [
                ScaleEvent(
                    time_ms=now,
                    action="up",
                    reason=f"mean backlog {mean_backlog:.2f}ms > "
                    f"{config.scale_up_backlog_ms:.2f}ms",
                    worker_id=worker.worker_id,
                    device=worker.device.name,
                    num_workers=len(pool.workers),
                )
            ]

        return self._maybe_scale_down(state, counts, mean_backlog)

    def on_alert(self, state: "LoopState", event: "AlertEvent") -> list[ScaleEvent]:
        """React to a firing alert by adding a worker immediately.

        Burn-rate alerts lead the backlog watermark: the error budget starts
        draining while per-worker backlog can still look acceptable, so a
        firing alert is allowed to grow the pool without waiting for the next
        scale check to cross ``scale_up_backlog_ms``.  Bounds and cooldown
        still apply.
        """
        config = self.config
        now = state.now_ms
        pool = state.pool
        workers = pool.workers
        self._snapshot_declared(workers)
        if now - self._last_action_ms < config.cooldown_ms:
            return []
        if len(workers) >= config.max_workers:
            return []
        counts: dict[str, int] = {}
        for worker in workers:
            counts[worker.device.name] = counts.get(worker.device.name, 0) + 1
        worker = pool.add_worker(self._spawn_device(counts), now_ms=now)
        self._last_action_ms = now
        return [
            ScaleEvent(
                time_ms=now,
                action="up",
                reason=f"alert {event.rule} firing",
                worker_id=worker.worker_id,
                device=worker.device.name,
                num_workers=len(pool.workers),
            )
        ]

    def _maybe_scale_down(
        self, state: "LoopState", counts: dict[str, int], mean_backlog: float
    ) -> list[ScaleEvent]:
        config = self.config
        now = state.now_ms
        pool = state.pool
        workers = pool.workers
        # Zero mean backlog means every worker's horizon cleared; with an
        # empty queue the whole pool is provably idle.
        pool_idle = mean_backlog == 0.0 and state.pending_samples == 0
        if pool_idle and len(workers) > config.min_workers:
            worker = max(
                workers,
                key=lambda w: (
                    counts[w.device.name] > self._declared.get(w.device.name, 0),
                    w.device.name == self.device.name,
                    w.worker_id,
                ),
            )
            pool.remove_worker(worker, now_ms=now)
            self._last_action_ms = now
            return [
                ScaleEvent(
                    time_ms=now,
                    action="down",
                    reason="pool idle and queue empty",
                    worker_id=worker.worker_id,
                    device=worker.device.name,
                    num_workers=len(pool.workers),
                )
            ]
        return []
