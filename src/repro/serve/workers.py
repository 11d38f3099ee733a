"""Worker pool: executing compiled models across simulated devices.

Each worker is one simulated :class:`~repro.hardware.device.DeviceSpec` with
a ``busy_until_ms`` horizon on the shared virtual clock.  Workers carry their
*own* device identity, so a pool may freely mix device types (see
:class:`~repro.serve.fleet.FleetSpec`).

*Which* worker a batch goes to is the router's decision
(:mod:`repro.serve.fleet`) — the pool only executes: :meth:`WorkerPool.dispatch`
runs a :class:`~repro.engine.CompiledModel` on the chosen worker, advances its
horizon, and returns the batch timeline.  The execution latency is the
compiled model's own :meth:`~repro.engine.CompiledModel.latency_ms` — the
registry hands out one compiled model per ``(model, batch size, device)``
and each simulates at most once, so the pool keeps no cache of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..hardware.device import DeviceSpec
from ..obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..engine import CompiledModel

__all__ = ["Worker", "DispatchResult", "WorkerPool"]


@dataclass
class Worker:
    """One simulated device plus its execution horizon."""

    worker_id: int
    device: DeviceSpec
    busy_until_ms: float = 0.0
    batches_executed: int = 0
    samples_executed: int = 0
    busy_ms: float = 0.0
    #: When the worker joined the pool (0 for the initial fleet; the
    #: autoscaler stamps scale-up spawns with the virtual clock).
    spawned_ms: float = 0.0
    #: When the worker left the pool (``None`` while it is active).
    retired_ms: float | None = None

    def utilization(self, makespan_ms: float) -> float:
        """Fraction of its *lifetime* this worker spent executing batches.

        A worker's lifetime runs from its spawn to its retirement (or to
        ``makespan_ms`` while active) — on a fixed pool that is the whole
        run, exactly as before, while an autoscaler-spawned worker is judged
        only over the slice of the run it existed for.
        """
        end_ms = makespan_ms if self.retired_ms is None else self.retired_ms
        lifetime_ms = end_ms - self.spawned_ms
        if lifetime_ms <= 0:
            return 0.0
        return min(1.0, self.busy_ms / lifetime_ms)


@dataclass
class DispatchResult:
    """Timeline of one batch execution on a worker."""

    worker_id: int
    device: str
    #: When the batch became ready for dispatch (batcher close time).
    ready_ms: float
    #: When the batch started executing (>= ready_ms and >= worker horizon).
    start_ms: float
    #: When the batch finished executing.
    end_ms: float
    #: Simulated device latency of the compiled model itself.
    execution_ms: float

    @property
    def wait_for_worker_ms(self) -> float:
        """How long the batch sat ready before its worker could start it."""
        return self.start_ms - self.ready_ms


class WorkerPool:
    """A pool of simulated devices executing compiled models.

    Parameters
    ----------
    devices:
        One entry per worker.  Repeat a spec to model replicas of the same
        GPU; mix specs for a heterogeneous pool.
    """

    def __init__(self, devices: Sequence[DeviceSpec]):
        if not devices:
            raise ValueError("worker pool needs at least one device")
        self._devices = tuple(devices)
        self.reset()

    def reset(self) -> None:
        """Return to the configured idle pool: one fresh worker per device.

        Busy horizons, per-worker counters and autoscaled or retired workers
        are dropped.
        """
        self.workers = [
            Worker(worker_id=index, device=device)
            for index, device in enumerate(self._devices)
        ]
        #: Workers removed by the autoscaler; they keep their executed-batch
        #: accounting and still appear in :meth:`summary`.
        self.retired: list[Worker] = []
        #: Worker ids are never reused, so records stay unambiguous even
        #: after the pool shrank and grew again.
        self._next_worker_id = len(self.workers)

    def __len__(self) -> int:
        return len(self.workers)

    @property
    def devices(self) -> list[DeviceSpec]:
        """One :class:`DeviceSpec` per worker, in worker-id order."""
        return [worker.device for worker in self.workers]

    @property
    def device_types(self) -> list[DeviceSpec]:
        """The distinct device specs in the pool, in first-worker order.

        A homogeneous pool has exactly one entry; warmup and per-device
        compile fan-out iterate this instead of every replica.
        """
        seen: dict[str, DeviceSpec] = {}
        for worker in self.workers:
            seen.setdefault(worker.device.name, worker.device)
        return list(seen.values())

    # ---------------------------------------------------------------- dispatch
    def dispatch(
        self,
        compiled: "CompiledModel",
        worker: Worker,
        ready_ms: float,
        num_samples: int | None = None,
    ) -> DispatchResult:
        """Execute ``compiled`` on ``worker``, advancing its horizon.

        ``num_samples`` is the real demand carried by the batch; it defaults to
        the compiled model's (possibly padded) batch size.
        """
        execution_ms = compiled.latency_ms()
        start_ms = max(worker.busy_until_ms, ready_ms)
        end_ms = start_ms + execution_ms
        worker.busy_until_ms = end_ms
        worker.batches_executed += 1
        worker.samples_executed += compiled.batch_size if num_samples is None else num_samples
        worker.busy_ms += execution_ms
        return DispatchResult(
            worker_id=worker.worker_id,
            device=worker.device.name,
            ready_ms=ready_ms,
            start_ms=start_ms,
            end_ms=end_ms,
            execution_ms=execution_ms,
        )

    # ------------------------------------------------------------- elasticity
    def add_worker(self, device: DeviceSpec, now_ms: float = 0.0) -> Worker:
        """Grow the pool by one worker of ``device`` (autoscaler scale-up)."""
        worker = Worker(
            worker_id=self._next_worker_id,
            device=device,
            busy_until_ms=now_ms,
            spawned_ms=now_ms,
        )
        self._next_worker_id += 1
        self.workers.append(worker)
        return worker

    def remove_worker(self, worker: Worker, now_ms: float = 0.0) -> None:
        """Retire ``worker`` from the pool (autoscaler scale-down).

        Only an idle worker may retire — the loop never removes one with a
        batch still executing — and the last worker can never leave.  The
        retired worker keeps its accounting and stays in :meth:`summary`.
        """
        if worker not in self.workers:
            raise ValueError(f"worker {worker.worker_id} is not in the pool")
        if len(self.workers) == 1:
            raise ValueError("cannot retire the last worker of the pool")
        if worker.busy_until_ms > now_ms:
            raise ValueError(
                f"worker {worker.worker_id} is busy until "
                f"{worker.busy_until_ms}ms; cannot retire it at {now_ms}ms"
            )
        self.workers.remove(worker)
        worker.retired_ms = now_ms
        self.retired.append(worker)

    def all_workers(self) -> list[Worker]:
        """Active plus retired workers, in worker-id order (accounting view)."""
        return sorted(self.workers + self.retired, key=lambda w: w.worker_id)

    def makespan_ms(self) -> float:
        """Latest completion over all workers (retired ones included)."""
        return max(worker.busy_until_ms for worker in self.all_workers())

    #: Metric families holding the per-worker busy/lifetime series — the
    #: single source of truth both utilisation summaries compute from.
    BUSY_METRIC = "serve.worker.busy_ms"
    LIFETIME_METRIC = "serve.worker.lifetime_ms"

    def export_utilization(self, metrics: MetricsRegistry) -> None:
        """Write the per-worker busy/lifetime series into ``metrics``.

        One gauge series per worker (labelled by worker id and device), busy
        milliseconds and lifetime milliseconds (spawn to retirement, or to
        the makespan while active).  :meth:`summary` and
        :meth:`group_summary` both read *this* series back — per-worker and
        per-group utilisation can no longer drift apart, because there is
        only one busy/lifetime bookkeeping to disagree with.
        """
        makespan = self.makespan_ms()
        busy = metrics.gauge(self.BUSY_METRIC, "milliseconds each worker spent executing")
        lifetime = metrics.gauge(self.LIFETIME_METRIC, "milliseconds each worker existed")
        for worker in self.all_workers():
            end_ms = makespan if worker.retired_ms is None else worker.retired_ms
            labels = {"worker": str(worker.worker_id), "device": worker.device.name}
            busy.set(worker.busy_ms, **labels)
            lifetime.set(max(0.0, end_ms - worker.spawned_ms), **labels)

    @staticmethod
    def _utilization(busy_ms: float, lifetime_ms: float) -> float:
        """The one busy/lifetime ratio (capped at 1) every summary uses."""
        return min(1.0, busy_ms / lifetime_ms) if lifetime_ms > 0 else 0.0

    def summary(self, metrics: MetricsRegistry | None = None) -> list[dict[str, object]]:
        """Per-worker accounting rows for reports (retired workers included).

        Utilisation comes from the :meth:`export_utilization` series; pass
        the run's registry as ``metrics`` to land the series there (the
        service does), or omit it for a throwaway one.
        """
        if metrics is None:
            metrics = MetricsRegistry()
        self.export_utilization(metrics)
        busy = metrics.gauge(self.BUSY_METRIC)
        lifetime = metrics.gauge(self.LIFETIME_METRIC)
        rows: list[dict[str, object]] = []
        for worker in self.all_workers():
            labels = {"worker": str(worker.worker_id), "device": worker.device.name}
            busy_ms = busy.value(**labels)
            rows.append(
                {
                    "worker": worker.worker_id,
                    "device": worker.device.name,
                    "batches": worker.batches_executed,
                    "samples": worker.samples_executed,
                    "busy_ms": busy_ms,
                    "utilization": self._utilization(busy_ms, lifetime.value(**labels)),
                }
            )
        return rows

    def group_summary(self, metrics: MetricsRegistry | None = None) -> list[dict[str, object]]:
        """Per-device-group accounting rows (one row per device type).

        ``utilization`` is the group's busy time divided by the group's total
        available time, so a group of idle replicas dilutes its own
        utilisation, not another group's — and both numbers are sums over the
        *same* per-worker series :meth:`summary` reads
        (:meth:`export_utilization`), so the group ratio is exactly the
        lifetime-weighted aggregate of the worker ratios.  On a fixed pool a
        worker's lifetime is the whole makespan as before, while a worker the
        autoscaler ran for only a slice of the run contributes only that
        slice to the denominator.  ``workers`` counts every worker that ever
        served in the group (pool churn included).
        """
        if metrics is None:
            metrics = MetricsRegistry()
        self.export_utilization(metrics)
        busy = metrics.gauge(self.BUSY_METRIC)
        lifetime = metrics.gauge(self.LIFETIME_METRIC)
        groups: dict[str, dict[str, object]] = {}
        for worker in self.all_workers():
            row = groups.setdefault(
                worker.device.name,
                {"device": worker.device.name, "workers": 0, "batches": 0,
                 "samples": 0, "busy_ms": 0.0, "lifetime_ms": 0.0},
            )
            labels = {"worker": str(worker.worker_id), "device": worker.device.name}
            row["workers"] += 1
            row["batches"] += worker.batches_executed
            row["samples"] += worker.samples_executed
            row["busy_ms"] += busy.value(**labels)
            row["lifetime_ms"] += lifetime.value(**labels)
        for row in groups.values():
            row["utilization"] = self._utilization(row["busy_ms"], row.pop("lifetime_ms"))
        return list(groups.values())
