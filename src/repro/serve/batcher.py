"""Dynamic request batching: the policy and the schedule choice.

Serving traffic arrives one request at a time, but the device is only well
utilised — and the specialised schedules only apply — when requests execute
together.  :class:`BatchPolicy` holds the classic max-batch/max-wait knobs
that the :class:`~repro.serve.loop.ServingLoop` applies on the service's
virtual clock:

* a batch is closed as **full** when admitting the next request would exceed
  ``max_batch_size`` samples;
* a batch is closed as **timeout** when the oldest queued request has waited
  ``max_wait_ms`` (the latency SLO knob);
* remaining requests are closed as **drain** when the stream ends.

Schedule selection for a formed batch lives in :class:`BatchSizeSelector`,
which reuses the cross-evaluation idea of :mod:`repro.core.specialization`:
among the registry's specialised schedules that can hold the batch, pick the
one with the lowest measured latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..checks import require_int, require_number
from ..hardware.device import DeviceSpec
from .registry import ScheduleRegistry

__all__ = ["BatchPolicy", "BatchSizeSelector"]


@dataclass(frozen=True)
class BatchPolicy:
    """Knobs of the dynamic batching policy."""

    #: Maximum samples per formed batch.
    max_batch_size: int = 16
    #: Maximum time the oldest request may wait before the batch is flushed.
    max_wait_ms: float = 5.0

    def __post_init__(self) -> None:
        require_int("max_batch_size", self.max_batch_size)
        require_number("max_wait_ms", self.max_wait_ms)

    def close_deadline_ms(self, first_arrival_ms: float) -> float:
        """When a batch opened at ``first_arrival_ms`` must be flushed.

        The single home of the max-wait rule: the
        :class:`~repro.serve.loop.ServingLoop` stamps every batch-close
        deadline with it.
        """
        return first_arrival_ms + self.max_wait_ms


def check_ladder(batch_sizes: Sequence[int]) -> None:
    """Raise a ``ValueError`` naming ``batch_sizes`` unless it is a valid ladder.

    A ladder is a non-empty set of positive int rungs.  A rung names a
    compiled graph's batch size: a float, a bool or a non-positive rung would
    compile (or fail) far from the config that declared it.
    """
    if not batch_sizes:
        raise ValueError("batch_sizes ladder must not be empty")
    for index, size in enumerate(batch_sizes):
        require_int(f"batch_sizes[{index}]", size)
    if len(set(batch_sizes)) != len(batch_sizes):
        raise ValueError(f"batch_sizes must not repeat a rung, got {tuple(batch_sizes)!r}")


class BatchSizeSelector:
    """Chooses the batch-size-specialised schedule for a formed batch.

    The registry holds schedules for a ladder of batch sizes (e.g. 1, 2, 4,
    8, 16).  A batch of ``n`` samples is padded up to some rung ``c >= n`` and
    executed with the schedule specialised for ``c``; among all rungs that
    fit, the selector cross-evaluates the candidate schedules exactly as
    :func:`repro.core.specialization.specialize_for_batch_sizes` does and
    picks the lowest-latency one.  A candidate's latency is its registry
    :class:`~repro.engine.CompiledModel`'s
    :meth:`~repro.engine.CompiledModel.latency_ms` — the same number a
    dispatch of that rung charges — and is memoised, so steady-state selection
    is a dictionary lookup.
    """

    def __init__(self, registry: ScheduleRegistry, batch_sizes: Sequence[int]):
        check_ladder(batch_sizes)
        self.registry = registry
        self.batch_sizes = sorted(batch_sizes)
        #: Memoised candidate latency keyed by (model, device, rung); it also
        #: spares the registry a lookup per selection.
        self._latency_cache: dict[tuple[str, str, int], float] = {}
        #: Memoised selection keyed by (model, device, batch samples).
        self._choice_cache: dict[tuple[str, str, int], int] = {}
        #: Memoised predicted latency keyed by (model, device, batch samples):
        #: the selected rung's latency, one lookup on the admission hot path.
        self._predicted_cache: dict[tuple[str, str, int], float] = {}

    @property
    def max_batch_size(self) -> int:
        """The largest ladder rung — the biggest batch the service can run."""
        return self.batch_sizes[-1]

    def select(self, model: str, num_samples: int, device: DeviceSpec) -> int:
        """The ladder rung whose specialised schedule should run this batch."""
        if num_samples > self.max_batch_size:
            raise ValueError(
                f"batch of {num_samples} samples exceeds the ladder maximum "
                f"{self.max_batch_size}; chunk it first"
            )
        cache_key = (model, device.name, num_samples)
        if cache_key in self._choice_cache:
            return self._choice_cache[cache_key]

        candidates = [c for c in self.batch_sizes if c >= num_samples]
        best_rung = candidates[0]
        best_latency = float("inf")
        for rung in candidates:
            latency = self._candidate_latency(model, rung, device)
            if latency < best_latency:
                best_rung, best_latency = rung, latency
        self._choice_cache[cache_key] = best_rung
        return best_rung

    def predicted_latency(self, model: str, num_samples: int,
                          device: DeviceSpec) -> float:
        """Predicted execution latency (ms) of a batch on ``device``.

        The latency of the ladder rung :meth:`select` would run the batch at,
        from the memoised cross-evaluation measurements.  This is what the
        device-aware routers rank workers with; calling it for a device with
        no registry entry triggers the cold compile, exactly like dispatching
        to that device would.
        """
        key = (model, device.name, num_samples)
        latency = self._predicted_cache.get(key)
        if latency is None:
            rung = self.select(model, num_samples, device)
            latency = self._candidate_latency(model, rung, device)
            self._predicted_cache[key] = latency
        return latency

    def _candidate_latency(self, model: str, rung: int, device: DeviceSpec) -> float:
        key = (model, device.name, rung)
        if key not in self._latency_cache:
            self._latency_cache[key] = self.registry.get_compiled(
                model, rung, device
            ).latency_ms()
        return self._latency_cache[key]
