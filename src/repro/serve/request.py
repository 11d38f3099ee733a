"""Request and batch data types for the serving subsystem.

A request is one inference demand: ``num_samples`` images of one model that
arrived at ``arrival_ms`` on the service's virtual clock.  The dynamic batcher
(:mod:`repro.serve.batcher`) groups requests into :class:`FormedBatch` objects;
the service annotates each request with its timeline as it moves through the
pipeline and exposes the finished record as :class:`RequestRecord`.

Requests may carry a **service-level objective**: ``deadline_ms`` is the
latency budget the client attached (the absolute deadline is
``arrival_ms + deadline_ms``) and ``priority`` ranks requests when the
admission policy is priority-aware (larger is more important).  A request the
admission policy refuses to queue becomes a :class:`RejectedRequest` instead
of a :class:`RequestRecord`.

All times are milliseconds on a single virtual clock that starts at 0 when the
traffic generator emits its first request.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["InferenceRequest", "FormedBatch", "RequestRecord", "RejectedRequest"]


@dataclass(frozen=True, slots=True)
class InferenceRequest:
    """One inference demand entering the service."""

    request_id: int
    model: str
    #: Arrival time on the virtual clock, in milliseconds.
    arrival_ms: float
    #: Number of samples (images) this request carries.  Mixed per-request
    #: sample counts are what make batch-size demand dynamic.
    num_samples: int = 1
    #: Latency budget in milliseconds; the absolute deadline is
    #: ``arrival_ms + deadline_ms``.  ``None`` means the request has no SLO.
    deadline_ms: float | None = None
    #: Priority class for priority-aware admission (larger is more
    #: important); requests default to the single class 0.
    priority: int = 0
    #: Index of the traffic burst this request belongs to (bursty traffic
    #: only; ``None`` for non-bursty arrival processes).
    burst_id: int | None = None

    def __post_init__(self) -> None:
        if self.num_samples <= 0:
            raise ValueError(f"num_samples must be positive, got {self.num_samples}")
        if self.arrival_ms < 0:
            raise ValueError(f"arrival_ms must be non-negative, got {self.arrival_ms}")
        if self.deadline_ms is not None and self.deadline_ms < 0:
            raise ValueError(
                f"deadline_ms must be non-negative, got {self.deadline_ms}"
            )

    @property
    def absolute_deadline_ms(self) -> float:
        """The deadline on the virtual clock (``inf`` when there is no SLO)."""
        if self.deadline_ms is None:
            return float("inf")
        return self.arrival_ms + self.deadline_ms


@dataclass
class FormedBatch:
    """A group of requests the batcher decided to execute together."""

    requests: list[InferenceRequest] = field(default_factory=list)
    #: Virtual time at which the batcher closed this batch.
    formed_ms: float = 0.0
    #: Why the batch was closed: "full", "timeout", "drain" or "priority"
    #: (a priority-preemptive admission policy flushed it early).
    close_reason: str = "drain"

    @property
    def num_samples(self) -> int:
        """Total samples across the batched requests."""
        return sum(request.num_samples for request in self.requests)

    @property
    def model(self) -> str:
        """The model every request in the batch targets."""
        return self.requests[0].model

    def __len__(self) -> int:
        return len(self.requests)


@dataclass(slots=True)
class RequestRecord:
    """A finished request with its full timeline.

    ``queue_delay_ms`` covers batching *and* waiting for a free worker;
    ``latency_ms`` is the end-to-end number a client would observe.
    """

    request: InferenceRequest
    #: When the batch containing this request was closed by the batcher.
    batched_ms: float
    #: When the batch started executing on a worker.
    dispatch_ms: float
    #: When the batch finished executing.
    completion_ms: float
    #: Batch size (samples) the schedule was specialised for.
    executed_batch_size: int
    #: Worker that executed the batch.
    worker_id: int
    #: Device preset of the executing worker ("" for legacy records built
    #: before pools were device-aware).
    device: str = ""

    @property
    def latency_ms(self) -> float:
        """End-to-end latency a client observes: arrival → completion."""
        return self.completion_ms - self.request.arrival_ms

    @property
    def queue_delay_ms(self) -> float:
        """Time spent waiting (batching + worker queue): arrival → dispatch."""
        return self.dispatch_ms - self.request.arrival_ms

    @property
    def service_time_ms(self) -> float:
        """Execution time of the batch on the device: dispatch → completion."""
        return self.completion_ms - self.dispatch_ms

    @property
    def deadline_met(self) -> bool:
        """Whether the request completed within its SLO (no SLO counts as met)."""
        return self.completion_ms <= self.request.absolute_deadline_ms


@dataclass(frozen=True, slots=True)
class RejectedRequest:
    """A request the admission policy refused to queue."""

    request: InferenceRequest
    #: Virtual time of the rejection (the request's arrival).
    rejected_ms: float
    #: Policy-specific reason string, e.g. "predicted-deadline-miss".
    reason: str
