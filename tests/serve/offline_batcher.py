"""An offline max-batch/max-wait batcher: the oracle for the serving loop.

:class:`DynamicBatcher` replays a sorted arrival sequence and forms batches
under a :class:`~repro.serve.BatchPolicy` with no clock, no admission and no
workers.  With admit-all and no autoscaler the
:class:`~repro.serve.loop.ServingLoop` must close exactly these batches at
exactly these times, which ``test_batcher.py`` and ``test_loop.py`` check.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.serve import BatchPolicy, FormedBatch, InferenceRequest


class DynamicBatcher:
    """Groups a time-ordered request stream into batches under a policy."""

    def __init__(self, policy: BatchPolicy | None = None):
        self.policy = policy or BatchPolicy()

    def form_batches(self, requests: Iterable[InferenceRequest]) -> list[FormedBatch]:
        """Materialised list of :meth:`iter_batches`."""
        return list(self.iter_batches(requests))

    def iter_batches(self, requests: Iterable[InferenceRequest]) -> Iterator[FormedBatch]:
        """Replay the arrival sequence and yield batches in formation order.

        Requests must be sorted by ``arrival_ms`` (the traffic generators
        guarantee this).  A request larger than ``max_batch_size`` forms its
        own batch immediately.
        """
        policy = self.policy
        pending: list[InferenceRequest] = []
        pending_samples = 0
        deadline = 0.0
        last_arrival = float("-inf")

        def close(formed_ms: float, reason: str) -> FormedBatch:
            nonlocal pending, pending_samples
            batch = FormedBatch(requests=pending, formed_ms=formed_ms, close_reason=reason)
            pending = []
            pending_samples = 0
            return batch

        for request in requests:
            if request.arrival_ms < last_arrival:
                raise ValueError(
                    f"requests must arrive in order: {request.request_id} at "
                    f"{request.arrival_ms}ms after {last_arrival}ms"
                )
            last_arrival = request.arrival_ms

            # Flush any batch whose wait deadline passed before this arrival.
            if pending and request.arrival_ms > deadline:
                yield close(deadline, "timeout")

            if pending and pending_samples + request.num_samples > policy.max_batch_size:
                yield close(request.arrival_ms, "full")

            if not pending:
                deadline = policy.close_deadline_ms(request.arrival_ms)
            pending.append(request)
            pending_samples += request.num_samples

            if pending_samples >= policy.max_batch_size:
                yield close(request.arrival_ms, "full")

        if pending:
            yield close(deadline, "drain")
