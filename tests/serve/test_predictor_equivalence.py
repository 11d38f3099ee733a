"""The admission predictor's fast path equals the arithmetic it replaced.

:meth:`LoopState.predicted_completion_ms` prices every worker with one
memoised ``(model, device, samples)`` lookup, counts the queued-ahead samples
with a plain loop and skips ``order_key`` on an empty queue.  The oracle below
is a verbatim copy of the arithmetic it replaced, pricing through the
uncached ``select`` → candidate-latency chain of a separate selector.  Over
generated loop states the two must agree to the last bit.
"""

from __future__ import annotations

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.hardware import get_device
from repro.serve import BatchPolicy, InferenceRequest
from repro.serve.admission import AdmitAll, PriorityAdmission
from repro.serve.batcher import BatchSizeSelector
from repro.serve.loop import LoopState

LADDER = (1, 2, 4, 8)
DEVICES = {name: get_device(name) for name in ("k80", "v100", "rtx2080ti")}
MODEL = "toy"


class _StubRegistry:
    """Hands out compiled-model stand-ins priced from a latency table."""

    def __init__(self, latencies: dict[tuple[str, int], float]):
        self._latencies = latencies

    def get_compiled(self, model, rung, device):
        latency = self._latencies[(device.name, rung)]
        return SimpleNamespace(latency_ms=lambda: latency)


def _selector(latencies: dict[tuple[str, int], float]) -> BatchSizeSelector:
    return BatchSizeSelector(_StubRegistry(latencies), LADDER)


def oracle_completion_ms(loop, selector, request, immediate=False) -> float:
    """The pre-memo ``predicted_completion_ms``, verbatim but for its prices."""

    def predicted_execution_ms(num_samples, worker):
        rung = selector.select(loop.model, num_samples, worker.device)
        return selector._candidate_latency(loop.model, rung, worker.device)

    def batch_wait_bound_ms():
        if loop._pending and (
            loop._pending_samples + request.num_samples
            <= loop.policy.max_batch_size
        ):
            return max(0.0, loop._batch_deadline_ms - loop._now_ms)
        return loop.policy.max_wait_ms

    wait_ms = 0.0 if immediate else batch_wait_bound_ms()
    ready_ms = loop._now_ms + wait_ms
    ladder_max = selector.max_batch_size
    key = loop.admission.order_key(request)
    ahead_samples = sum(
        pending.num_samples
        for pending in loop._pending
        if loop.admission.order_key(pending) <= key
    )
    total_samples = loop._pending_samples + request.num_samples
    chunks_ahead = ahead_samples // ladder_max
    own_chunk = max(
        request.num_samples,
        min(ladder_max, total_samples - chunks_ahead * ladder_max),
    )
    workers = loop.pool.workers
    best = float("inf")
    for worker in workers:
        own_ms = predicted_execution_ms(own_chunk, worker)
        ahead_ms = (
            chunks_ahead
            * predicted_execution_ms(ladder_max, worker)
            / len(workers)
        )
        start_ms = max(worker.busy_until_ms, ready_ms)
        best = min(best, start_ms + ahead_ms + own_ms)
    return best


times = st.floats(min_value=0.0, max_value=500.0, allow_nan=False)
latencies = st.fixed_dictionaries({
    (device, rung): st.floats(min_value=0.01, max_value=50.0, allow_nan=False)
    for device in DEVICES
    for rung in LADDER
})
requests = st.tuples(st.integers(1, LADDER[-1]), st.integers(0, 2))


@st.composite
def loop_states(draw):
    now_ms = draw(times)
    queued = draw(st.lists(requests, max_size=8))
    pending = [
        InferenceRequest(
            request_id=index, model=MODEL,
            arrival_ms=max(0.0, now_ms - draw(st.floats(0.0, 5.0))),
            num_samples=samples, priority=priority,
        )
        for index, (samples, priority) in enumerate(queued)
    ]
    pending.sort(key=lambda request: request.arrival_ms)
    samples, priority = draw(requests)
    request = InferenceRequest(
        request_id=len(pending), model=MODEL, arrival_ms=now_ms,
        num_samples=samples, priority=priority, deadline_ms=25.0,
    )
    workers = [
        SimpleNamespace(device=DEVICES[name], busy_until_ms=busy)
        for name, busy in draw(st.lists(
            st.tuples(st.sampled_from(sorted(DEVICES)), times), min_size=1, max_size=3
        ))
    ]
    policy = BatchPolicy(
        max_batch_size=draw(st.integers(1, 16)),
        max_wait_ms=draw(st.floats(0.0, 10.0)),
    )
    loop = SimpleNamespace(
        model=MODEL,
        _now_ms=now_ms,
        _pending=pending,
        _pending_samples=sum(request.num_samples for request in pending),
        _batch_deadline_ms=(
            policy.close_deadline_ms(pending[0].arrival_ms) if pending else 0.0
        ),
        policy=policy,
        admission=draw(st.sampled_from([AdmitAll(), PriorityAdmission()])),
        pool=SimpleNamespace(workers=workers),
    )
    return loop, request, draw(latencies)


@settings(max_examples=200, deadline=None)
@given(loop_states(), st.booleans())
def test_prediction_is_bit_identical_to_the_oracle(state, immediate):
    loop, request, table = state
    expected = oracle_completion_ms(loop, _selector(table), request, immediate)
    loop.selector = _selector(table)
    predictor = LoopState(loop)
    # Cold memo, then warm memo: both must reproduce the oracle exactly.
    for _ in range(2):
        predicted = predictor.predicted_completion_ms(request, immediate=immediate)
        assert predicted.hex() == expected.hex()


def test_predicted_latency_is_memoised_per_device_and_samples():
    table = {(device, rung): float(rung) for device in DEVICES for rung in LADDER}
    selector = _selector(table)
    for device in ("v100", "v100", "k80"):
        assert selector.predicted_latency(MODEL, 3, DEVICES[device]) == 4.0
    assert sorted(selector._predicted_cache) == [(MODEL, "k80", 3), (MODEL, "v100", 3)]
