"""Tests for dynamic batching and batch-size selection."""

from __future__ import annotations

import pytest

from repro.models import chain_graph
from repro.serve import (
    BatchPolicy,
    BatchSizeSelector,
    InferenceRequest,
    ScheduleRegistry,
)

from offline_batcher import DynamicBatcher


def request(request_id: int, arrival_ms: float, num_samples: int = 1) -> InferenceRequest:
    return InferenceRequest(
        request_id=request_id, model="m", arrival_ms=arrival_ms, num_samples=num_samples
    )


class TestDynamicBatcher:
    def test_fills_up_to_max_batch(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch_size=4, max_wait_ms=100.0))
        requests = [request(i, arrival_ms=float(i)) for i in range(8)]
        batches = batcher.form_batches(requests)
        assert [len(b) for b in batches] == [4, 4]
        assert [b.close_reason for b in batches] == ["full", "full"]
        assert batches[0].formed_ms == 3.0  # closed by the 4th arrival

    def test_timeout_flushes_partial_batch(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch_size=8, max_wait_ms=5.0))
        requests = [request(0, 0.0), request(1, 1.0), request(2, 50.0)]
        batches = batcher.form_batches(requests)
        assert [len(b) for b in batches] == [2, 1]
        assert batches[0].close_reason == "timeout"
        assert batches[0].formed_ms == 5.0  # oldest arrival + max_wait
        assert batches[1].close_reason == "drain"

    def test_drain_closes_the_tail(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch_size=8, max_wait_ms=5.0))
        batches = batcher.form_batches([request(0, 0.0)])
        assert len(batches) == 1
        assert batches[0].close_reason == "drain"
        assert batches[0].formed_ms == 5.0

    def test_sample_counts_not_request_counts_fill_batches(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch_size=4, max_wait_ms=100.0))
        requests = [request(0, 0.0, num_samples=3), request(1, 1.0, num_samples=3)]
        batches = batcher.form_batches(requests)
        # 3 + 3 > 4, so the second request cannot join the first batch.
        assert [b.num_samples for b in batches] == [3, 3]

    def test_oversized_request_forms_its_own_batch(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch_size=4, max_wait_ms=100.0))
        batches = batcher.form_batches([request(0, 0.0, num_samples=9)])
        assert [b.num_samples for b in batches] == [9]
        assert batches[0].close_reason == "full"

    def test_out_of_order_arrivals_rejected(self):
        batcher = DynamicBatcher(BatchPolicy())
        with pytest.raises(ValueError):
            batcher.form_batches([request(0, 5.0), request(1, 1.0)])

    def test_batching_is_deterministic(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch_size=3, max_wait_ms=2.0))
        requests = [request(i, arrival_ms=i * 0.7, num_samples=1 + i % 2) for i in range(20)]
        first = batcher.form_batches(requests)
        second = batcher.form_batches(requests)
        assert [(len(b), b.formed_ms, b.close_reason) for b in first] == [
            (len(b), b.formed_ms, b.close_reason) for b in second
        ]

    @pytest.mark.parametrize("kwargs", [
        {"max_batch_size": 0},
        {"max_wait_ms": -1.0},
    ])
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BatchPolicy(**kwargs)


class TestBatchSizeSelector:
    @pytest.fixture
    def selector(self, v100):
        registry = ScheduleRegistry(
            graph_builder=lambda model, bs: chain_graph(length=3, batch_size=bs)
        )
        return BatchSizeSelector(registry, batch_sizes=(1, 2, 4, 8))

    def test_selects_a_fitting_rung(self, selector, v100):
        for samples in range(1, 9):
            rung = selector.select("m", samples, v100)
            assert rung >= samples
            assert rung in selector.batch_sizes

    def test_selection_is_memoised(self, selector, v100):
        selector.select("m", 3, v100)
        searches_after_first = selector.registry.stats.searches
        selector.select("m", 3, v100)
        assert selector.registry.stats.searches == searches_after_first
        assert ("m", "v100", 3) in selector._choice_cache

    def test_padding_never_exceeds_next_rung_when_cheapest(self, selector, v100):
        # A chain at batch 1 must never be served by the batch-8 schedule if
        # the batch-1 schedule is cheaper — the selector cross-evaluates.
        rung = selector.select("m", 1, v100)
        latency_chosen = selector._candidate_latency("m", rung, v100)
        for other in selector.batch_sizes:
            assert latency_chosen <= selector._candidate_latency("m", other, v100)

    def test_candidate_latency_is_the_compiled_model_latency(self, selector, v100):
        for rung in selector.batch_sizes:
            compiled = selector.registry.get_compiled("m", rung, v100)
            assert selector._candidate_latency("m", rung, v100) == compiled.latency_ms()

    def test_oversized_demand_raises(self, selector, v100):
        with pytest.raises(ValueError, match="exceeds the ladder maximum"):
            selector.select("m", 9, v100)

    def test_ladder_validation(self, v100):
        registry = ScheduleRegistry(
            graph_builder=lambda model, bs: chain_graph(length=3, batch_size=bs)
        )
        with pytest.raises(ValueError):
            BatchSizeSelector(registry, batch_sizes=())
        with pytest.raises(ValueError):
            BatchSizeSelector(registry, batch_sizes=(1, 1, 2))
