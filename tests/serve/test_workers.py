"""Tests for the simulated worker pool."""

from __future__ import annotations

import pytest

from repro.engine import Engine
from repro.models import chain_graph
from repro.serve import WorkerPool, get_router


@pytest.fixture
def graph():
    return chain_graph(length=3, batch_size=2)


@pytest.fixture
def compiled(graph, v100):
    return Engine(v100).compile(graph)


class TestWorkerPool:
    def test_requires_at_least_one_device(self):
        with pytest.raises(ValueError):
            WorkerPool([])

    def test_dispatch_advances_the_worker_horizon(self, compiled, v100):
        pool = WorkerPool([v100])
        result = pool.dispatch(compiled, pool.workers[0], ready_ms=10.0)
        assert result.start_ms == 10.0
        assert result.end_ms == 10.0 + compiled.latency_ms()
        assert result.execution_ms == compiled.latency_ms() > 0
        assert pool.workers[0].busy_until_ms == result.end_ms

    def test_busy_worker_queues_the_batch(self, compiled, v100):
        pool = WorkerPool([v100])
        first = pool.dispatch(compiled, pool.workers[0], ready_ms=0.0)
        second = pool.dispatch(compiled, pool.workers[0], ready_ms=0.0)
        assert second.start_ms == first.end_ms
        assert second.wait_for_worker_ms == pytest.approx(first.end_ms)

    def test_reset_restores_the_configured_idle_pool(self, compiled, v100, k80):
        pool = WorkerPool([v100, k80])
        pool.dispatch(compiled, pool.workers[0], ready_ms=0.0)
        pool.remove_worker(pool.workers[1], now_ms=0.0)
        pool.add_worker(v100, now_ms=1.0)
        pool.reset()
        assert [(w.worker_id, w.device.name) for w in pool.workers] == [(0, "v100"), (1, "k80")]
        assert all(w.busy_until_ms == 0.0 and w.batches_executed == 0 for w in pool.workers)
        assert pool.retired == []
        assert pool.add_worker(v100).worker_id == 2

    def test_dispatch_simulates_the_compiled_model_once(self, compiled, v100, monkeypatch):
        # The compiled model's cached execution is the only one: repeated
        # dispatches (on any worker) never simulate the plan again.
        from repro.runtime.executor import Executor

        runs = []
        real_run = Executor.run
        monkeypatch.setattr(
            Executor, "run", lambda self, plan: runs.append(plan) or real_run(self, plan)
        )
        pool = WorkerPool([v100, v100])
        latencies = {
            pool.dispatch(compiled, worker, ready_ms=0.0).execution_ms
            for worker in pool.workers * 2
        }
        assert latencies == {compiled.latency_ms()}
        assert runs == [compiled.plan]

    def test_heterogeneous_pool_runs_faster_on_the_faster_device(self, graph, v100, k80):
        pool = WorkerPool([v100, k80])
        fast = pool.dispatch(Engine(v100).compile(graph), pool.workers[0], ready_ms=0.0)
        slow = pool.dispatch(Engine(k80).compile(graph), pool.workers[1], ready_ms=0.0)
        assert fast.execution_ms < slow.execution_ms

    def test_summary_accounts_for_all_dispatches(self, compiled, graph, v100):
        pool = WorkerPool([v100, v100])
        for _ in range(4):
            worker = get_router("earliest-start").pick(pool.workers, 0.0, None)
            pool.dispatch(compiled, worker, ready_ms=0.0)
        summary = pool.summary()
        assert sum(row["batches"] for row in summary) == 4
        assert sum(row["samples"] for row in summary) == 4 * graph.batch_size
        assert all(0.0 <= row["utilization"] <= 1.0 for row in summary)
