"""Tests for the staged compile pipeline (repro.engine.Engine)."""

from __future__ import annotations

import gc
import warnings

import pytest

from repro.core import IOSScheduler, PruningStrategy, SchedulerConfig, SimulatedCostModel
from repro.engine import Engine, apply_passes, clear_engine_pool, get_engine
from repro.frontend import load
from repro.models import figure2_block
from repro.passes import unfuse_activations


class TestStagedCompile:
    def test_compile_produces_all_artifacts(self, v100, fig2):
        compiled = Engine(v100).compile(fig2)
        assert compiled.graph is fig2
        compiled.schedule.validate(fig2)
        assert compiled.plan.num_stages() == len(compiled.schedule)
        assert compiled.latency_ms() > 0
        assert compiled.throughput() > 0
        assert compiled.search is not None
        assert compiled.search.schedule is compiled.schedule

    def test_per_stage_stats_are_recorded(self, v100, fig2):
        compiled = Engine(v100).compile(fig2)
        stats = compiled.stats
        assert [t.stage for t in stats.stages] == ["passes", "schedule", "lower"]
        assert all(t.elapsed_s >= 0 for t in stats.stages)
        assert stats.stage("schedule").detail["measurements"] == stats.num_measurements
        assert stats.num_measurements > 0
        assert stats.profiling_gpu_ms > 0
        assert stats.operators_in == stats.operators_out == len(fig2.schedulable_names())
        assert stats.elapsed_s == pytest.approx(sum(t.elapsed_s for t in stats.stages))
        assert "schedule" in stats.describe()

    def test_pass_stage_rewrites_before_search(self, v100):
        raw = unfuse_activations(load("squeezenet", optimize=False))
        compiled = Engine(v100, passes=True).compile(raw)
        assert compiled.graph is not raw
        assert compiled.stats.operators_out < compiled.stats.operators_in
        assert compiled.stats.stage("passes").detail["rewrites"] > 0
        assert compiled.search.pass_stats is not None
        assert compiled.fingerprint != compiled.source_fingerprint
        compiled.schedule.validate(compiled.graph)

    def test_execute_with_profile_records_a_trace(self, v100, fig2):
        compiled = Engine(v100).compile(fig2)
        plain = compiled.execute()
        traced = compiled.execute(profile=True)
        assert traced.latency_ms == pytest.approx(plain.latency_ms)
        assert traced.timeline()  # the occupancy trace is only kept when profiling
        assert not plain.timeline()

    def test_config_and_variant_are_mutually_exclusive(self, v100):
        with pytest.raises(ValueError, match="not both"):
            Engine(v100, config=SchedulerConfig(), variant="ios-merge")
        with pytest.raises(ValueError, match="not both"):
            Engine(
                v100,
                scheduler=IOSScheduler(SimulatedCostModel(v100)),
                pruning=PruningStrategy(2, 4),
            )


class TestCycleFreeCompile:
    """A compile leaves no cyclic garbage: refcounting frees its working set.

    The ending enumeration and the block search would otherwise keep every
    output list and search dict alive until a collection happened to run.
    """

    @pytest.mark.parametrize("model", ["squeezenet", "inception_v3", "randwire"])
    def test_dropping_a_compile_leaves_nothing_for_the_collector(self, model):
        graph = load(model)
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            engine = Engine("v100")
            compiled = engine.compile(graph)
            assert compiled.schedule.stages
            del engine, compiled, graph
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestCompileCache:
    def test_cache_hit_returns_the_same_compiled_model(self, v100, fig2):
        engine = Engine(v100)
        first = engine.compile(fig2)
        second = engine.compile(fig2)
        assert second is first
        assert engine.stats.compiles == 1
        assert engine.stats.cache_hits == 1
        assert engine.stats.searches == 1

    def test_structurally_identical_graph_hits_the_cache(self, v100):
        engine = Engine(v100)
        first = engine.compile(figure2_block())
        second = engine.compile(figure2_block())  # fresh but identical object
        assert second is first
        assert engine.stats.searches == 1

    def test_different_batch_size_misses(self, v100):
        engine = Engine(v100)
        engine.compile(load("squeezenet", batch_size=1))
        engine.compile(load("squeezenet", batch_size=2))
        assert engine.stats.searches == 2

    def test_fresh_engines_report_identical_search_costs(self):
        # No search result outlives the engine that ran it, so a second
        # engine's compile is as cold as the first and counts the same work.
        def counts(compiled):
            stats = compiled.stats
            return (
                stats.num_measurements, stats.num_pruned, stats.profiling_gpu_ms,
                [stage.detail for stage in stats.stages],
            )

        first, second = (Engine("v100").compile_model("inception_v3") for _ in range(2))
        assert counts(second) == counts(first)
        assert first.stats.num_measurements == 1897

    def test_engine_pool_shares_engines_per_environment(self, v100):
        clear_engine_pool()
        try:
            a = get_engine("v100")
            b = get_engine(v100)
            assert a is b
            assert get_engine("v100", variant="ios-merge") is not a
            assert get_engine("k80") is not a
        finally:
            clear_engine_pool()

    def test_engine_pool_distinguishes_tweaked_presets(self, v100):
        # A customised device that keeps a preset's name must get its own
        # engine: the cost model depends on the spec, not the label.
        clear_engine_pool()
        try:
            tweaked = v100.scaled(num_sms=v100.num_sms // 2)
            assert tweaked.name == v100.name
            assert get_engine(tweaked) is not get_engine(v100)
        finally:
            clear_engine_pool()


class TestShimEquivalence:
    """Engine.compile must reproduce the bare IOSScheduler search it wraps."""

    @pytest.mark.parametrize("model", ["squeezenet", "inception_v3"])
    def test_engine_matches_the_search_primitive_on_the_zoo(self, model, v100):
        graph = load(model, optimize=False)
        searched = IOSScheduler(SimulatedCostModel(v100)).optimize_graph(graph)
        compiled = Engine(v100).compile(graph)
        assert compiled.schedule == searched.schedule
        assert compiled.search.predicted_latency_ms == pytest.approx(
            searched.predicted_latency_ms
        )

    def test_equivalence_with_passes_and_variant(self, v100):
        raw = unfuse_activations(load("squeezenet", optimize=False))
        optimized, _ = apply_passes(raw, True)
        scheduler = IOSScheduler(
            SimulatedCostModel(v100), SchedulerConfig.variant("ios-merge")
        )
        searched = scheduler.optimize_graph(optimized)
        compiled = Engine(v100, passes=True, variant="ios-merge").compile(raw)
        assert compiled.schedule == searched.schedule
        assert list(compiled.graph.nodes) == list(searched.graph.nodes)

    def test_plain_optimize_graph_does_not_warn(self, v100, fig2):
        scheduler = IOSScheduler(SimulatedCostModel(v100))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            scheduler.optimize_graph(fig2)
