"""Tests for the staged compile pipeline (repro.engine.Engine)."""

from __future__ import annotations

import gc
import warnings

import pytest

from repro.core import IOSScheduler, PruningStrategy, SchedulerConfig, SimulatedCostModel
from repro.engine import Engine, apply_passes
from repro.experiments import ExperimentContext
from repro.frontend import load
from repro.models import figure2_block
from repro.obs import Tracer
from repro.obs.trace import SPAN
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
        raw = unfuse_activations(load("squeezenet"))
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

    def test_scheduler_and_pruning_are_mutually_exclusive(self, v100):
        with pytest.raises(ValueError, match="not both"):
            Engine(
                v100,
                scheduler=IOSScheduler(SimulatedCostModel(v100)),
                pruning=PruningStrategy(2, 4),
            )

    def test_scheduler_and_variant_are_mutually_exclusive(self, v100):
        with pytest.raises(ValueError, match="not both"):
            Engine(v100, scheduler=IOSScheduler(SimulatedCostModel(v100)), variant="ios-merge")


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

    def test_pass_engine_compiles_structurally_equal_graphs_once(self, v100):
        # With no pass memo, reuse of the rewritten graph is the engine's
        # compile cache: a fresh but equal raw graph is a cache hit.
        engine = Engine(v100, passes=True)
        first = engine.compile(unfuse_activations(load("squeezenet")))
        second = engine.compile(unfuse_activations(load("squeezenet")))
        assert second is first
        assert engine.stats.compiles == 1
        assert engine.stats.cache_hits == 1
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

    def test_context_shares_engines_per_environment(self, v100, k80):
        from repro.core import PruningStrategy
        from repro.hardware.kernel import TVM_AUTOTUNE_PROFILE

        ctx = ExperimentContext(device=v100)
        a = ctx.engine()
        assert ctx.engine("ios-both", device=v100) is a
        assert ctx.engine("IOS_Both") is a
        assert ctx.for_device(k80).engine(device=v100) is a
        others = [
            ctx.engine("ios-merge"),
            ctx.engine(pruning=PruningStrategy(1, 2)),
            ctx.engine(device=k80),
        ]
        assert len({id(engine) for engine in [a, *others]}) == 4
        # A context on another kernel profile compiles with that profile.
        tvm = ExperimentContext(device=v100, profile=TVM_AUTOTUNE_PROFILE).engine()
        assert tvm is not a
        assert tvm.profile is TVM_AUTOTUNE_PROFILE
        assert a.profile is not TVM_AUTOTUNE_PROFILE
        # Another context owns other engines.
        assert ExperimentContext(device=v100).engine() is not a

    def test_context_distinguishes_tweaked_presets(self, v100):
        # A customised device that keeps a preset's name must get its own
        # engine: the cost model depends on the spec, not the label.
        ctx = ExperimentContext(device=v100)
        tweaked = v100.scaled(num_sms=v100.num_sms // 2)
        assert tweaked.name == v100.name
        assert ctx.engine(device=tweaked) is not ctx.engine(device=v100)
        assert ctx.engine(device=tweaked).device is tweaked


class TestTracedCompile:
    def test_pass_iterations_are_traced_whatever_compiled_before(self):
        # The pass stage keeps no state between engines: a second engine's
        # traced compile of the same model runs and records every pass.
        Engine("v100", passes=True, tracer=Tracer()).compile(load("squeezenet"))
        tracer = Tracer()
        compiled = Engine("v100", passes=True, tracer=tracer).compile(load("squeezenet"))
        records = [r for r in tracer.records if r.track == "compile/passes"]
        assert all(r.kind == SPAN for r in records)
        pass_stats = compiled.search.pass_stats
        pass_spans = [r for r in records if not r.name.startswith("iteration ")]
        assert [r.name for r in pass_spans] == [
            s.name for _ in range(pass_stats[0].runs) for s in pass_stats
        ]
        assert len(records) - len(pass_spans) == pass_stats[0].runs
        assert sum(r.args["rewrites"] for r in pass_spans) == sum(
            s.rewrites for s in pass_stats
        )


class TestShimEquivalence:
    """Engine.compile must reproduce the bare IOSScheduler search it wraps."""

    @pytest.mark.parametrize("model", ["squeezenet", "inception_v3"])
    def test_engine_matches_the_search_primitive_on_the_zoo(self, model, v100):
        graph = load(model)
        searched = IOSScheduler(SimulatedCostModel(v100)).optimize_graph(graph)
        compiled = Engine(v100).compile(graph)
        assert compiled.schedule == searched.schedule
        assert compiled.search.predicted_latency_ms == pytest.approx(
            searched.predicted_latency_ms
        )

    def test_equivalence_with_passes_and_variant(self, v100):
        raw = unfuse_activations(load("squeezenet"))
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
