"""Schedule-equivalence harness for the fast compile paths.

The compile-speed work (the block cache, incremental recompilation, parallel
block search, cost-model caching) is only admissible because every fast path
produces *bit-identical* schedules to a plain serial DP search.  These
property tests pin that invariant down:

* block-cached searches, first and repeated, match a from-scratch serial
  search on every zoo model tested and on 50 seeded random DAGs;
* the multiprocessing fan-out (``jobs > 1``) matches the serial path;
* an engine recompiling a changed graph re-searches only dirty blocks, takes
  the rest from its scheduler's block cache, and equals a cold compile of
  the mutated graph;
* blocks that share a wiring but not their shapes share one ending table,
  and their searches still equal the plain search state for state; the
  table holds each distinct ending once, as one int in one flat entry;
* the group decomposition the ending enumeration hands the cost model equals
  ``connected_groups`` — the ordering contract the whole pricing path
  relies on;
* the DP's branch-and-bound, which skips pricing endings whose roofline floor
  already loses, matches a search that prices every ending, in every IOS
  variant.

Equality is checked at the bit level: stage operator tuples, strategies, and
the ``repr`` of every per-block latency (``repr`` round-trips floats, so two
equal reprs mean identical doubles).
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.core import (
    VALID_VARIANTS,
    BlockIndex,
    FlopsCostModel,
    IOSScheduler,
    PruningStrategy,
    SchedulerConfig,
    SimulatedCostModel,
    connected_groups,
    enumerate_endings,
    groups_of_mask,
)
from repro.core import dp_scheduler
from repro.engine import Engine
from repro.ir.graph import GraphBuilder
from repro.ir.tensor import TensorShape
from repro.frontend import load
from repro.hardware import get_device
from repro.models import list_models

SEEDS = range(50)
ZOO_MODELS = ["squeezenet", "resnet_18", "vgg_16"]


def _cost_model():
    return FlopsCostModel(flops_per_ms=1e9, overhead_ms=0.01)


def _plain_scheduler():
    """A scheduler with every reuse path off: the ground-truth serial search."""
    return IOSScheduler(_cost_model(), SchedulerConfig(reuse_identical_blocks=False))


def _fast_scheduler():
    """A scheduler with the block cache enabled."""
    return IOSScheduler(_cost_model(), SchedulerConfig())


def stage_signature(schedule):
    """The byte-level identity of a schedule: operators + strategy per stage."""
    return tuple((stage.operators, stage.strategy.value) for stage in schedule.stages)


def latency_signature(result):
    """Exact per-block DP optima; ``repr`` equality means identical doubles."""
    return tuple(repr(stats.optimized_latency_ms) for stats in result.block_stats)


def assert_results_identical(expected, actual):
    assert stage_signature(actual.schedule) == stage_signature(expected.schedule)
    assert latency_signature(actual) == latency_signature(expected)


def assert_block_cached_equals_plain(graph):
    """A cold and a repeated block-cached search both equal the plain search."""
    plain = _plain_scheduler().optimize_graph(graph)
    scheduler = _fast_scheduler()
    assert_results_identical(plain, scheduler.optimize_graph(graph))

    # The second search of the same graph takes every block from the cache.
    again = scheduler.optimize_graph(graph)
    assert_results_identical(plain, again)
    assert not any(
        stats.source in ("search", "parallel") for stats in again.block_stats
    )


class TestBlockCachedEqualsSerial:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_graphs(self, seed, random_graph_factory):
        assert_block_cached_equals_plain(random_graph_factory(seed))

    @pytest.mark.parametrize("model", ZOO_MODELS)
    def test_zoo_models(self, model):
        assert_block_cached_equals_plain(load(model))


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_graphs(self, seed, random_graph_factory):
        graph = random_graph_factory(seed)
        serial = _plain_scheduler().optimize_graph(graph, jobs=1)
        fanout = _fast_scheduler().optimize_graph(graph, jobs=2)
        assert_results_identical(serial, fanout)

    def test_zoo_model(self):
        graph = load("squeezenet")
        serial = _plain_scheduler().optimize_graph(graph, jobs=1)
        fanout = _fast_scheduler().optimize_graph(graph, jobs=2)
        assert_results_identical(serial, fanout)

    def test_parallel_compile_reports_the_serial_search_cost(self):
        # Worker processes measure on their own cost-model clones, so the
        # engine must take the search cost from the block results.  The
        # profiling time is a float sum grouped per block on the workers,
        # hence equal to rounding, not bit for bit.
        serial, fanout = (
            Engine("v100", jobs=jobs).compile_model("inception_v3") for jobs in (1, 2)
        )
        # The search pool lives for one compile: no worker outlives it.
        assert multiprocessing.active_children() == []
        assert "parallel" in {stats.source for stats in fanout.search.block_stats}
        assert serial.stats.num_measurements == 1897
        assert fanout.stats.num_measurements == serial.stats.num_measurements
        assert fanout.stats.profiling_gpu_ms == pytest.approx(
            serial.stats.profiling_gpu_ms, rel=1e-12
        )
        assert serial.stats.profiling_gpu_ms == pytest.approx(934.803, abs=1e-3)
        assert (
            fanout.stats.stage("schedule").detail["measurements"]
            == serial.stats.stage("schedule").detail["measurements"]
            == 1897
        )


def _two_block_graph(stem_kernel=3, head_kernel=1, name="incr-model"):
    """Two explicit blocks; either block can be dirtied independently."""
    builder = GraphBuilder(name, TensorShape(1, 8, 8, 8))
    with builder.block("stem"):
        a = builder.conv2d("stem_conv", builder.input_name, 8, stem_kernel)
        b = builder.relu("stem_relu", a)
    with builder.block("head"):
        c = builder.conv2d("head_conv", b, 8, head_kernel)
        d = builder.conv2d("head_conv2", b, 8, head_kernel)
        builder.add("head_add", [c, d])
    return builder.build()


def _flops_engine():
    return Engine("v100", scheduler=IOSScheduler(_cost_model(), SchedulerConfig()))


class TestIncrementalRecompilation:
    def test_only_the_dirty_block_is_researched(self):
        engine = _flops_engine()
        engine.compile(_two_block_graph(head_kernel=1))
        searched_before = engine.stats.block_searches
        second = engine.compile(_two_block_graph(head_kernel=3))
        assert engine.stats.block_searches == searched_before + 1
        sources = {s.block_name: s.source for s in second.search.block_stats}
        assert sources["stem"] == "block-cache"
        assert sources["head"] in ("search", "parallel")

    def test_upstream_mutation_still_reuses_the_clean_downstream_block(self):
        # The stem's kernel changes but its boundary shapes do not, so the
        # head's fingerprint is unchanged and its search is reused.
        engine = _flops_engine()
        engine.compile(_two_block_graph(stem_kernel=3))
        second = engine.compile(_two_block_graph(stem_kernel=1))
        sources = {s.block_name: s.source for s in second.search.block_stats}
        assert sources["stem"] in ("search", "parallel")
        assert sources["head"] == "block-cache"

    def test_without_block_reuse_a_recompile_researches_every_block(self):
        engine = Engine(
            "v100",
            scheduler=IOSScheduler(
                _cost_model(), SchedulerConfig(reuse_identical_blocks=False)
            ),
        )
        engine.compile(_two_block_graph(head_kernel=1))
        second = engine.compile(_two_block_graph(head_kernel=3))
        assert [s.source for s in second.search.block_stats] == ["search", "search"]
        assert engine.stats.block_searches == 4

    def test_incremental_compile_equals_a_cold_compile(self):
        engine = _flops_engine()
        engine.compile(_two_block_graph(head_kernel=1))
        incremental = engine.compile(_two_block_graph(head_kernel=3))
        sources = [s.source for s in incremental.search.block_stats]
        assert sources.count("block-cache") == 1
        cold = _flops_engine().compile(_two_block_graph(head_kernel=3))
        assert stage_signature(incremental.schedule) == stage_signature(cold.schedule)
        assert latency_signature(incremental.search) == latency_signature(cold.search)
        assert repr(incremental.latency_ms()) == repr(cold.latency_ms())

    @pytest.mark.parametrize("seed", [5, 23, 41])
    def test_recompiling_an_identical_random_graph_reuses_every_block(
        self, seed, random_graph_factory
    ):
        engine = _flops_engine()
        first = engine.compile(random_graph_factory(seed))
        assert engine.compile(random_graph_factory(seed)) is first  # whole-model cache
        engine.clear_cache()
        second = engine.compile(random_graph_factory(seed))
        assert all(
            s.source in ("block-cache", "empty") for s in second.search.block_stats
        )
        assert_results_identical(first.search, second.search)


class TestImportedGraphs:
    """Frontend-imported graphs go through the same fast paths as zoo models:
    block-cached, parallel and recompile searches must stay bit-identical."""

    def _transformer(self, heads=2):
        from pathlib import Path

        from repro.frontend import load

        examples = Path(__file__).resolve().parents[2] / "examples"
        if heads == 2:
            return load(examples / "transformer_block.json")
        from repro.models import transformer_block

        return transformer_block(heads=heads)

    def test_block_cached_equals_serial_on_the_imported_transformer(self):
        assert_block_cached_equals_plain(self._transformer())

    def test_parallel_equals_serial_on_the_imported_transformer(self):
        graph = self._transformer()
        serial = _plain_scheduler().optimize_graph(graph, jobs=1)
        fanout = _fast_scheduler().optimize_graph(graph, jobs=2)
        assert_results_identical(serial, fanout)

    def test_head_count_change_only_researches_dirty_blocks(self):
        # Going from 2 to 4 heads rewrites the qkv/attention/merge blocks but
        # leaves the ffn block (same boundary shapes) in the block cache.
        engine = _flops_engine()
        engine.compile(self._transformer(heads=2))
        second = engine.compile(self._transformer(heads=4))
        sources = {s.block_name: s.source for s in second.search.block_stats}
        assert sources["ffn"] == "block-cache"
        assert sources["attention"] in ("search", "parallel")
        cold = _flops_engine().compile(self._transformer(heads=4))
        assert stage_signature(second.schedule) == stage_signature(cold.schedule)


def _same_wiring_graph(channels=(8, 16, 24)):
    """One block per channel count, every block wired the same way."""
    builder = GraphBuilder("same-wiring", TensorShape(1, 8, 8, 8))
    current = builder.input_name
    for b, width in enumerate(channels):
        with builder.block(f"cell{b}"):
            left = builder.conv2d(f"c{b}_left", current, width, 1)
            mid = builder.conv2d(f"c{b}_mid", current, width, 3)
            mid2 = builder.conv2d(f"c{b}_mid2", mid, width, 3)
            right = builder.relu(f"c{b}_right", current)
            joined = builder.add(f"c{b}_add", [left, mid2])
            current = builder.concat(f"c{b}_out", [joined, right])
    return builder.build()


def _wide_same_wiring_graph(channels=(8, 16)):
    """Two alike-wired blocks of four two-conv branches joined by a concat.

    Nine operators per block, so ending masks run past 256, the top of
    CPython's small-int cache: equal masks are then only one object if the
    ending table makes them one.
    """
    builder = GraphBuilder("wide-same-wiring", TensorShape(1, 8, 8, 8))
    current = builder.input_name
    for b, width in enumerate(channels):
        with builder.block(f"cell{b}"):
            branches = [
                builder.conv2d(
                    f"c{b}_b{i}_2", builder.conv2d(f"c{b}_b{i}_1", current, width, 1), width, 3
                )
                for i in range(4)
            ]
            current = builder.concat(f"c{b}_out", branches)
    return builder.build()


class TestSharedEndingTables:
    """Blocks with one wiring share their ending table, and nothing else moves."""

    def _wirings(self, graph):
        """Each non-empty block's wiring: its successor masks."""
        return [
            tuple(BlockIndex(graph, names).succ_mask)
            for names in map(graph.schedulable_names, graph.blocks)
            if names
        ]

    @pytest.mark.parametrize("model", ["same-wiring", "inception_v3"])
    def test_shared_tables_equal_the_plain_search(self, model):
        graph = _same_wiring_graph() if model == "same-wiring" else load(model)
        wirings = self._wirings(graph)
        assert len(wirings) - len(set(wirings)) >= 2  # some wiring recurs
        plain = _plain_scheduler().optimize_graph(graph)
        fast = _fast_scheduler().optimize_graph(graph)
        assert_results_identical(plain, fast)
        for expected, actual in zip(plain.block_stats, fast.block_stats):
            assert (actual.num_states, actual.num_transitions) == (
                expected.num_states, expected.num_transitions
            )
            # A block-cache hit (inception's mixed_6d twin of mixed_6c)
            # reports no measurements of its own, by design.
            if actual.source == "search":
                assert actual.num_measurements == expected.num_measurements

    def test_a_repeated_wiring_enumerates_no_endings(self, monkeypatch):
        graph = _same_wiring_graph()
        assert len(set(self._wirings(graph))) == 1
        calls = []
        original = dp_scheduler.enumerate_endings

        def counting(index, state, pruning=None):
            calls.append(state)
            return original(index, state, pruning)

        monkeypatch.setattr(dp_scheduler, "enumerate_endings", counting)

        def calls_per_block(scheduler):
            counts = []
            for block in graph.blocks:
                before = len(calls)
                scheduler.optimize_block(graph, block)
                counts.append(len(calls) - before)
            return counts

        fast = calls_per_block(_fast_scheduler())
        plain = calls_per_block(_plain_scheduler())
        assert fast[0] == plain[0] > 0
        assert fast[1:] == [0, 0]
        assert plain[1:] == [plain[0], plain[0]]

    def test_each_distinct_ending_is_one_flat_entry(self):
        graph = _wide_same_wiring_graph()
        scheduler = _fast_scheduler()
        for block in graph.blocks:
            scheduler.optimize_block(graph, block)
        (endings_of, entries), = scheduler._ending_tables.values()
        held = [ending for endings in endings_of.values() for ending in endings]
        assert max(held) > 256
        assert len(held) > len(entries)  # endings recur across states
        assert len({id(ending) for ending in held}) == len(set(held)) == len(entries)
        assert all(entries[ending][0] is ending for ending in held)
        index = BlockIndex(graph, graph.schedulable_names(graph.blocks[0]))
        for ending, entry in entries.items():
            assert entry == (ending, *groups_of_mask(index, ending))


class TestGroupDecomposition:
    """The DP's group masks must equal ``connected_groups`` exactly."""

    @pytest.mark.parametrize("seed", range(10))
    def test_enumerated_groups_match_connected_groups(self, seed, random_graph_factory):
        graph = random_graph_factory(seed)
        pruning = PruningStrategy(max_group_size=3, max_groups=8)
        for block in graph.blocks:
            names = graph.schedulable_names(block)
            if not names:
                continue
            index = BlockIndex(graph, names)
            for ending, group_masks in enumerate_endings(
                index, index.full_mask, pruning
            ):
                expected = connected_groups(graph, index.names_of(ending))
                assert [list(index.names_of(m)) for m in group_masks] == expected
                assert group_masks == groups_of_mask(index, ending)


class _PricesEveryEnding(SimulatedCostModel):
    """The simulated cost model without a stage floor: the DP prunes nothing."""

    def stage_floors(self, graph, op_names):
        return None


#: The two largest networks are searched in part to keep tier-1 fast: one
#: block of each cell or stage kind.  ``bench/run.py``'s compile-paper golden
#: pins their whole schedules.
PARTIAL_BLOCKS = {
    "nasnet_a": ("cell_1_normal", "cell_5_reduction"),
    "randwire": ("stage1", "stage2"),
}


class TestBranchAndBoundEqualsPlain:
    """The floor only skips measurements: schedules and DP counters stay put."""

    def _search(self, cost_model, graph, variant):
        scheduler = IOSScheduler(cost_model, SchedulerConfig.variant(variant))
        wanted = PARTIAL_BLOCKS.get(graph.name)
        return [
            scheduler.optimize_block(graph, block)
            for block in graph.blocks
            if wanted is None or block.name in wanted
        ]

    def _assert_equivalent(self, model, variant):
        graph = _wide_merge_graph() if model == "wide-merge" else load(model)
        v100 = get_device("v100")
        bounded = self._search(SimulatedCostModel(v100), graph, variant)
        plain = self._search(_PricesEveryEnding(v100), graph, variant)
        assert len(bounded) == len(plain) > 0
        for (stages, stats), (plain_stages, plain_stats) in zip(bounded, plain):
            assert [(s.operators, s.strategy) for s in stages] == [
                (s.operators, s.strategy) for s in plain_stages
            ]
            assert repr(stats.optimized_latency_ms) == repr(plain_stats.optimized_latency_ms)
            assert (stats.num_states, stats.num_transitions) == (
                plain_stats.num_states, plain_stats.num_transitions
            )
            assert stats.num_measurements <= plain_stats.num_measurements
            assert plain_stats.num_pruned == 0
        return [stats for _, stats in bounded], [stats for _, stats in plain]

    @pytest.mark.parametrize("model", list_models())
    def test_zoo_model(self, model):
        bounded, plain = self._assert_equivalent(model, "ios-both")
        if model == "inception_v3":
            assert sum(s.num_measurements for s in bounded) < sum(
                s.num_measurements for s in plain
            )
            assert sum(s.num_pruned for s in bounded) > 0

    @pytest.mark.parametrize("variant", VALID_VARIANTS)
    @pytest.mark.parametrize("model", ["squeezenet", "inception_v3", "wide-merge"])
    def test_every_variant(self, model, variant):
        self._assert_equivalent(model, variant)

    def test_a_winning_merge_is_never_bounded(self):
        # Two merged stages of tiny convolutions price below the five-stream
        # floor of all five, yet one merged kernel of all five beats both.
        bounded, _ = self._assert_equivalent("wide-merge", "ios-both")
        assert bounded[0].num_pruned > 0
        graph = _wide_merge_graph()
        scheduler = IOSScheduler(SimulatedCostModel(get_device("v100")))
        stages, _ = scheduler.optimize_block(graph, graph.blocks[0])
        assert (len(stages[0].operators), stages[0].strategy.value) == (5, "operator merge")


def _wide_merge_graph():
    """Five tiny convolutions of one input, then their concat."""
    builder = GraphBuilder("wide-merge", TensorShape(1, 8, 4, 4))
    with builder.block("wide"):
        convs = [builder.conv2d(f"conv{i}", builder.input_name, 8, 1) for i in range(5)]
        builder.concat("joined", convs)
    return builder.build()
