"""Tests for the persistent schedule registry."""

from __future__ import annotations

import json
import re
import warnings
from pathlib import Path

import pytest

from repro.core import Schedule, Stage
from repro.engine import CompiledModel, Engine
from repro.models import chain_graph, diamond_graph
from repro.serve import RegistryError, RegistryKey, ScheduleRegistry

#: Every field ``CompiledModel.to_dict()`` writes; ``source.*`` are sub-keys.
ARTIFACT_FIELDS = [
    "format", "format_version", "device", "profile", "variant", "source",
    "fingerprint", "graph", "schedule", "stats",
    "source.graph_name", "source.node_digest", "source.fingerprint",
]


def chain_builder(model: str, batch_size: int):
    return chain_graph(length=3, batch_size=batch_size)


@pytest.fixture
def registry(tmp_path):
    return ScheduleRegistry(root=tmp_path, graph_builder=chain_builder)


class TestLookupPath:
    def test_miss_compiles_then_memory_hits(self, registry, v100):
        schedule = registry.get("m", 1, v100)
        assert registry.stats.searches == 1
        again = registry.get("m", 1, v100)
        assert again is schedule
        assert registry.stats.memory_hits == 1
        assert registry.stats.searches == 1

    def test_compiled_schedule_is_persisted_and_reloaded(self, registry, tmp_path, v100):
        schedule = registry.get("m", 2, v100)
        path = registry.path_for(registry.key("m", 2, v100))
        assert path.exists()

        fresh = ScheduleRegistry(root=tmp_path, graph_builder=chain_builder)
        reloaded = fresh.get("m", 2, v100)
        assert fresh.stats.searches == 0
        assert fresh.stats.disk_hits == 1
        assert reloaded == schedule

    def test_distinct_keys_get_distinct_entries(self, registry, v100, k80):
        registry.get("m", 1, v100)
        registry.get("m", 2, v100)
        registry.get("m", 1, k80)
        assert registry.stats.searches == 3
        assert registry.cached_batch_sizes("m", v100) == [1, 2]
        assert registry.cached_batch_sizes("m", k80) == [1]

    def test_in_memory_registry_never_touches_disk(self, v100):
        registry = ScheduleRegistry(root=None, graph_builder=chain_builder)
        registry.get("m", 1, v100)
        assert registry.path_for(registry.key("m", 1, v100)) is None
        assert registry.stats.searches == 1

    def test_warmup_then_zero_searches(self, registry, tmp_path, v100):
        registry.warmup("m", [1, 2, 4], v100)
        assert registry.stats.searches == 3

        fresh = ScheduleRegistry(root=tmp_path, graph_builder=chain_builder)
        fresh.warmup("m", [1, 2, 4], v100)
        assert fresh.stats.searches == 0
        assert fresh.stats.disk_hits == 3


class TestPutAndEnumeration:
    def test_put_and_contains(self, registry, v100):
        graph = chain_builder("m", 1)
        schedule = Schedule(
            graph_name=graph.name, origin="handmade",
            stages=[Stage(operators=(name,)) for name in graph.schedulable_names()],
        )
        registry.put("m", 1, v100, schedule)
        assert registry.contains("m", 1, v100)
        assert registry.get("m", 1, v100) == schedule
        assert registry.stats.searches == 0

    def test_keys_merges_memory_and_disk(self, registry, tmp_path, v100):
        registry.get("alpha", 1, v100)
        registry.get("beta", 2, v100)
        fresh = ScheduleRegistry(root=tmp_path, graph_builder=chain_builder)
        assert fresh.keys() == [
            registry.key("alpha", 1, v100),
            registry.key("beta", 2, v100),
        ]

    def test_key_round_trips_through_filename(self):
        key = RegistryKey("m", 32, "rtx2080ti", "ios-merge", "0123456789abcdef")
        parsed = RegistryKey.from_path("m", Path(key.filename()))
        assert parsed == key

    def test_key_embeds_the_served_graph_fingerprint(self, registry, v100):
        from repro.ir import graph_fingerprint

        key = registry.key("m", 1, v100)
        assert key.fingerprint == graph_fingerprint(registry.graph_for("m", 1))
        assert key.fingerprint in registry.path_for(key).name


class TestFailureModes:
    def test_corrupted_entry_is_dropped_and_recompiled(self, registry, tmp_path, v100):
        registry.get("m", 1, v100)
        path = registry.path_for(registry.key("m", 1, v100))
        path.write_text("{not json")

        fresh = ScheduleRegistry(root=tmp_path, graph_builder=chain_builder)
        fresh.get("m", 1, v100)
        assert fresh.stats.corrupt_entries == 1
        assert fresh.stats.searches == 1
        # The rewritten entry must be a valid full artifact again.
        assert CompiledModel.load(path).schedule.graph_name == "chain"

    def test_wrong_shape_json_is_dropped_and_recompiled(self, registry, tmp_path, v100):
        # Valid JSON of the wrong shape (here a list) must be treated exactly
        # like a truncated file, not crash the lookup.
        registry.get("m", 1, v100)
        path = registry.path_for(registry.key("m", 1, v100))
        path.write_text("[1, 2, 3]")

        fresh = ScheduleRegistry(root=tmp_path, graph_builder=chain_builder)
        fresh.get("m", 1, v100)
        assert fresh.stats.corrupt_entries == 1
        assert fresh.stats.searches == 1

    def test_entry_for_wrong_graph_raises(self, registry, v100):
        path = registry.path_for(registry.key("m", 1, v100))
        Engine(v100).compile(diamond_graph()).save(path)
        with pytest.raises(RegistryError):
            registry.get("m", 1, v100)

    def test_fingerprint_less_file_is_ignored(self, registry, tmp_path, v100):
        registry.get("m", 1, v100)
        key = registry.key("m", 1, v100)
        stale = registry.path_for(key).with_name("v100__ios-both__bs1.json")
        registry.path_for(key).rename(stale)

        fresh = ScheduleRegistry(root=tmp_path, graph_builder=chain_builder)
        assert fresh.keys() == []
        assert fresh.cached_batch_sizes("m", v100) == []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fresh.get("m", 1, v100)
        assert fresh.stats.searches == 1
        assert fresh.stats.corrupt_entries == 0
        assert stale.exists()
        assert fresh.keys() == [key]

    def test_changed_graph_misses_instead_of_reusing_stale_schedule(
            self, registry, tmp_path, v100):
        registry.get("m", 1, v100)
        # The model definition "changes": same name, different structure.
        longer = ScheduleRegistry(
            root=tmp_path,
            graph_builder=lambda model, batch_size: chain_graph(
                length=5, batch_size=batch_size),
        )
        schedule = longer.get("m", 1, v100)
        assert longer.stats.searches == 1  # old entry must not satisfy this
        assert longer.stats.disk_hits == 0
        assert len(schedule.operators()) == len(
            longer.graph_for("m", 1).schedulable_names())

    def test_variant_is_part_of_the_key(self, tmp_path, v100):
        both = ScheduleRegistry(root=tmp_path, graph_builder=chain_builder, variant="ios-both")
        merge = ScheduleRegistry(root=tmp_path, graph_builder=chain_builder, variant="ios-merge")
        both.get("m", 1, v100)
        merge.get("m", 1, v100)
        assert merge.stats.searches == 1  # no cross-variant reuse
        assert both.path_for(both.key("m", 1, v100)) != merge.path_for(merge.key("m", 1, v100))


class TestCompiledArtifacts:
    def test_persisted_entry_is_a_full_artifact(self, registry, v100):
        registry.get("m", 1, v100)
        path = registry.path_for(registry.key("m", 1, v100))
        compiled = CompiledModel.load(path)
        assert compiled.schedule.graph_name == "chain"
        assert compiled.plan.num_stages() == len(compiled.schedule)
        assert compiled.fingerprint == registry.key("m", 1, v100).fingerprint
        assert compiled.latency_ms() > 0

    def test_warm_start_performs_zero_searches_even_without_a_scheduler(
            self, registry, tmp_path, v100):
        # The artifact alone must be enough: a registry whose scheduler
        # factory explodes can still serve every warm entry.
        registry.warmup("m", [1, 2], v100)

        def exploding_factory(device, profile, variant):
            raise AssertionError("warm start must not construct a scheduler")

        warm = ScheduleRegistry(root=tmp_path, graph_builder=chain_builder,
                                scheduler_factory=exploding_factory)
        compiled = warm.get_compiled("m", 1, v100)
        warm.get_compiled("m", 2, v100)
        assert warm.stats.searches == 0
        assert warm.stats.disk_hits == 2
        assert compiled.schedule == registry.get("m", 1, v100)

    def test_get_compiled_and_get_agree(self, registry, v100):
        compiled = registry.get_compiled("m", 2, v100)
        assert registry.get("m", 2, v100) is compiled.schedule
        assert registry.stats.memory_hits == 1

    def test_bare_schedule_document_is_a_corrupt_entry(self, registry, tmp_path, v100):
        compiled = registry.get_compiled("m", 1, v100)
        path = registry.path_for(registry.key("m", 1, v100))
        compiled.schedule.save(path)

        fresh = ScheduleRegistry(root=tmp_path, graph_builder=chain_builder)
        reloaded = fresh.get_compiled("m", 1, v100)
        assert fresh.stats.corrupt_entries == 1
        assert fresh.stats.searches == 1
        assert fresh.stats.disk_hits == 0
        assert reloaded.schedule == compiled.schedule
        assert CompiledModel.is_artifact(json.loads(path.read_text()))

    def test_newer_artifact_version_misses_without_deleting(
            self, registry, tmp_path, v100):
        # A mixed-version or rolled-back deployment sharing a registry dir
        # must never destroy the other version's entries on sight.
        registry.get("m", 1, v100)
        key = registry.key("m", 1, v100)
        path = registry.path_for(key)
        data = json.loads(path.read_text())
        data["format_version"] = 99
        path.write_text(json.dumps(data))

        fresh = ScheduleRegistry(root=tmp_path, graph_builder=chain_builder)
        # The load itself must miss but leave the foreign-version file alone
        # (unlike a corrupt entry, which is unlinked on sight).
        assert fresh._load(fresh.key("m", 1, v100), v100) is None
        assert fresh.stats.corrupt_entries == 0
        assert json.loads(path.read_text())["format_version"] == 99

        # A full lookup then recompiles (one search) and re-persists.
        fresh.get("m", 1, v100)
        assert fresh.stats.searches == 1
        assert json.loads(path.read_text())["format_version"] == 1

    def test_variant_normalization_in_registry_key(self, tmp_path, v100):
        drifted = ScheduleRegistry(root=tmp_path, graph_builder=chain_builder,
                                   variant="IOS_Both")
        assert drifted.variant == "ios-both"
        canonical = ScheduleRegistry(root=tmp_path, graph_builder=chain_builder)
        drifted.get("m", 1, v100)
        canonical.get("m", 1, v100)
        assert canonical.stats.searches == 0  # same key, warm from disk


def _edit_field(data: dict, field: str, value=None, delete: bool = False) -> dict:
    """A copy of ``data`` with the (dotted) ``field`` deleted or replaced."""
    data = json.loads(json.dumps(data))
    *parents, leaf = field.split(".")
    target = data
    for parent in parents:
        target = target[parent]
    if delete:
        del target[leaf]
    else:
        target[leaf] = value
    return data


class TestMalformedArtifacts:
    def test_field_list_covers_the_artifact(self, registry, v100):
        data = registry.get_compiled("m", 1, v100).to_dict()
        assert set(data) | {f"source.{key}" for key in data["source"]} == set(ARTIFACT_FIELDS)

    @pytest.mark.parametrize("field", ARTIFACT_FIELDS)
    def test_missing_field_is_a_typed_error_and_a_corrupt_entry(
            self, registry, tmp_path, v100, field):
        registry.get("m", 1, v100)
        path = registry.path_for(registry.key("m", 1, v100))
        path.write_text(json.dumps(_edit_field(json.loads(path.read_text()), field, delete=True)))
        with pytest.raises(ValueError, match=re.escape(repr(field))):
            CompiledModel.load(path)

        fresh = ScheduleRegistry(root=tmp_path, graph_builder=chain_builder)
        fresh.get("m", 1, v100)
        assert fresh.stats.corrupt_entries == 1
        assert fresh.stats.searches == 1

    @pytest.mark.parametrize("field", ARTIFACT_FIELDS)
    def test_mistyped_field_is_a_typed_error(self, registry, v100, field):
        data = registry.get_compiled("m", 1, v100).to_dict()
        with pytest.raises(ValueError, match=re.escape(repr(field))):
            CompiledModel.from_dict(_edit_field(data, field, value=None))


class TestPassOptimizedEntries:
    def rebuildable(self, model: str, batch_size: int):
        # A graph with fusion opportunities: unfused conv + relu chain.
        from repro.ir import GraphBuilder, TensorShape

        b = GraphBuilder("fusable", TensorShape(batch_size, 3, 8, 8))
        x = b.conv2d("conv", b.input_name, out_channels=4, kernel=3, activation=None)
        b.relu("act", x)
        return b.build()

    def test_optimized_and_raw_schedules_never_collide(self, tmp_path, v100):
        raw = ScheduleRegistry(root=tmp_path, graph_builder=self.rebuildable)
        opt = ScheduleRegistry(root=tmp_path, graph_builder=self.rebuildable, passes=True)
        raw.get("m", 1, v100)
        opt.get("m", 1, v100)
        assert opt.stats.searches == 1  # the raw entry must not be reused
        assert raw.key("m", 1, v100).fingerprint != opt.key("m", 1, v100).fingerprint
        # The optimized graph fused conv+relu into one schedulable operator.
        assert len(opt.graph_for("m", 1).schedulable_names()) == 1
        assert len(raw.graph_for("m", 1).schedulable_names()) == 2

    def test_optimized_entries_are_warm_across_registries(self, tmp_path, v100):
        first = ScheduleRegistry(root=tmp_path, graph_builder=self.rebuildable, passes=True)
        first.get("m", 1, v100)
        second = ScheduleRegistry(root=tmp_path, graph_builder=self.rebuildable, passes=True)
        second.get("m", 1, v100)
        assert second.stats.searches == 0
        assert second.stats.disk_hits == 1


class TestPathLikeModelNames:
    """Model strings may be file paths (the default graph_builder is
    ``repro.frontend.load``); the disk layout must stay one directory deep."""

    def test_model_dirname_sanitizes_paths(self):
        from repro.serve import model_dirname

        assert model_dirname("squeezenet") == "squeezenet"
        assert model_dirname("examples/transformer_block.json") == \
            "examples_transformer_block.json"
        assert model_dirname("..\\..\\evil.json") == "evil.json"
        assert model_dirname("///") == "model"

    def test_path_model_persists_under_a_sanitized_directory(self, tmp_path, v100):
        registry = ScheduleRegistry(root=tmp_path, graph_builder=chain_builder)
        model = "some/dir/model.json"
        registry.get(model, 1, v100)
        path = registry.path_for(registry.key(model, 1, v100))
        assert path.parent == tmp_path / "some_dir_model.json"
        assert path.exists()
        assert registry.cached_batch_sizes(model, v100) == [1]

    def test_path_model_entries_are_warm_across_registries(self, tmp_path, v100):
        model = "some/dir/model.json"
        ScheduleRegistry(root=tmp_path, graph_builder=chain_builder).get(model, 1, v100)
        fresh = ScheduleRegistry(root=tmp_path, graph_builder=chain_builder)
        fresh.get(model, 1, v100)
        assert fresh.stats.searches == 0
        assert fresh.stats.disk_hits == 1

    def test_example_transformer_serves_from_its_file(self, tmp_path, v100):
        examples = Path(__file__).resolve().parents[2] / "examples"
        model = str(examples / "transformer_block.json")
        registry = ScheduleRegistry(root=tmp_path, passes=True)
        schedule = registry.get(model, 4, v100)
        assert schedule.num_stages() > 0
        assert registry.cached_batch_sizes(model, v100) == [4]
