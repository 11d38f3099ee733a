"""Tests for the persistent schedule registry."""

from __future__ import annotations

import json
import re
import warnings
from pathlib import Path

import pytest

from repro.core import IOSScheduler, PruningStrategy
from repro.engine import ArtifactMismatchError, CompiledModel, Engine
from repro.hardware.kernel import TENSORRT_PROFILE
from repro.models import chain_graph, diamond_graph
from repro.serve import ScheduleRegistry

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
        path = registry.path_for("m", 2, v100)
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
        for batch_size, device in [(1, v100), (2, v100), (1, k80)]:
            assert registry.path_for("m", batch_size, device).exists()
        assert len(registry.engine_for(v100).compiled_models()) == 2
        assert len(registry.engine_for(k80).compiled_models()) == 1

    def test_two_names_with_one_graph_each_get_a_file(self, registry, tmp_path, v100):
        # "alpha" and "beta" build the same chain: the engine compiles it
        # once, and the second name's lookup is a memory hit that still
        # persists its own file.
        registry.get("alpha", 1, v100)
        registry.get("beta", 1, v100)
        assert (registry.stats.searches, registry.stats.memory_hits) == (1, 1)
        assert registry.path_for("alpha", 1, v100).exists()
        assert registry.path_for("beta", 1, v100).exists()

        fresh = ScheduleRegistry(root=tmp_path, graph_builder=chain_builder)
        fresh.get("beta", 1, v100)
        fresh.get("alpha", 1, v100)
        assert fresh.stats.searches == 0

    def test_in_memory_registry_never_touches_disk(self, v100):
        registry = ScheduleRegistry(root=None, graph_builder=chain_builder)
        registry.get("m", 1, v100)
        assert registry.path_for("m", 1, v100) is None
        assert registry.stats.searches == 1

    def test_warmup_then_zero_searches(self, registry, tmp_path, v100):
        registry.warmup("m", [1, 2, 4], v100)
        assert registry.stats.searches == 3

        fresh = ScheduleRegistry(root=tmp_path, graph_builder=chain_builder)
        fresh.warmup("m", [1, 2, 4], v100)
        assert fresh.stats.searches == 0
        assert fresh.stats.disk_hits == 3


class TestFileNames:
    def test_name_covers_profile_variant_and_served_graph_fingerprint(self, registry, v100):
        fingerprint = registry.graph_for("m", 1).fingerprint()
        assert registry.path_for("m", 1, v100).name == (
            f"v100__cudnn__ios-both__bs1__{fingerprint}.json"
        )
        assert registry.path_for("m", 1, "v100") == registry.path_for("m", 1, v100)


class TestFailureModes:
    def test_corrupted_entry_is_dropped_and_recompiled(self, registry, tmp_path, v100):
        registry.get("m", 1, v100)
        path = registry.path_for("m", 1, v100)
        path.write_text("{not json")

        fresh = ScheduleRegistry(root=tmp_path, graph_builder=chain_builder)
        fresh.get("m", 1, v100)
        assert fresh.stats.corrupt_entries == 1
        assert fresh.stats.searches == 1
        # The rewritten entry must be a valid full artifact again.
        assert Engine(v100).load(path).schedule.graph_name == "chain"

    def test_wrong_shape_json_is_dropped_and_recompiled(self, registry, tmp_path, v100):
        # Valid JSON of the wrong shape (here a list) must be treated exactly
        # like a truncated file, not crash the lookup.
        registry.get("m", 1, v100)
        path = registry.path_for("m", 1, v100)
        path.write_text("[1, 2, 3]")

        fresh = ScheduleRegistry(root=tmp_path, graph_builder=chain_builder)
        fresh.get("m", 1, v100)
        assert fresh.stats.corrupt_entries == 1
        assert fresh.stats.searches == 1

    def test_entry_for_wrong_graph_raises(self, registry, v100):
        path = registry.path_for("m", 1, v100)
        Engine(v100).compile(diamond_graph()).save(path)
        with pytest.raises(ArtifactMismatchError) as excinfo:
            registry.get("m", 1, v100)
        assert excinfo.value.field == "source"
        assert registry.engine_for(v100).compiled_models() == []

    @pytest.mark.parametrize("name", [
        "v100__ios-both__bs1.json",                    # no fingerprint
        "v100__ios-both__bs1__{fingerprint}.json",     # no kernel profile
    ])
    def test_files_of_older_layouts_are_ignored(self, registry, tmp_path, v100, name):
        registry.get("m", 1, v100)
        path = registry.path_for("m", 1, v100)
        stale = path.with_name(name.format(fingerprint=registry.graph_for("m", 1).fingerprint()))
        path.rename(stale)

        fresh = ScheduleRegistry(root=tmp_path, graph_builder=chain_builder)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fresh.get("m", 1, v100)
        assert fresh.stats.searches == 1
        assert fresh.stats.corrupt_entries == 0
        assert stale.exists()
        assert path.exists()

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
        assert both.path_for("m", 1, v100) != merge.path_for("m", 1, v100)

    def test_profile_is_part_of_the_key(self, tmp_path, v100):
        # A schedule searched under one kernel library's costs must never be
        # served under another: a second profile on the same root searches.
        cudnn = ScheduleRegistry(root=tmp_path, graph_builder=chain_builder)
        cudnn.get("m", 1, v100)
        tensorrt = ScheduleRegistry(root=tmp_path, graph_builder=chain_builder,
                                    profile=TENSORRT_PROFILE)
        served = tensorrt.get_compiled("m", 1, v100)
        assert tensorrt.stats.searches == 1
        assert tensorrt.stats.disk_hits == 0
        assert served.profile is TENSORRT_PROFILE
        assert served.schedule == Engine(v100, profile=TENSORRT_PROFILE).compile(
            chain_builder("m", 1)).schedule
        assert tensorrt.path_for("m", 1, v100) != cudnn.path_for("m", 1, v100)
        assert cudnn.path_for("m", 1, v100).exists()

        warm = ScheduleRegistry(root=tmp_path, graph_builder=chain_builder,
                                profile=TENSORRT_PROFILE)
        assert warm.get_compiled("m", 1, v100).profile is TENSORRT_PROFILE
        assert (warm.stats.searches, warm.stats.disk_hits) == (0, 1)


class TestCompiledArtifacts:
    def test_persisted_entry_is_a_full_artifact(self, registry, v100):
        registry.get("m", 1, v100)
        path = registry.path_for("m", 1, v100)
        compiled = Engine(v100).load(path)
        assert compiled.schedule.graph_name == "chain"
        assert compiled.plan.num_stages() == len(compiled.schedule)
        assert compiled.fingerprint == registry.graph_for("m", 1).fingerprint()
        assert compiled.latency_ms() > 0

    def test_warm_start_performs_zero_searches_even_without_a_scheduler(
            self, registry, tmp_path, v100, monkeypatch):
        # The artifact alone must be enough: with the DP search disabled a
        # fresh registry still serves every warm entry.
        registry.warmup("m", [1, 2], v100)
        expected = registry.get("m", 1, v100)

        def exploding_search(self, graph, **kwargs):
            raise AssertionError("a warm start must not search")

        monkeypatch.setattr(IOSScheduler, "optimize_graph", exploding_search)
        warm = ScheduleRegistry(root=tmp_path, graph_builder=chain_builder)
        compiled = warm.get_compiled("m", 1, v100)
        warm.get_compiled("m", 2, v100)
        assert warm.stats.searches == 0
        assert warm.stats.disk_hits == 2
        assert compiled.schedule == expected

    def test_get_compiled_and_get_agree(self, registry, v100):
        compiled = registry.get_compiled("m", 2, v100)
        assert registry.get("m", 2, v100) is compiled.schedule
        assert registry.stats.memory_hits == 1

    def test_bare_schedule_document_is_a_corrupt_entry(self, registry, tmp_path, v100):
        compiled = registry.get_compiled("m", 1, v100)
        path = registry.path_for("m", 1, v100)
        path.write_text(json.dumps(compiled.schedule.to_dict()))

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
        path = registry.path_for("m", 1, v100)
        data = json.loads(path.read_text())
        data["format_version"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(ArtifactMismatchError) as excinfo:
            Engine(v100).load(path)
        assert excinfo.value.field == "format_version"

        fresh = ScheduleRegistry(root=tmp_path, graph_builder=chain_builder)
        # The load itself must miss but leave the foreign-version file alone
        # (unlike a corrupt entry, which is unlinked on sight).
        graph = fresh.graph_for("m", 1)
        assert fresh._load(fresh.engine_for(v100), path, graph) is None
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
        path = registry.path_for("m", 1, v100)
        path.write_text(json.dumps(_edit_field(json.loads(path.read_text()), field, delete=True)))
        with pytest.raises(ValueError, match=re.escape(repr(field))):
            CompiledModel.from_dict(json.loads(path.read_text()))
        # The engine's loader reports the malformed field too, not a
        # provenance mismatch against the missing value.
        with pytest.raises(ValueError, match=re.escape(repr(field))) as excinfo:
            Engine(v100).load(path)
        assert not isinstance(excinfo.value, ArtifactMismatchError)

        fresh = ScheduleRegistry(root=tmp_path, graph_builder=chain_builder)
        fresh.get("m", 1, v100)
        assert fresh.stats.corrupt_entries == 1
        assert fresh.stats.searches == 1

    @pytest.mark.parametrize("field", ARTIFACT_FIELDS)
    def test_mistyped_field_is_a_typed_error(self, registry, v100, field):
        data = registry.get_compiled("m", 1, v100).to_dict()
        with pytest.raises(ValueError, match=re.escape(repr(field))):
            CompiledModel.from_dict(_edit_field(data, field, value=None))

    def test_engine_load_of_a_non_artifact_names_the_problem(self, tmp_path, v100):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            Engine(v100).load(path)
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="'format'") as excinfo:
            Engine(v100).load(path)
        assert not isinstance(excinfo.value, ArtifactMismatchError)


#: A foreign compile environment per provenance field the loader checks.
FOREIGN_ENGINES = {
    "device": lambda v100, k80: Engine(k80),
    "profile": lambda v100, k80: Engine(v100, profile=TENSORRT_PROFILE),
    "variant": lambda v100, k80: Engine(v100, variant="ios-merge"),
    "schedule.origin": lambda v100, k80: Engine(v100, pruning=PruningStrategy(1, 1)),
    "passes": lambda v100, k80: Engine(v100, passes=True),
}


class TestProvenance:
    @pytest.mark.parametrize("field", sorted(FOREIGN_ENGINES))
    def test_foreign_artifact_is_refused_by_engine_and_registry(
            self, registry, v100, k80, field):
        # An artifact of the served graph, compiled in another environment,
        # sits exactly where the registry looks for its own.
        path = registry.path_for("m", 1, v100)
        foreign = FOREIGN_ENGINES[field](v100, k80)
        foreign.compile(registry.graph_for("m", 1)).save(path)

        with pytest.raises(ArtifactMismatchError) as from_engine:
            Engine(v100).load(path)
        with pytest.raises(ArtifactMismatchError) as from_registry:
            registry.get("m", 1, v100)
        assert from_engine.value.field == from_registry.value.field == field
        assert registry.engine_for(v100).compiled_models() == []
        assert (registry.stats.disk_hits, registry.stats.searches) == (0, 0)
        assert registry.stats.corrupt_entries == 0
        assert path.exists()


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
        assert raw.graph_for("m", 1).fingerprint() != opt.graph_for("m", 1).fingerprint()
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
        path = registry.path_for(model, 1, v100)
        assert path.parent == tmp_path / "some_dir_model.json"
        assert path.exists()

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
        assert registry.path_for(model, 4, v100).exists()
