"""Tests for CompiledModel artifacts: serialization and warm starts."""

from __future__ import annotations

import json

import pytest

from repro.core import PruningStrategy
from repro.engine import ARTIFACT_FORMAT, CompiledModel, Engine
from repro.frontend import load
from repro.models import figure2_block


@pytest.fixture(scope="module")
def compiled(v100):
    return Engine(v100).compile(load("squeezenet", batch_size=2, optimize=False))


class TestRoundTrip:
    def test_save_load_round_trip(self, compiled, tmp_path):
        path = compiled.save(tmp_path / "nested" / "squeezenet.json")
        loaded = CompiledModel.load(path)
        assert loaded.schedule == compiled.schedule
        assert loaded.variant == compiled.variant
        assert loaded.device.name == compiled.device.name
        assert loaded.fingerprint == compiled.fingerprint
        assert loaded.source_fingerprint == compiled.source_fingerprint
        assert list(loaded.graph.nodes) == list(compiled.graph.nodes)
        assert loaded.plan.num_stages() == compiled.plan.num_stages()
        # The loaded artifact executes identically with zero searches.
        assert loaded.search is None
        assert loaded.latency_ms() == pytest.approx(compiled.latency_ms())
        assert loaded.throughput() == pytest.approx(compiled.throughput())

    def test_stats_survive_the_round_trip(self, compiled, tmp_path):
        loaded = CompiledModel.load(compiled.save(tmp_path / "m.json"))
        assert loaded.stats.operators_in == compiled.stats.operators_in
        assert loaded.stats.num_measurements == compiled.stats.num_measurements
        assert [t.stage for t in loaded.stats.stages] == [
            t.stage for t in compiled.stats.stages
        ]

    def test_the_pruned_count_survives_the_round_trip(self, compiled, tmp_path):
        pruned = compiled.stats.num_pruned
        assert pruned == compiled.search.total_pruned > 0
        assert compiled.stats.stage("schedule").detail["pruned"] == pruned
        loaded = CompiledModel.load(compiled.save(tmp_path / "m.json"))
        assert loaded.stats.num_pruned == pruned
        # An artifact written before the DP pruned anything has no count.
        data = compiled.to_dict()
        del data["stats"]["num_pruned"]
        assert CompiledModel.from_dict(data).stats.num_pruned == 0

    def test_artifact_is_marked_and_versioned(self, compiled, tmp_path):
        data = json.loads(compiled.save(tmp_path / "m.json").read_text())
        assert CompiledModel.is_artifact(data)
        assert data["format"] == ARTIFACT_FORMAT
        assert data["format_version"] == 1
        assert not CompiledModel.is_artifact(data["schedule"])  # bare schedule doc

    def test_wrong_format_rejected(self, compiled, tmp_path):
        data = compiled.to_dict()
        data["format"] = "something-else"
        with pytest.raises(ValueError, match="artifact"):
            CompiledModel.from_dict(data)
        data = compiled.to_dict()
        data["format_version"] = 99
        with pytest.raises(ValueError, match="version"):
            CompiledModel.from_dict(data)

    def test_unknown_profile_requires_explicit_override(self, compiled):
        data = compiled.to_dict()
        data["profile"] = "my-custom-lib"
        with pytest.raises(ValueError, match="kernel profile"):
            CompiledModel.from_dict(data)
        loaded = CompiledModel.from_dict(data, profile=compiled.profile)
        assert loaded.profile is compiled.profile


class TestLoadedArtifacts:
    def test_keys_the_loader_does_not_read_are_ignored(self, compiled):
        data = compiled.to_dict()
        data["blocks"] = [{"name": "stem", "start": 0, "count": 1}]
        assert CompiledModel.from_dict(data).schedule == compiled.schedule

    def test_a_loaded_artifact_serves_only_its_own_graph(self, tmp_path, v100):
        graph = _versioned_graph(head_kernel=1)
        path = Engine(v100).compile(graph).save(tmp_path / "m.json")

        warm = Engine(v100)
        warm.load(path)
        assert warm.compile(_versioned_graph(head_kernel=1)).search is None
        recompiled = warm.compile(_versioned_graph(head_kernel=3))
        # A changed graph is a fresh compile: the artifact lends it nothing.
        sources = [s.source for s in recompiled.search.block_stats]
        assert sources == ["search", "search"]
        assert warm.stats.block_searches == 2


def _versioned_graph(head_kernel: int):
    """Two-block graph whose head block can be dirtied independently."""
    from repro.ir.graph import GraphBuilder
    from repro.ir.tensor import TensorShape

    builder = GraphBuilder("versioned", TensorShape(1, 8, 8, 8))
    with builder.block("stem"):
        a = builder.conv2d("stem_conv", builder.input_name, 8, 3)
        builder.relu("stem_relu", a)
    with builder.block("head"):
        builder.conv2d("head_conv", "stem_relu", 8, head_kernel)
    return builder.build()


class TestEngineWarmStart:
    def test_engine_load_seeds_the_compile_cache(self, compiled, tmp_path, v100):
        path = compiled.save(tmp_path / "m.json")
        warm = Engine(v100)
        loaded = warm.load(path)
        assert warm.stats.loads == 1
        # Compiling the same source graph now hits the loaded artifact: the
        # warm engine performs zero scheduler searches.
        again = warm.compile(load("squeezenet", batch_size=2, optimize=False))
        assert again is loaded
        assert warm.stats.searches == 0
        assert warm.stats.cache_hits == 1

    def test_variant_mismatch_is_rejected(self, compiled, tmp_path, v100):
        path = compiled.save(tmp_path / "m.json")
        with pytest.raises(ValueError, match="variant"):
            Engine(v100, variant="ios-merge").load(path)

    def test_pruning_mismatch_is_rejected(self, tmp_path, v100):
        # A schedule searched under a narrower pruning strategy is usually a
        # slower one; it must not warm-start an engine with a wider search.
        narrow = Engine(v100, pruning=PruningStrategy(1, 1))
        path = narrow.compile(figure2_block()).save(tmp_path / "m.json")
        with pytest.raises(ValueError, match=r"pruning 'r=1, s=1'.*'schedule\.origin'"):
            Engine(v100).load(path)
        loaded = Engine(v100, pruning=PruningStrategy(1, 1)).load(path)
        assert loaded.schedule.origin == "ios-both (r=1, s=1)"

    def test_profile_mismatch_is_rejected(self, compiled, tmp_path, v100):
        # A schedule searched under one kernel library's costs must never
        # warm-start an engine compiling with another.
        from repro.hardware.kernel import TVM_AUTOTUNE_PROFILE

        path = compiled.save(tmp_path / "m.json")
        with pytest.raises(ValueError, match="profile"):
            Engine(v100, profile=TVM_AUTOTUNE_PROFILE).load(path)

    def test_device_mismatch_is_rejected(self, compiled, tmp_path, k80):
        # A schedule searched for one device must never warm-start an engine
        # compiling for different hardware.
        path = compiled.save(tmp_path / "m.json")
        with pytest.raises(ValueError, match="device"):
            Engine(k80).load(path)

    def test_loaded_stats_are_marked_unsearched(self, compiled, tmp_path):
        assert compiled.stats.searched
        loaded = CompiledModel.load(compiled.save(tmp_path / "m.json"))
        assert not loaded.stats.searched
        assert "loaded from artifact" in loaded.stats.describe()
