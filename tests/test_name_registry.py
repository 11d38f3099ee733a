"""The one name registry: normalisation, aliases, collisions, the typed error."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.checks import Registry, UnknownNameError, normalize_name
from repro.cluster import CLUSTER_ROUTERS
from repro.core import IOSVariant
from repro.frameworks import FRAMEWORK_REGISTRY
from repro.hardware import DEVICE_REGISTRY
from repro.models import MODEL_REGISTRY
from repro.passes import PASS_REGISTRY
from repro.serve import ADMISSION_POLICIES, ROUTERS

#: Every registry of a user-facing name in the package.
REGISTRIES = [
    DEVICE_REGISTRY, IOSVariant, MODEL_REGISTRY, FRAMEWORK_REGISTRY, PASS_REGISTRY,
    ADMISSION_POLICIES, ROUTERS, CLUSTER_ROUTERS,
]
#: Every registered name and alias, with the registry it belongs to.
SPELLINGS = [
    (registry, spelling)
    for registry in REGISTRIES
    for spelling in (*registry, *registry.aliases)
]
SEPARATORS = st.sampled_from(["", "", "-", "_", " "])


@given(st.sampled_from(SPELLINGS), st.data())
def test_every_name_and_alias_survives_case_separators_and_whitespace(entry, data):
    registry, spelling = entry
    drifted = "".join(
        data.draw(SEPARATORS) + (char.swapcase() if data.draw(st.booleans()) else char)
        for char in spelling
    ) + data.draw(SEPARATORS)
    padded = data.draw(st.sampled_from(["", " ", "\t"])) + drifted + data.draw(
        st.sampled_from(["", " ", "\n"])
    )
    assert registry.canonical(padded) == registry.canonical(spelling)
    assert registry[padded] is registry[spelling]


def test_aliases_point_at_registered_names():
    for registry in REGISTRIES:
        assert set(registry.aliases.values()) <= set(registry), registry.kind


def test_aliases_the_normalisation_covers_are_gone():
    for registry in REGISTRIES:
        for alias, name in registry.aliases.items():
            assert normalize_name(alias) != normalize_name(name), (registry.kind, alias)


@pytest.mark.parametrize("registry", REGISTRIES, ids=lambda registry: registry.kind)
@pytest.mark.parametrize("bad", ["no-such-name", "", None, 3])
def test_an_unknown_name_is_a_key_and_value_error_listing_every_name(registry, bad):
    with pytest.raises(UnknownNameError) as info:
        registry.canonical(bad)
    assert isinstance(info.value, KeyError) and isinstance(info.value, ValueError)
    message = str(info.value)
    assert message.startswith(f"unknown {registry.kind} {bad!r}")
    assert message.endswith(f"registered {registry.kind} names: {', '.join(sorted(registry))}")
    assert bad not in registry


def test_two_names_that_normalise_alike_cannot_both_register():
    registry = Registry("widget")
    registry["fast-path"] = 1
    with pytest.raises(ValueError, match="duplicate widget name 'Fast_Path'"):
        registry["Fast_Path"] = 2
    with pytest.raises(ValueError, match="duplicate widget name 'fast-path'"):
        registry["fast-path"] = 3
    registry["fast-path"] = 1  # registering the same object again is a no-op
    assert list(registry) == ["fast-path"]


def test_an_alias_may_not_shadow_a_name():
    with pytest.raises(ValueError, match="duplicate widget name 'a-b'"):
        Registry("widget", aliases={"ab": "x", "a-b": "y"})
    registry = Registry("widget", aliases={"quick": "fast"})
    with pytest.raises(ValueError, match="duplicate widget name 'Quick'"):
        registry["Quick"] = object()


def test_an_alias_resolves_once_its_name_registers():
    registry = Registry("widget", aliases={"quick": "fast"})
    with pytest.raises(UnknownNameError):
        registry["quick"]
    registry["fast"] = widget = object()
    assert registry["QUICK"] is widget


def test_create_builds_fresh_objects_and_passes_instances_through():
    registry = Registry("widget", instance_of=list)
    registry["pair"] = lambda: [1, 2]
    built = registry.create("Pair")
    assert built == [1, 2] and registry.create("pair") is not built
    assert registry.create(built) is built


def test_deleting_a_name_frees_its_spellings():
    registry = Registry("widget")
    registry["fast-path"] = 1
    del registry["Fast Path"]
    assert "fast-path" not in registry and len(registry) == 0
    registry["fast_path"] = 2
    assert registry["FASTPATH"] == 2
