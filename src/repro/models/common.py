"""Model registry and shared helpers for the CNN model zoo.

Every model is exposed as a builder function ``builder(batch_size, **kwargs)``
returning a validated :class:`~repro.ir.graph.Graph`.  Builders are registered
by name so experiments and the CLI can instantiate networks uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..checks import Registry
from ..ir.graph import Graph

__all__ = [
    "ModelBuilder",
    "ModelSpec",
    "MODEL_REGISTRY",
    "register_model",
    "resolve_zoo_builder",
    "list_models",
    "BENCHMARK_MODELS",
]

ModelBuilder = Callable[..., Graph]


@dataclass(frozen=True)
class ModelSpec:
    """Registry entry describing one model family."""

    name: str
    builder: ModelBuilder
    description: str
    default_image_size: int
    paper_blocks: int | None = None
    paper_operators: int | None = None
    operator_type: str = ""


#: Zoo model name (or a spelling of it) -> spec.
MODEL_REGISTRY: Registry[ModelSpec] = Registry("model", aliases={
    "inception": "inception_v3", "nasnet": "nasnet_a", "randwire_small": "randwire",
})

#: The four CNNs benchmarked throughout the paper's evaluation (Table 2).
BENCHMARK_MODELS = ["inception_v3", "randwire", "nasnet_a", "squeezenet"]


def register_model(spec: ModelSpec) -> ModelSpec:
    """Register a model spec; raises on duplicate names."""
    MODEL_REGISTRY[spec.name] = spec
    return spec


def resolve_zoo_builder(name: str) -> ModelBuilder:
    """The builder of the zoo model ``name`` spells (an alias or any spelling).

    Raises :class:`~repro.checks.UnknownNameError` listing every known name.
    """
    return MODEL_REGISTRY[name].builder


#: Names of all registered models, sorted.
list_models = MODEL_REGISTRY.names
