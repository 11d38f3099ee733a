"""Model zoo.

Importing this package registers every model with the registry in
``repro.models.common`` so that :func:`repro.frontend.load` can instantiate
any of them by name.  The four networks benchmarked by the paper (Table 2)
are Inception V3, RandWire, NasNet-A and SqueezeNet (``BENCHMARK_MODELS``);
``transformer_block`` is built through the ONNX-subset importer rather than
hand-assembled.
"""

from .common import (
    BENCHMARK_MODELS,
    MODEL_REGISTRY,
    ModelSpec,
    list_models,
    register_model,
    resolve_zoo_builder,
)
from .toy import (
    chain_graph,
    diamond_graph,
    figure2_block,
    figure3_graph,
    figure5_graph,
    parallel_chains_graph,
)
from .inception_v3 import INCEPTION_BLOCK_NAMES, inception_v3
from .squeezenet import squeezenet
from .randwire import randwire
from .nasnet import nasnet_a
from .resnet import resnet_18, resnet_34, resnet_50
from .transformer import transformer_block, transformer_block_source
from .vgg import alexnet, vgg_16

__all__ = [
    "BENCHMARK_MODELS",
    "MODEL_REGISTRY",
    "ModelSpec",
    "list_models",
    "register_model",
    "resolve_zoo_builder",
    "figure2_block",
    "figure3_graph",
    "figure5_graph",
    "chain_graph",
    "diamond_graph",
    "parallel_chains_graph",
    "inception_v3",
    "INCEPTION_BLOCK_NAMES",
    "squeezenet",
    "randwire",
    "nasnet_a",
    "resnet_18",
    "resnet_34",
    "resnet_50",
    "transformer_block",
    "transformer_block_source",
    "vgg_16",
    "alexnet",
]
