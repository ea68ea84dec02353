"""Built-in definitions of the networks the paper evaluates.

The paper uses VGGNet-E (a.k.a. VGG-19: 16 conv + 3 FC) and AlexNet; the
headline comparison (Figure 5, Table 1) is on the first five convolutional
plus two pooling layers of VGG-E, matching the fusion choice of Alwani et
al. [MICRO'16].  AlexNet (Table 2) is evaluated with its five conv layers,
pooling and LRN layers, FC layers omitted.

All definitions are shape-faithful to the original publications.  AlexNet
is provided both in its original grouped form and in the ``groups=1``
variant the FPGA papers evaluate (single-device, no dual-GPU split).

Branching models come in two forms: the native DAG definitions
(:func:`googlenet_graph`, :func:`tiny_resnet`, ... — see
:func:`graph_catalog` and :mod:`repro.nn.graph`) that the branch-aware
optimizer consumes directly, and the legacy macro-layer flattenings
(:func:`googlenet` with composite Inception layers) kept as the
comparison baseline for the chain-only paths.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Union

from repro.errors import ReproError
from repro.nn.caffe import model_from_prototxt
from repro.nn.graph import Graph, GraphNode
from repro.nn.layers import (
    ConcatLayer,
    ConvLayer,
    EltwiseLayer,
    FCLayer,
    InputSpec,
    Layer,
    LRNLayer,
    PoolLayer,
    SoftmaxLayer,
)
from repro.nn.network import Network


def _vgg_block(prefix: str, convs: int, channels: int) -> List[Layer]:
    layers: List[Layer] = [
        ConvLayer(name=f"{prefix}_{i + 1}", out_channels=channels, kernel=3, pad=1)
        for i in range(convs)
    ]
    layers.append(PoolLayer(name=f"pool{prefix[-1]}", kernel=2, stride=2))
    return layers


def _vgg(name: str, block_convs: List[int], include_fc: bool) -> Network:
    channels = [64, 128, 256, 512, 512]
    layers: List[Layer] = []
    for block, (convs, width) in enumerate(zip(block_convs, channels), start=1):
        layers.extend(_vgg_block(f"conv{block}", convs, width))
    if include_fc:
        layers.extend(
            [
                FCLayer(name="fc6", out_features=4096),
                FCLayer(name="fc7", out_features=4096),
                FCLayer(name="fc8", out_features=1000, relu=False),
                SoftmaxLayer(name="prob"),
            ]
        )
    return Network(name, InputSpec(3, 224, 224), layers)


def vgg16(include_fc: bool = False) -> Network:
    """VGG-16 (configuration D of Simonyan & Zisserman)."""
    return _vgg("vgg16", [2, 2, 3, 3, 3], include_fc)


def vgg19(include_fc: bool = False) -> Network:
    """VGG-19 / VGGNet-E (configuration E), the paper's VGG case study."""
    return _vgg("vgg19", [2, 2, 4, 4, 4], include_fc)


# The paper and Alwani et al. fuse "the first five convolutional layers and
# two pooling layers" of VGG-E: conv1_1, conv1_2, pool1, conv2_1, conv2_2,
# pool2, conv3_1.
VGG_FUSED_PREFIX_LAYERS = 7


def vgg_fused_prefix() -> Network:
    """The seven-layer VGG-E prefix used in Figure 5 and Table 1."""
    return vgg19().prefix(VGG_FUSED_PREFIX_LAYERS, name="vgg19_prefix7")


def alexnet(grouped: bool = False, include_fc: bool = False) -> Network:
    """AlexNet (Krizhevsky et al.).

    Args:
        grouped: Use the original two-GPU channel grouping on conv2/4/5.
        include_fc: Append the three FC layers and softmax (the paper's
            accelerator omits them).
    """
    groups = 2 if grouped else 1
    layers: List[Layer] = [
        ConvLayer(name="conv1", out_channels=96, kernel=11, stride=4, pad=0),
        LRNLayer(name="norm1", local_size=5),
        PoolLayer(name="pool1", kernel=3, stride=2),
        ConvLayer(name="conv2", out_channels=256, kernel=5, pad=2, groups=groups),
        LRNLayer(name="norm2", local_size=5),
        PoolLayer(name="pool2", kernel=3, stride=2),
        ConvLayer(name="conv3", out_channels=384, kernel=3, pad=1),
        ConvLayer(name="conv4", out_channels=384, kernel=3, pad=1, groups=groups),
        ConvLayer(name="conv5", out_channels=256, kernel=3, pad=1, groups=groups),
        PoolLayer(name="pool5", kernel=3, stride=2),
    ]
    if include_fc:
        layers.extend(
            [
                FCLayer(name="fc6", out_features=4096),
                FCLayer(name="fc7", out_features=4096),
                FCLayer(name="fc8", out_features=1000, relu=False),
                SoftmaxLayer(name="prob"),
            ]
        )
    return Network("alexnet", InputSpec(3, 227, 227), layers)


#: GoogLeNet (Inception v1) module channel table, in network order.
GOOGLENET_INCEPTION_TABLE = {
    "inception3a": (64, 96, 128, 16, 32, 32),
    "inception3b": (128, 128, 192, 32, 96, 64),
    "inception4a": (192, 96, 208, 16, 48, 64),
    "inception4b": (160, 112, 224, 24, 64, 64),
    "inception4c": (128, 128, 256, 24, 64, 64),
    "inception4d": (112, 144, 288, 32, 64, 64),
    "inception4e": (256, 160, 320, 32, 128, 128),
    "inception5a": (256, 160, 320, 32, 128, 128),
    "inception5b": (384, 192, 384, 48, 128, 128),
}


def googlenet(include_fc: bool = False) -> Network:
    """GoogLeNet / Inception v1 (Szegedy et al.), modules as macro-layers.

    **Legacy fallback.**  Following the paper's S7.1 suggestion, every
    Inception module enters the linear chain as a single composite layer
    (the fusion architecture and the optimizer treat it as one stage).
    The DAG IR (:mod:`repro.nn.graph`) made that flattening unnecessary:
    :func:`googlenet_graph` expresses the same network natively, with
    the branch structure visible to the optimizer.  This macro-layer
    form is kept as the comparison baseline and for the chain-only
    codegen path.
    """
    from repro.nn.modules import InceptionModule, InceptionSpec

    layers: List[Layer] = _googlenet_stem()
    for name, widths in GOOGLENET_INCEPTION_TABLE.items():
        layers.append(InceptionModule(name=name, spec=InceptionSpec(*widths)))
        if name == "inception3b":
            layers.append(PoolLayer(name="pool3", kernel=3, stride=2))
        elif name == "inception4e":
            layers.append(PoolLayer(name="pool4", kernel=3, stride=2))
    layers.append(PoolLayer(name="pool5", kernel=7, stride=1, mode="ave"))
    if include_fc:
        layers.extend(
            [
                FCLayer(name="loss3_classifier", out_features=1000, relu=False),
                SoftmaxLayer(name="prob"),
            ]
        )
    return Network("googlenet", InputSpec(3, 224, 224), layers)


def googlenet_prefix(modules: int = 2) -> Network:
    """GoogLeNet stem plus the first ``modules`` Inception modules.

    **Legacy fallback** (macro-layer form); the native equivalent is
    ``googlenet_graph_prefix``.
    """
    full = googlenet()
    count = 7 + modules  # stem layers + modules (3a, 3b come first)
    return full.prefix(count, name=f"googlenet_prefix{modules}")


def _googlenet_stem() -> List[Layer]:
    return [
        ConvLayer(name="conv1", out_channels=64, kernel=7, stride=2, pad=3),
        PoolLayer(name="pool1", kernel=3, stride=2),
        LRNLayer(name="norm1", local_size=5),
        ConvLayer(name="conv2_reduce", out_channels=64, kernel=1),
        ConvLayer(name="conv2", out_channels=192, kernel=3, pad=1),
        LRNLayer(name="norm2", local_size=5),
        PoolLayer(name="pool2", kernel=3, stride=2),
    ]


def _inception_nodes(name: str, widths, bottom: str) -> List[GraphNode]:
    """Native DAG nodes of one Inception v1 module.

    Layer hyper-parameters (and names) match the macro
    :class:`~repro.nn.modules.InceptionModule`'s inner layers exactly,
    so the native graph and the flattened chain agree on every shape,
    op count and parameter count.
    """
    b1, b3_reduce, b3, b5_reduce, b5, pool_proj = widths
    return [
        GraphNode(
            name=f"{name}.b1",
            layer=ConvLayer(name=f"{name}.b1", out_channels=b1, kernel=1),
            inputs=(bottom,),
        ),
        GraphNode(
            name=f"{name}.b3r",
            layer=ConvLayer(name=f"{name}.b3r", out_channels=b3_reduce, kernel=1),
            inputs=(bottom,),
        ),
        GraphNode(
            name=f"{name}.b3",
            layer=ConvLayer(name=f"{name}.b3", out_channels=b3, kernel=3, pad=1),
            inputs=(f"{name}.b3r",),
        ),
        GraphNode(
            name=f"{name}.b5r",
            layer=ConvLayer(name=f"{name}.b5r", out_channels=b5_reduce, kernel=1),
            inputs=(bottom,),
        ),
        GraphNode(
            name=f"{name}.b5",
            layer=ConvLayer(name=f"{name}.b5", out_channels=b5, kernel=5, pad=2),
            inputs=(f"{name}.b5r",),
        ),
        GraphNode(
            name=f"{name}.pool",
            layer=PoolLayer(name=f"{name}.pool", kernel=3, stride=1, pad=1),
            inputs=(bottom,),
        ),
        GraphNode(
            name=f"{name}.proj",
            layer=ConvLayer(name=f"{name}.proj", out_channels=pool_proj, kernel=1),
            inputs=(f"{name}.pool",),
        ),
        GraphNode(
            name=f"{name}.concat",
            layer=ConcatLayer(name=f"{name}.concat"),
            inputs=(f"{name}.b1", f"{name}.b3", f"{name}.b5", f"{name}.proj"),
        ),
    ]


def googlenet_graph(include_fc: bool = False, modules: int = 0) -> Graph:
    """GoogLeNet / Inception v1 as a native DAG — no macro-layer flattening.

    Every Inception module contributes its four real branches and a
    concat join; the optimizer sees (and exploits) the branch structure,
    e.g. Winograd on the 3x3/5x5 branch convolutions the macro engine
    cannot use.  Layer names and hyper-parameters match the macro
    :func:`googlenet` flattening exactly, so the two forms agree on
    total ops and weights (asserted in tests and ``repro doctor``).

    Args:
        include_fc: Append the host-side classifier.
        modules: Keep only the first N Inception modules (0 = all nine);
            the truncated form is the ``dag-smoke`` CI workload.
    """
    nodes: List[GraphNode] = []
    bottom = "data"
    for layer in _googlenet_stem():
        nodes.append(GraphNode(name=layer.name, layer=layer, inputs=(bottom,)))
        bottom = layer.name
    table = list(GOOGLENET_INCEPTION_TABLE.items())
    if modules:
        table = table[:modules]
    for name, widths in table:
        nodes.extend(_inception_nodes(name, widths, bottom))
        bottom = f"{name}.concat"
        if name == "inception3b" and (not modules or modules > 2):
            layer = PoolLayer(name="pool3", kernel=3, stride=2)
            nodes.append(GraphNode(name="pool3", layer=layer, inputs=(bottom,)))
            bottom = "pool3"
        elif name == "inception4e" and (not modules or modules > 7):
            layer = PoolLayer(name="pool4", kernel=3, stride=2)
            nodes.append(GraphNode(name="pool4", layer=layer, inputs=(bottom,)))
            bottom = "pool4"
    if not modules:
        layer = PoolLayer(name="pool5", kernel=7, stride=1, mode="ave")
        nodes.append(GraphNode(name="pool5", layer=layer, inputs=(bottom,)))
        bottom = "pool5"
        if include_fc:
            fc_layer = FCLayer(
                name="loss3_classifier", out_features=1000, relu=False
            )
            nodes.append(
                GraphNode(name=fc_layer.name, layer=fc_layer, inputs=(bottom,))
            )
            prob = SoftmaxLayer(name="prob")
            nodes.append(
                GraphNode(name="prob", layer=prob, inputs=(fc_layer.name,))
            )
    suffix = f"_prefix{modules}" if modules else ""
    return Graph(f"googlenet_graph{suffix}", InputSpec(3, 224, 224), nodes)


def googlenet_graph_prefix(modules: int = 2) -> Graph:
    """Native GoogLeNet stem plus the first ``modules`` Inception modules."""
    return googlenet_graph(modules=modules)


def nin() -> Network:
    """Network-in-Network (Lin et al.): mlpconv blocks of conv + two 1x1s.

    Included because its many 1x1 convolutions exercise the
    Winograd-illegal path of the optimizer (1x1 kernels gain nothing
    from minimal filtering) alongside ordinary 5x5/3x3 layers.
    """
    layers: List[Layer] = [
        ConvLayer(name="conv1", out_channels=96, kernel=11, stride=4),
        ConvLayer(name="cccp1", out_channels=96, kernel=1),
        ConvLayer(name="cccp2", out_channels=96, kernel=1),
        PoolLayer(name="pool1", kernel=3, stride=2),
        ConvLayer(name="conv2", out_channels=256, kernel=5, pad=2),
        ConvLayer(name="cccp3", out_channels=256, kernel=1),
        ConvLayer(name="cccp4", out_channels=256, kernel=1),
        PoolLayer(name="pool2", kernel=3, stride=2),
        ConvLayer(name="conv3", out_channels=384, kernel=3, pad=1),
        ConvLayer(name="cccp5", out_channels=384, kernel=1),
        ConvLayer(name="cccp6", out_channels=384, kernel=1),
        PoolLayer(name="pool3", kernel=3, stride=2),
        ConvLayer(name="conv4", out_channels=1024, kernel=3, pad=1),
        ConvLayer(name="cccp7", out_channels=1024, kernel=1),
        ConvLayer(name="cccp8", out_channels=1000, kernel=1, relu=False),
        PoolLayer(name="pool4", kernel=6, stride=1, mode="ave"),
    ]
    return Network("nin", InputSpec(3, 227, 227), layers)


def zfnet(include_fc: bool = False) -> Network:
    """ZFNet (Zeiler & Fergus): the AlexNet refinement with a 7x7 conv1."""
    layers: List[Layer] = [
        ConvLayer(name="conv1", out_channels=96, kernel=7, stride=2, pad=1),
        PoolLayer(name="pool1", kernel=3, stride=2, pad=1),
        LRNLayer(name="norm1", local_size=5),
        ConvLayer(name="conv2", out_channels=256, kernel=5, stride=2),
        PoolLayer(name="pool2", kernel=3, stride=2, pad=1),
        LRNLayer(name="norm2", local_size=5),
        ConvLayer(name="conv3", out_channels=384, kernel=3, pad=1),
        ConvLayer(name="conv4", out_channels=384, kernel=3, pad=1),
        ConvLayer(name="conv5", out_channels=256, kernel=3, pad=1),
        PoolLayer(name="pool5", kernel=3, stride=2),
    ]
    if include_fc:
        layers.extend(
            [
                FCLayer(name="fc6", out_features=4096),
                FCLayer(name="fc7", out_features=4096),
                FCLayer(name="fc8", out_features=1000, relu=False),
                SoftmaxLayer(name="prob"),
            ]
        )
    return Network("zfnet", InputSpec(3, 224, 224), layers)


def tiny_cnn(height: int = 16, width: int = 16) -> Network:
    """A small three-conv network for fast tests and examples."""
    layers: List[Layer] = [
        ConvLayer(name="conv1", out_channels=8, kernel=3, pad=1),
        ConvLayer(name="conv2", out_channels=8, kernel=3, pad=1),
        PoolLayer(name="pool1", kernel=2, stride=2),
        ConvLayer(name="conv3", out_channels=16, kernel=3, pad=1),
    ]
    return Network("tiny_cnn", InputSpec(3, height, width), layers)


def tiny_branch(height: int = 16, width: int = 16) -> Graph:
    """A small two-branch graph (conv fork, concat join) for fast tests."""
    nodes = [
        GraphNode(
            name="conv1",
            layer=ConvLayer(name="conv1", out_channels=8, kernel=3, pad=1),
            inputs=("data",),
        ),
        GraphNode(
            name="b1",
            layer=ConvLayer(name="b1", out_channels=8, kernel=1),
            inputs=("conv1",),
        ),
        GraphNode(
            name="b3",
            layer=ConvLayer(name="b3", out_channels=8, kernel=3, pad=1),
            inputs=("conv1",),
        ),
        GraphNode(
            name="join",
            layer=ConcatLayer(name="join"),
            inputs=("b1", "b3"),
        ),
        GraphNode(
            name="conv2",
            layer=ConvLayer(name="conv2", out_channels=16, kernel=3, pad=1),
            inputs=("join",),
        ),
    ]
    return Graph("tiny_branch", InputSpec(3, height, width), nodes)


def tiny_resnet(height: int = 16, width: int = 16) -> Graph:
    """A small residual graph (identity skip, eltwise-sum join)."""
    nodes = [
        GraphNode(
            name="conv1",
            layer=ConvLayer(name="conv1", out_channels=8, kernel=3, pad=1),
            inputs=("data",),
        ),
        GraphNode(
            name="res1a",
            layer=ConvLayer(name="res1a", out_channels=8, kernel=3, pad=1),
            inputs=("conv1",),
        ),
        GraphNode(
            name="res1b",
            layer=ConvLayer(
                name="res1b", out_channels=8, kernel=3, pad=1, relu=False
            ),
            inputs=("res1a",),
        ),
        GraphNode(
            name="sum1",
            layer=EltwiseLayer(name="sum1"),
            inputs=("conv1", "res1b"),
        ),
        GraphNode(
            name="pool1",
            layer=PoolLayer(name="pool1", kernel=2, stride=2),
            inputs=("sum1",),
        ),
    ]
    return Graph("tiny_resnet", InputSpec(3, height, width), nodes)


def catalog() -> dict:
    """Name -> constructor for every built-in chain model.

    ``vgg_e`` is the paper's VGGNet-E case study at its evaluation
    scale — the seven-layer fused prefix every figure and table uses
    (identical to ``vgg19_prefix7``).  The full configuration-E network
    is ``vgg19``.  Branching models live in :func:`graph_catalog`.
    """
    return {
        "vgg16": vgg16,
        "vgg19": vgg19,
        "vgg19_prefix7": vgg_fused_prefix,
        "vgg_e": vgg_fused_prefix,
        "alexnet": alexnet,
        "googlenet": googlenet,
        "googlenet_prefix2": googlenet_prefix,
        "nin": nin,
        "zfnet": zfnet,
        "tiny_cnn": tiny_cnn,
    }


def graph_catalog() -> dict:
    """Name -> constructor for the built-in DAG models (graph IR)."""
    return {
        "googlenet_graph": googlenet_graph,
        "googlenet_graph_prefix2": googlenet_graph_prefix,
        "tiny_branch": tiny_branch,
        "tiny_resnet": tiny_resnet,
    }


def load_model(name_or_path: str) -> Union[Network, Graph]:
    """Resolve a zoo name (chain or graph) or a prototxt path.

    A branching prototxt resolves to a :class:`Graph`; chains stay
    :class:`Network` objects.
    """
    zoo = catalog()
    if name_or_path in zoo:
        return zoo[name_or_path]()
    graph_zoo = graph_catalog()
    if name_or_path in graph_zoo:
        return graph_zoo[name_or_path]()
    path = Path(name_or_path)
    if path.exists():
        return model_from_prototxt(path.read_text())
    names = sorted(zoo) + sorted(graph_zoo)
    raise ReproError(
        f"{name_or_path!r} is neither a model-zoo name ({', '.join(names)}) "
        "nor an existing prototxt file"
    )


def load_chain(name_or_path: str) -> Network:
    """:func:`load_model` for the chain-only sweeps (``repro sweep`` and
    sweep grids): the chain's accelerated prefix.

    Raises:
        ReproError: The model is unknown or a branching graph.
    """
    model = load_model(name_or_path)
    if isinstance(model, Graph):
        raise ReproError(
            f"sweeps are chain-only and {name_or_path!r} is a branching "
            "graph; compile it with 'repro compile' (vary --transfer per run)"
        )
    return model.accelerated_prefix()
