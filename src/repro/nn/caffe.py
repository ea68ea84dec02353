"""Caffe prototxt parsing and serialization.

The paper's tool-flow "takes Caffe configuration file ... as inputs".  This
module implements a self-contained reader/writer for the prototxt text
format (a protobuf text-format subset) sufficient for CNN topology files:
nested messages in braces, scalar ``key: value`` fields, repeated fields,
quoted strings, booleans and enums, and ``#`` comments.

Parsing happens in two stages: :func:`parse_prototxt` produces a generic
:class:`Message` tree, and one lowering pass turns it into a DAG
:class:`repro.nn.graph.Graph` (:func:`graph_from_prototxt`), resolving
Caffe's named-blob wiring — multi-``bottom``/multi-``top`` layers
(``Concat``, ``Eltwise``) and in-place tops included — and folding each
standalone ReLU into its producing convolution when nothing else reads
the pre-ReLU blob (as the paper's architecture does).  A chain is the
degenerate graph: :func:`network_from_prototxt` is the same lowering
viewed as a :class:`repro.nn.network.Network`, and
:func:`model_from_prototxt` returns whichever of the two fits.  One
writer, :func:`graph_to_prototxt`, serializes both.  Every lowering
failure — unknown blob, unsupported axis/operation, a cycle in the
wiring, a non-series-parallel topology — is a single-line
:class:`~repro.errors.ParseError` carrying the offending prototxt line
and field.
"""

from __future__ import annotations

import re
from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import ParseError, ShapeError
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
    ReLULayer,
    SoftmaxLayer,
)
from repro.nn.network import Network

Scalar = Union[str, int, float, bool]


class Message:
    """A parsed prototxt message: multimap of field name -> values.

    Every field remembers the line its first occurrence was parsed from
    (``line_of``), and the message itself remembers where it opened
    (``line``), so lowering errors can point at the offending prototxt
    line in a single-line :class:`ParseError`.
    """

    def __init__(self, line: int = 1) -> None:
        self.line = line
        self._fields: Dict[str, List[Union[Scalar, "Message"]]] = {}
        self._lines: Dict[str, int] = {}

    def add(
        self, key: str, value: Union[Scalar, "Message"], line: Optional[int] = None
    ) -> None:
        self._fields.setdefault(key, []).append(value)
        if line is not None:
            self._lines.setdefault(key, line)

    def line_of(self, key: str) -> int:
        """Line of the field's first occurrence (the message's own line
        when the field is absent)."""
        return self._lines.get(key, self.line)

    def get_all(self, key: str) -> List[Union[Scalar, "Message"]]:
        return list(self._fields.get(key, []))

    def get(self, key: str, default=None):
        values = self._fields.get(key)
        if not values:
            return default
        return values[0]

    def get_message(self, key: str) -> Optional["Message"]:
        value = self.get(key)
        if value is None:
            return None
        if not isinstance(value, Message):
            raise ParseError(
                f"line {self.line_of(key)}: field {key!r} is scalar, "
                f"expected message"
            )
        return value

    def get_int(self, key: str, default: Optional[int] = None) -> Optional[int]:
        value = self.get(key, default)
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParseError(
                f"line {self.line_of(key)}: field {key!r} is not numeric: "
                f"{value!r}"
            )
        return int(value)

    def get_float(self, key: str, default: Optional[float] = None) -> Optional[float]:
        value = self.get(key, default)
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParseError(
                f"line {self.line_of(key)}: field {key!r} is not numeric: "
                f"{value!r}"
            )
        return float(value)

    def get_str(self, key: str, default: Optional[str] = None) -> Optional[str]:
        value = self.get(key, default)
        if value is None:
            return None
        if not isinstance(value, str):
            raise ParseError(
                f"line {self.line_of(key)}: field {key!r} is not a string: "
                f"{value!r}"
            )
        return value

    def keys(self) -> List[str]:
        return list(self._fields)

    def __contains__(self, key: str) -> bool:
        return key in self._fields

    def __repr__(self) -> str:
        return f"Message({self._fields!r})"


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<punct>[{}:])
  | (?P<atom>[^\s{}:"\#]+)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> Iterator[Tuple[str, str, int]]:
    """Yield (kind, token, line) triples, skipping whitespace and comments."""
    line = 1
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"line {line}: unexpected character {text[pos]!r}")
        kind = match.lastgroup
        token = match.group()
        if kind not in ("ws", "comment"):
            yield kind, token, line
        line += token.count("\n")
        pos = match.end()


_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?)$")


def _parse_atom(token: str) -> Scalar:
    if token == "true":
        return True
    if token == "false":
        return False
    if _NUMBER_RE.match(token):
        if re.match(r"^[+-]?\d+$", token):
            return int(token)
        return float(token)
    # bare enum value (e.g. MAX, AVE)
    return token


class _Parser:
    def __init__(self, text: str):
        self._tokens = list(_tokenize(text))
        self._pos = 0

    def _peek(self) -> Optional[Tuple[str, str, int]]:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def _next(self) -> Tuple[str, str, int]:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of input")
        self._pos += 1
        return token

    def parse(self) -> Message:
        message = self._parse_fields(top_level=True, line=1)
        if self._peek() is not None:
            _, token, line = self._peek()
            raise ParseError(f"line {line}: trailing content {token!r}")
        return message

    def _parse_fields(self, top_level: bool, line: int) -> Message:
        open_line = line
        message = Message(line=open_line)
        while True:
            token = self._peek()
            if token is None:
                if top_level:
                    return message
                raise ParseError(
                    f"line {open_line}: unexpected end of input inside the "
                    f"message opened here"
                )
            kind, text, line = token
            if kind == "punct" and text == "}":
                if top_level:
                    raise ParseError(f"line {line}: unmatched '}}'")
                self._next()
                return message
            if kind != "atom":
                raise ParseError(f"line {line}: expected field name, got {text!r}")
            self._next()
            key = text
            kind2, text2, line2 = self._next()
            if kind2 == "punct" and text2 == ":":
                kind3, text3, line3 = self._next()
                if kind3 == "string":
                    value: Union[Scalar, Message] = _unquote(text3)
                elif kind3 == "atom":
                    value = _parse_atom(text3)
                elif kind3 == "punct" and text3 == "{":
                    value = self._parse_fields(top_level=False, line=line3)
                else:
                    raise ParseError(f"line {line3}: expected value, got {text3!r}")
                message.add(key, value, line=line)
            elif kind2 == "punct" and text2 == "{":
                message.add(
                    key,
                    self._parse_fields(top_level=False, line=line2),
                    line=line,
                )
            else:
                raise ParseError(f"line {line2}: expected ':' or '{{' after {key!r}")


def _unquote(token: str) -> str:
    body = token[1:-1]
    return body.replace('\\"', '"').replace("\\\\", "\\")


def parse_prototxt(text: str) -> Message:
    """Parse prototxt text into a generic :class:`Message` tree."""
    return _Parser(text).parse()


# -- lowering ---------------------------------------------------------------


def _input_spec(root: Message) -> InputSpec:
    dims = [v for v in root.get_all("input_dim") if isinstance(v, int)]
    if not dims:
        shape_msg = root.get_message("input_shape")
        if shape_msg is not None:
            dims = [v for v in shape_msg.get_all("dim") if isinstance(v, int)]
    if not dims:
        # Input layer form: layer { type: "Input" input_param { shape { dim .. } } }
        for layer in root.get_all("layer"):
            if isinstance(layer, Message) and layer.get_str("type") == "Input":
                param = layer.get_message("input_param")
                if param is not None:
                    shape = param.get_message("shape")
                    if shape is not None:
                        dims = [v for v in shape.get_all("dim") if isinstance(v, int)]
                break
    if len(dims) == 4:
        dims = dims[1:]  # drop batch
    if len(dims) != 3:
        raise ParseError(f"could not determine input shape; dims={dims}")
    return InputSpec(*dims)


def _require_positive(param: Message, key: str, value: Optional[int], name: str):
    """Reject non-positive dimension fields with the offending line."""
    if value is not None and value <= 0:
        raise ParseError(
            f"line {param.line_of(key)}: layer {name!r} field {key!r} "
            f"must be positive, got {value}"
        )
    return value


def _lower_conv(name: str, msg: Message) -> ConvLayer:
    param = msg.get_message("convolution_param")
    if param is None:
        raise ParseError(
            f"line {msg.line}: conv layer {name!r} missing "
            f"field 'convolution_param'"
        )
    num_output = _require_positive(
        param, "num_output", param.get_int("num_output"), name
    )
    kernel = _require_positive(
        param, "kernel_size", param.get_int("kernel_size"), name
    )
    if num_output is None:
        raise ParseError(
            f"line {param.line}: conv layer {name!r} missing field 'num_output'"
        )
    if kernel is None:
        raise ParseError(
            f"line {param.line}: conv layer {name!r} missing field 'kernel_size'"
        )
    return ConvLayer(
        name=name,
        out_channels=num_output,
        kernel=kernel,
        stride=param.get_int("stride", 1),
        pad=param.get_int("pad", 0),
        groups=param.get_int("group", 1),
        relu=False,
    )


def _lower_pool(name: str, msg: Message) -> PoolLayer:
    param = msg.get_message("pooling_param")
    if param is None:
        raise ParseError(
            f"line {msg.line}: pool layer {name!r} missing "
            f"field 'pooling_param'"
        )
    kernel = _require_positive(
        param, "kernel_size", param.get_int("kernel_size"), name
    )
    if kernel is None:
        raise ParseError(
            f"line {param.line}: pool layer {name!r} missing field 'kernel_size'"
        )
    mode = param.get("pool", "MAX")
    mode_name = {"MAX": "max", "AVE": "ave", 0: "max", 1: "ave"}.get(mode)
    if mode_name is None:
        raise ParseError(
            f"line {param.line_of('pool')}: pool layer {name!r} field 'pool' "
            f"has unsupported mode {mode!r}"
        )
    return PoolLayer(
        name=name,
        kernel=kernel,
        stride=param.get_int("stride", 1),
        pad=param.get_int("pad", 0),
        mode=mode_name,
    )


def _lower_lrn(name: str, msg: Message) -> LRNLayer:
    param = msg.get_message("lrn_param")
    if param is None:
        return LRNLayer(name=name)
    return LRNLayer(
        name=name,
        local_size=param.get_int("local_size", 5),
        alpha=param.get_float("alpha", 1e-4),
        beta=param.get_float("beta", 0.75),
        k=param.get_float("k", 1.0),
    )


def _lower_fc(name: str, msg: Message) -> FCLayer:
    param = msg.get_message("inner_product_param")
    if param is None:
        raise ParseError(
            f"line {msg.line}: fc layer {name!r} missing "
            f"field 'inner_product_param'"
        )
    num_output = _require_positive(
        param, "num_output", param.get_int("num_output"), name
    )
    if num_output is None:
        raise ParseError(
            f"line {param.line}: fc layer {name!r} missing field 'num_output'"
        )
    return FCLayer(name=name, out_features=num_output, relu=False)


def _input_blob_name(root: Message) -> str:
    name = root.get_str("input")
    if name is not None:
        return name
    for entry in root.get_all("layer"):
        if isinstance(entry, Message) and entry.get_str("type") == "Input":
            tops = [t for t in entry.get_all("top") if isinstance(t, str)]
            if tops:
                return tops[0]
            declared = entry.get_str("name")
            if declared is not None:
                return declared
    return "data"


def _lower_concat(name: str, msg: Message) -> ConcatLayer:
    param = msg.get_message("concat_param")
    axis = param.get_int("axis", 1) if param is not None else 1
    if axis != 1:
        where = param if param is not None else msg
        raise ParseError(
            f"line {where.line_of('axis')}: concat layer {name!r} field "
            f"'axis' must be 1 (channel concat), got {axis}"
        )
    return ConcatLayer(name=name)


_ELTWISE_OPS = {"SUM": "sum", "MAX": "max", 1: "sum", 2: "max"}


def _lower_eltwise(name: str, msg: Message) -> EltwiseLayer:
    param = msg.get_message("eltwise_param")
    op = param.get("operation", "SUM") if param is not None else "SUM"
    operation = _ELTWISE_OPS.get(op)
    if operation is None:
        where = param if param is not None else msg
        raise ParseError(
            f"line {where.line_of('operation')}: eltwise layer {name!r} "
            f"field 'operation' has unsupported value {op!r} "
            f"(supported: SUM, MAX)"
        )
    return EltwiseLayer(name=name, operation=operation)


#: Caffe layer type -> lowering of its ``layer`` message.
_LOWERINGS = {
    "Convolution": _lower_conv,
    "Pooling": _lower_pool,
    "LRN": _lower_lrn,
    "InnerProduct": _lower_fc,
    "Concat": _lower_concat,
    "Eltwise": _lower_eltwise,
    "ReLU": lambda name, msg: ReLULayer(name=name),
    "Softmax": lambda name, msg: SoftmaxLayer(name=name),
}


def _fold_relus(nodes: List[GraphNode]) -> List[GraphNode]:
    """Fold each ReLU node into its conv/FC producer (the accelerator
    integrates ReLU into the convolution engines).

    A ReLU folds only when it is its producer's sole consumer, so a
    layer reading the pre-ReLU blob keeps seeing it.  Consumers of a
    folded ReLU read the producer instead; chained ReLUs fold one after
    another.  ``nodes`` is in declaration order, producers first.
    """
    uses: Dict[str, int] = {}
    for node in nodes:
        for ref in node.inputs:
            uses[ref] = uses.get(ref, 0) + 1
    kept: List[GraphNode] = []
    position: Dict[str, int] = {}
    alias: Dict[str, str] = {}
    for node in nodes:
        inputs = tuple(alias.get(ref, ref) for ref in node.inputs)
        if isinstance(node.layer, ReLULayer) and len(inputs) == 1:
            index = position.get(inputs[0])
            producer = None if index is None else kept[index]
            if (
                producer is not None
                and isinstance(producer.layer, (ConvLayer, FCLayer))
                and uses[producer.name] == 1
            ):
                kept[index] = replace(
                    producer, layer=replace(producer.layer, relu=True)
                )
                alias[node.name] = producer.name
                uses[producer.name] = uses.get(node.name, 0)
                continue
        position[node.name] = len(kept)
        kept.append(replace(node, inputs=inputs))
    return kept


def _lower_graph(text: str) -> Tuple[Graph, Dict[str, Message]]:
    """Lower prototxt text to a graph plus each node's layer message."""
    root = parse_prototxt(text)
    spec = _input_spec(root)
    name = root.get_str("name", "network")
    input_blob = _input_blob_name(root)

    nodes: List[GraphNode] = []
    entries: Dict[str, Message] = {}
    # blob name -> producing node name (input_blob for the graph input).
    producer: Dict[str, str] = {input_blob: input_blob}

    def resolve(entry: Message, layer_name: str, bottoms: List[str]) -> List[str]:
        refs = []
        for bottom in bottoms:
            ref = producer.get(bottom)
            if ref is None:
                raise ParseError(
                    f"line {entry.line_of('bottom')}: layer {layer_name!r} "
                    f"field 'bottom' references unknown blob {bottom!r}"
                )
            refs.append(ref)
        return refs

    for entry in root.get_all("layer") + root.get_all("layers"):
        if not isinstance(entry, Message):
            raise ParseError(
                f"line {root.line_of('layer')}: field 'layer' must be a "
                f"message, got {entry!r}"
            )
        layer_type = entry.get_str("type")
        layer_name = entry.get_str("name")
        if layer_type is None:
            raise ParseError(f"line {entry.line}: layer missing field 'type'")
        if layer_name is None:
            raise ParseError(f"line {entry.line}: layer missing field 'name'")
        bottoms = [b for b in entry.get_all("bottom") if isinstance(b, str)]
        tops = [t for t in entry.get_all("top") if isinstance(t, str)]
        if layer_type in ("Input", "Data", "Accuracy"):
            continue
        if layer_type == "Dropout":
            # Inference no-op: route its top straight to its bottom.
            if bottoms:
                ref = resolve(entry, layer_name, bottoms[:1])[0]
                for top in tops or bottoms[:1]:
                    producer[top] = ref
            continue
        inputs = resolve(entry, layer_name, bottoms or [input_blob])
        lower = _LOWERINGS.get(layer_type)
        if lower is None:
            raise ParseError(
                f"line {entry.line_of('type')}: layer {layer_name!r} field "
                f"'type' has unsupported value {layer_type!r}"
            )
        layer = lower(layer_name, entry)
        if layer_name in entries:
            raise ParseError(
                f"line {entry.line_of('name')}: layer field 'name' "
                f"value {layer_name!r} is duplicated"
            )
        nodes.append(GraphNode(name=layer_name, layer=layer, inputs=tuple(inputs)))
        entries[layer_name] = entry
        for top in tops or [layer_name]:
            producer[top] = layer_name

    def offending_line(message: str) -> int:
        for node_name, entry in entries.items():
            if f"{node_name!r}" in message:
                return entry.line
        return root.line_of("layer")

    try:
        graph = Graph(name, spec, _fold_relus(nodes), input_name=input_blob)
        graph.decompose()
    except ShapeError as exc:
        raise ParseError(
            f"line {offending_line(str(exc))}: field 'layer': {exc}"
        ) from None
    return graph, entries


def graph_from_prototxt(text: str) -> Graph:
    """Lower prototxt text to a DAG :class:`~repro.nn.graph.Graph`.

    ``bottom``/``top`` wiring is resolved through Caffe's named blobs
    (in-place tops shadow their blob), multi-``bottom`` ``Concat`` and
    ``Eltwise`` layers become join nodes, and a standalone ReLU folds
    into its producing conv/FC when it is that producer's only consumer.

    Raises:
        ParseError: One line with the offending prototxt line and field,
            for unknown blobs, unsupported Concat axes or Eltwise
            operations, cyclic wiring and topologies the series-parallel
            optimizer cannot decompose.
    """
    return _lower_graph(text)[0]


def network_from_prototxt(text: str) -> Network:
    """Lower prototxt text to a linear-chain :class:`Network`.

    The chain view of :func:`graph_from_prototxt`: the same lowering,
    then :meth:`~repro.nn.graph.Graph.to_network`.

    Raises:
        ParseError: As :func:`graph_from_prototxt`, and when the wiring
            branches (pointing at the first layer that leaves the chain).
    """
    graph, entries = _lower_graph(text)
    for info in graph:
        ref = info.inputs[-1]
        if len(info.inputs) > 1 or graph.consumers(ref)[0] != info.name:
            raise ParseError(
                f"line {entries[info.name].line_of('bottom')}: layer "
                f"{info.name!r} field 'bottom' value {ref!r} breaks the "
                f"linear chain"
            )
    return graph.to_network()


def model_from_prototxt(text: str) -> Union[Network, Graph]:
    """Lower prototxt to the thinnest IR that fits its topology.

    Parses once through :func:`graph_from_prototxt` and returns a chain
    :class:`Network` when the wiring is linear, the
    :class:`~repro.nn.graph.Graph` otherwise.
    """
    graph = graph_from_prototxt(text)
    return graph.to_network() if graph.is_chain else graph


# -- serialization ----------------------------------------------------------


def _layer_block(
    layer: Layer, caffe_type: str, bottoms: Tuple[str, ...], params: List[str]
) -> str:
    """One ``layer { ... }`` block, plus an in-place ReLU for a folded one."""
    lines = ["layer {", f'  name: "{layer.name}"', f'  type: "{caffe_type}"']
    lines.extend(f'  bottom: "{bottom}"' for bottom in bottoms)
    lines.append(f'  top: "{layer.name}"')
    lines.extend(params)
    lines.append("}")
    if isinstance(layer, (ConvLayer, FCLayer)) and layer.relu:
        lines.extend(
            [
                "layer {",
                f'  name: "relu_{layer.name}"',
                '  type: "ReLU"',
                f'  bottom: "{layer.name}"',
                f'  top: "{layer.name}"',
                "}",
            ]
        )
    return "\n".join(lines)


def _param(name: str, fields: List[str]) -> List[str]:
    return [f"  {name} {{"] + [f"    {field}" for field in fields] + ["  }"]


def _caffe_layer(layer: Layer) -> Tuple[str, List[str]]:
    """The Caffe type and parameter lines of one layer."""
    if isinstance(layer, ConvLayer):
        fields = [
            f"num_output: {layer.out_channels}",
            f"kernel_size: {layer.kernel}",
            f"stride: {layer.stride}",
            f"pad: {layer.pad}",
        ]
        if layer.groups != 1:
            fields.append(f"group: {layer.groups}")
        return "Convolution", _param("convolution_param", fields)
    if isinstance(layer, PoolLayer):
        return "Pooling", _param("pooling_param", [
            f"pool: {layer.mode.upper()}",
            f"kernel_size: {layer.kernel}",
            f"stride: {layer.stride}",
            f"pad: {layer.pad}",
        ])
    if isinstance(layer, LRNLayer):
        return "LRN", _param("lrn_param", [
            f"local_size: {layer.local_size}",
            f"alpha: {layer.alpha}",
            f"beta: {layer.beta}",
            f"k: {layer.k}",
        ])
    if isinstance(layer, FCLayer):
        return "InnerProduct", _param(
            "inner_product_param", [f"num_output: {layer.out_features}"]
        )
    if isinstance(layer, ConcatLayer):
        return "Concat", _param("concat_param", ["axis: 1"])
    if isinstance(layer, EltwiseLayer):
        return "Eltwise", _param(
            "eltwise_param", [f"operation: {layer.operation.upper()}"]
        )
    if isinstance(layer, ReLULayer):
        return "ReLU", []
    if isinstance(layer, SoftmaxLayer):
        return "Softmax", []
    raise ParseError(f"cannot serialize layer type {type(layer).__name__}")


def graph_to_prototxt(graph: Graph) -> str:
    """Serialize a :class:`~repro.nn.graph.Graph` to Caffe prototxt text.

    Blob names equal node names (the graph input keeps the graph's
    ``input_name``), so :func:`graph_from_prototxt` round-trips the
    topology exactly.
    """
    spec = graph.input_spec
    parts = [
        f'name: "{graph.name}"',
        f'input: "{graph.input_name}"',
        "input_dim: 1",
        f"input_dim: {spec.channels}",
        f"input_dim: {spec.height}",
        f"input_dim: {spec.width}",
    ]
    for info in graph:
        caffe_type, params = _caffe_layer(info.layer)
        parts.append(_layer_block(info.layer, caffe_type, info.inputs, params))
    return "\n".join(parts) + "\n"


def network_to_prototxt(network: Network) -> str:
    """Serialize a :class:`Network` to Caffe prototxt text (the chain
    case of :func:`graph_to_prototxt`)."""
    return graph_to_prototxt(Graph.from_network(network))
