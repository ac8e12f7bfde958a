"""Analytic FLOP and parameter accounting for convolutional pose networks.

Conventions: a layer costs one multiply-accumulate (one FLOP) per weight and
output pixel. A layer's weights are ``out_channels * fan_in * kernel**2``,
where ``fan_in`` is 1 for a depthwise convolution and ``in_channels``
otherwise; biases add ``out_channels`` to the parameters and nothing to the
FLOPs. Pooling, concatenation and residual additions have no weights, so they
cost nothing. A layer's output size is its input size divided by its stride,
rounded up (same padding); dilation changes receptive field only, never cost.
A ``LayerSpec`` does not hold its input size: ``evaluate`` carries it from the
network's input through the layers, and ``layer_flops`` takes it as arguments.

The records are valid by construction: every size is an integer >= 1, stored
as an ``int``, or the constructor raises ``InvalidArchitectureError`` naming
the record. The built-in networks take their head widths from the body model
in ``skeleton``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .errors import InvalidArchitectureError
from .featuremaps import _require_integer
from .skeleton import NUM_HEATMAP_CHANNELS, NUM_PAF_CHANNELS

LAYER_KINDS = ("conv", "depthwise_conv", "pointwise_conv", "pool", "concat", "residual_add")

_ZERO_COST_KINDS = ("pool", "concat", "residual_add")


def _require_sizes(record, fields) -> None:
    """Store each of ``fields`` on the frozen ``record`` as an ``int`` >= 1, or
    raise ``InvalidArchitectureError`` naming the record."""
    for field in fields:
        try:
            object.__setattr__(record, field, _require_integer(getattr(record, field), field))
        except ValueError as exc:
            raise InvalidArchitectureError(record.name, str(exc)) from None


@dataclass(frozen=True)
class LayerSpec:
    """One layer, not where it sits: its input size comes from the caller."""

    name: str
    kind: str
    in_channels: int
    out_channels: int
    kernel: int = 1
    stride: int = 1
    dilation: int = 1

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise InvalidArchitectureError(self.name, f"unknown kind '{self.kind}'")
        _require_sizes(self, ("in_channels", "out_channels", "kernel", "stride", "dilation"))
        if self.kind == "depthwise_conv" and self.in_channels != self.out_channels:
            raise InvalidArchitectureError(
                self.name, "depthwise convolution requires in_channels == out_channels"
            )
        if self.kind == "pointwise_conv" and self.kernel != 1:
            raise InvalidArchitectureError(self.name, "pointwise convolution requires kernel 1")
        if self.kind in _ZERO_COST_KINDS and self.kind != "concat" \
                and self.in_channels != self.out_channels:
            raise InvalidArchitectureError(self.name, f"{self.kind} cannot change channels")


def _out_size(size: int, stride: int) -> int:
    """Output size of a same-padded layer: ``size / stride`` rounded up."""
    return -(-size // stride)


def _weights(layer: LayerSpec) -> int:
    """Weight count of ``layer`` without biases; zero for the cost-free kinds."""
    if layer.kind in _ZERO_COST_KINDS:
        return 0
    fan_in = 1 if layer.kind == "depthwise_conv" else layer.in_channels
    return layer.out_channels * fan_in * layer.kernel ** 2


def layer_flops(layer: LayerSpec, input_h: int, input_w: int) -> int:
    """Multiply-accumulate count for ``layer`` on an ``input_h`` x ``input_w``
    input. Each size must be an integer >= 1, or ``InvalidArchitectureError``
    names the layer."""
    try:
        out_h, out_w = (_out_size(_require_integer(size, what), layer.stride)
                        for size, what in ((input_h, "input_h"), (input_w, "input_w")))
    except ValueError as exc:
        raise InvalidArchitectureError(layer.name, str(exc)) from None
    return out_h * out_w * _weights(layer)


def layer_params(layer: LayerSpec) -> int:
    """Weight plus bias count for one layer (zero for cost-free kinds)."""
    weights = _weights(layer)
    return weights + layer.out_channels if weights else 0


@dataclass(frozen=True)
class LayerGroup:
    """A named run of layers, optionally duplicated across parallel branches.

    ``branches`` multiplies the trunk cost (2 models two identical prediction
    branches). ``heads`` are evaluated once each at the trunk's output
    resolution and are not multiplied; they express per-branch output layers
    whose widths differ.
    """

    name: str
    layers: tuple
    branches: int = 1
    heads: tuple = ()

    def __post_init__(self):
        _require_sizes(self, ("branches",))
        if self.branches > 2:
            raise InvalidArchitectureError(self.name, "branches must be 1 or 2")
        if not self.layers:
            raise InvalidArchitectureError(self.name, "group has no layers")


@dataclass(frozen=True)
class ArchSpec:
    name: str
    input_height: int
    input_width: int
    groups: tuple
    footnotes: tuple = ()  # notes on a published table's figures for this network

    def __post_init__(self):
        _require_sizes(self, ("input_height", "input_width"))
        if isinstance(self.footnotes, str):
            raise InvalidArchitectureError(self.name, "footnotes must be a sequence of notes")
        object.__setattr__(self, "footnotes", tuple(self.footnotes))
        names = [g.name for g in self.groups]
        if len(set(names)) != len(names):
            raise InvalidArchitectureError(self.name, "group names must be unique")


@dataclass(frozen=True)
class LayerCost:
    group: str
    layer: str
    kind: str
    out_h: int
    out_w: int
    out_channels: int
    multiplier: int
    flops: int
    params: int


@dataclass(frozen=True)
class GroupCost:
    name: str
    gflops: float
    cumulative_gflops: float
    params: int


@dataclass(frozen=True)
class ComplexityReport:
    arch_name: str
    input_height: int
    input_width: int
    layers: tuple
    groups: tuple
    total_gflops: float
    total_params: int
    footnotes: tuple = ()

    def group(self, name: str) -> GroupCost:
        for g in self.groups:
            if g.name == name:
                return g
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "arch": self.arch_name,
            "input": [self.input_height, self.input_width],
            "groups": [asdict(g) for g in self.groups],
            "total_gflops": self.total_gflops,
            "total_params": self.total_params,
            "footnotes": list(self.footnotes),
        }

    def format_text(self) -> str:
        lines = [
            f"Architecture: {self.arch_name} at {self.input_height}x{self.input_width}",
            f"{'Group':<24}{'GFLOPs':>10}{'GFLOPs total':>14}{'Params':>12}",
        ]
        for g in self.groups:
            lines.append(
                f"{g.name:<24}{g.gflops:>10.1f}{g.cumulative_gflops:>14.1f}{g.params:>12,}"
            )
        lines.append(
            f"{'Total':<24}{self.total_gflops:>10.1f}{self.total_gflops:>14.1f}"
            f"{self.total_params:>12,}"
        )
        lines.append(f"Parameters: {self.total_params / 1e6:.2f}M")
        for note in self.footnotes:
            lines.append(f"Note: {note}")
        return "\n".join(lines)


def _cost(group: str, layer: LayerSpec, h: int, w: int, channels: int | None,
          multiplier: int) -> LayerCost:
    """The cost row of ``layer`` on an ``h`` x ``w`` input of ``channels``
    channels (``None`` before the first layer), run ``multiplier`` times.

    A concat takes its inputs from several sources, so it resets the channel
    count instead of checking it.
    """
    if layer.kind != "concat" and channels not in (None, layer.in_channels):
        raise InvalidArchitectureError(
            layer.name, f"expects {layer.in_channels} input channels but receives {channels}"
        )
    return LayerCost(group, layer.name, layer.kind, _out_size(h, layer.stride),
                     _out_size(w, layer.stride), layer.out_channels, multiplier,
                     layer_flops(layer, h, w) * multiplier, layer_params(layer) * multiplier)


def evaluate(arch: ArchSpec) -> ComplexityReport:
    """Carry the input size through the network and total up cost per group.

    Channel chaining is validated across layers and into each head; branch
    multiplicity doubles trunk cost; heads are added once each at the trunk's
    output resolution.
    """
    h, w = arch.input_height, arch.input_width
    channels: int | None = None
    layer_rows: list[LayerCost] = []
    group_rows: list[GroupCost] = []
    cumulative = 0
    total_params = 0
    for grp in arch.groups:
        rows = []
        for layer in grp.layers:
            rows.append(_cost(grp.name, layer, h, w, channels, grp.branches))
            h, w, channels = rows[-1].out_h, rows[-1].out_w, rows[-1].out_channels
        rows += [_cost(grp.name, head, h, w, channels, 1) for head in grp.heads]
        g_flops = sum(row.flops for row in rows)
        g_params = sum(row.params for row in rows)
        cumulative += g_flops
        total_params += g_params
        group_rows.append(GroupCost(grp.name, g_flops / 1e9, cumulative / 1e9, g_params))
        layer_rows += rows
    return ComplexityReport(
        arch_name=arch.name,
        input_height=arch.input_height,
        input_width=arch.input_width,
        layers=tuple(layer_rows),
        groups=tuple(group_rows),
        total_gflops=cumulative / 1e9,
        total_params=total_params,
        footnotes=arch.footnotes,
    )


# ---------------------------------------------------------------------------
# Built-in architectures
# ---------------------------------------------------------------------------

def _conv(name, cin, cout, kernel, stride=1, dilation=1):
    return LayerSpec(name, "conv", cin, cout, kernel, stride, dilation)


def _pool(name, ch):
    return LayerSpec(name, "pool", ch, ch, kernel=2, stride=2)


def _dw_sep(prefix, cin, cout, stride=1, dilation=1):
    """Depthwise 3x3 followed by a pointwise projection."""
    return [
        LayerSpec(f"{prefix}/dw", "depthwise_conv", cin, cin, 3, stride, dilation),
        LayerSpec(f"{prefix}/sep", "pointwise_conv", cin, cout),
    ]


def _heads(prefix, cin):
    return (
        LayerSpec(f"{prefix}/heatmaps", "pointwise_conv", cin, NUM_HEATMAP_CHANNELS),
        LayerSpec(f"{prefix}/pafs", "pointwise_conv", cin, NUM_PAF_CHANNELS),
    )


# Stage inputs concatenate trunk features (128) with the heatmap and PAF predictions.
_STAGE_INPUT_CHANNELS = 128 + NUM_HEATMAP_CHANNELS + NUM_PAF_CHANNELS


def _vgg19_backbone():
    layers = [
        _conv("conv1_1", 3, 64, 3), _conv("conv1_2", 64, 64, 3), _pool("pool1", 64),
        _conv("conv2_1", 64, 128, 3), _conv("conv2_2", 128, 128, 3), _pool("pool2", 128),
        _conv("conv3_1", 128, 256, 3), _conv("conv3_2", 256, 256, 3),
        _conv("conv3_3", 256, 256, 3), _conv("conv3_4", 256, 256, 3), _pool("pool3", 256),
        _conv("conv4_1", 256, 512, 3), _conv("conv4_2", 512, 512, 3),
    ]
    return LayerGroup("backbone", tuple(layers))


def _initial_stage(branches: int):
    trunk = (
        _conv("initial/conv1", 128, 128, 3),
        _conv("initial/conv2", 128, 128, 3),
        _conv("initial/conv3", 128, 128, 3),
        LayerSpec("initial/conv4", "pointwise_conv", 128, 512),
    )
    return LayerGroup("initial_stage", trunk, branches=branches,
                      heads=_heads("initial", 512))


def _refinement_stage(index: int, unit: str, block, branches: int = 1):
    """Refinement stage ``index``: a concat of the stage inputs, five runs of
    ``block(f"{stage}/{unit}{i}", cin)``, a 1x1 ``conv6`` and the heads."""
    name = f"refinement_stage_{index}"
    trunk = [LayerSpec(f"{name}/concat", "concat",
                       _STAGE_INPUT_CHANNELS, _STAGE_INPUT_CHANNELS)]
    cin = _STAGE_INPUT_CHANNELS
    for i in range(1, 6):
        trunk += block(f"{name}/{unit}{i}", cin)
        cin = 128
    trunk.append(LayerSpec(f"{name}/conv6", "pointwise_conv", 128, 128))
    return LayerGroup(name, tuple(trunk), branches=branches, heads=_heads(name, 128))


def _two_branch(name: str, backbone: LayerGroup, stages: int,
                input_height: int, input_width: int) -> ArchSpec:
    """``backbone`` completed with the stock two-branch stages: conv4_3,
    conv4_4, the initial stage and ``stages`` 7x7 refinement stages."""
    def conv7x7(prefix, cin):
        return [_conv(prefix, cin, 128, 7)]

    groups = [
        backbone,
        LayerGroup("conv4_3", (_conv("conv4_3", backbone.layers[-1].out_channels, 256, 3),)),
        LayerGroup("conv4_4", (_conv("conv4_4", 256, 128, 3),)),
        _initial_stage(branches=2),
    ]
    groups += [_refinement_stage(i, "conv", conv7x7, branches=2) for i in range(1, stages + 1)]
    return ArchSpec(name, input_height, input_width, tuple(groups))


def builtin_baseline_openpose(input_height: int = 368, input_width: int = 368) -> ArchSpec:
    """Stock two-branch network: VGG-19 backbone, one initial and five 7x7
    refinement stages."""
    return _two_branch("baseline", _vgg19_backbone(), 5, input_height, input_width)


def conv7x7_replacement_block(prefix: str, cin: int, channels: int = 128):
    """The cheap stand-in for a 7x7 convolution: 1x1, 3x3, dilated 3x3,
    plus a cost-free residual add."""
    return [
        LayerSpec(f"{prefix}/squeeze", "pointwise_conv", cin, channels),
        _conv(f"{prefix}/conv", channels, channels, 3),
        _conv(f"{prefix}/conv_dil", channels, channels, 3, dilation=2),
        LayerSpec(f"{prefix}/residual", "residual_add", channels, channels),
    ]


def _mobilenet_v1_backbone(cut: str):
    """MobileNet v1 trunk cut after the named block.

    Past conv4_1 the trunk is dilated: conv4_2 keeps stride 1, and conv5_1
    and conv5_6 take dilation 2, so the output stays at stride 8.
    """
    layers = [_conv("conv1", 3, 32, 3, stride=2)]
    layers += _dw_sep("conv2_1", 32, 64)
    layers += _dw_sep("conv2_2", 64, 128, stride=2)
    layers += _dw_sep("conv3_1", 128, 128)
    layers += _dw_sep("conv3_2", 128, 256, stride=2)
    layers += _dw_sep("conv4_1", 256, 256)
    if cut != "conv4_1":
        layers += _dw_sep("conv4_2", 256, 512)
        layers += _dw_sep("conv5_1", 512, 512, dilation=2)
        for i in range(2, 6):
            layers += _dw_sep(f"conv5_{i}", 512, 512)
        if cut == "conv5_6":
            layers += _dw_sep("conv5_6", 512, 1024, dilation=2)
    return LayerGroup("backbone", tuple(layers))


def _inverted_residual(prefix, cin, cout, expand, stride=1, dilation=1):
    layers = []
    mid = cin * expand
    if expand != 1:
        layers.append(LayerSpec(f"{prefix}/expand", "pointwise_conv", cin, mid))
    layers.append(LayerSpec(f"{prefix}/dw", "depthwise_conv", mid, mid, 3, stride, dilation))
    layers.append(LayerSpec(f"{prefix}/project", "pointwise_conv", mid, cout))
    if stride == 1 and cin == cout:
        layers.append(LayerSpec(f"{prefix}/residual", "residual_add", cout, cout))
    return layers


def _mobilenet_v2_backbone_conv6_3():
    """MobileNet v2 trunk cut after the conv6_3 block.

    Block names follow the Caffe port. The strides that would push past 8
    (conv4_3 and conv5_3) are removed, with dilations 2 and 4 on their
    depthwise convolutions to keep the receptive field; dilation is
    cost-neutral here.
    """
    layers = [_conv("conv1", 3, 32, 3, stride=2)]
    layers += _inverted_residual("conv2_1", 32, 16, expand=1)
    layers += _inverted_residual("conv2_2", 16, 24, expand=6, stride=2)
    layers += _inverted_residual("conv3_1", 24, 24, expand=6)
    layers += _inverted_residual("conv3_2", 24, 32, expand=6, stride=2)
    layers += _inverted_residual("conv4_1", 32, 32, expand=6)
    layers += _inverted_residual("conv4_2", 32, 32, expand=6)
    layers += _inverted_residual("conv4_3", 32, 64, expand=6, dilation=2)
    for i in range(4, 7):
        layers += _inverted_residual(f"conv4_{i}", 64, 64, expand=6)
    layers += _inverted_residual("conv4_7", 64, 96, expand=6)
    layers += _inverted_residual("conv5_1", 96, 96, expand=6)
    layers += _inverted_residual("conv5_2", 96, 96, expand=6)
    layers += _inverted_residual("conv5_3", 96, 160, expand=6, dilation=4)
    layers += _inverted_residual("conv6_1", 160, 160, expand=6)
    layers += _inverted_residual("conv6_2", 160, 160, expand=6)
    layers += _inverted_residual("conv6_3", 160, 320, expand=6)
    return LayerGroup("backbone", tuple(layers))


def builtin_lightweight(input_height: int = 368, input_width: int = 368) -> ArchSpec:
    """Single-branch network: dilated MobileNet v1 backbone, separable
    adapters, one initial stage and one refinement stage built from
    7x7-replacement blocks."""
    conv4_3 = (
        _dw_sep("conv4_3a", 512, 128)
        + _dw_sep("conv4_3b", 128, 128)
        + _dw_sep("conv4_3c", 128, 128)
    )
    groups = (
        _mobilenet_v1_backbone("conv5_5"),
        LayerGroup("conv4_3", tuple(conv4_3)),
        LayerGroup("conv4_4", (_conv("conv4_4", 128, 128, 3),)),
        _initial_stage(branches=1),
        _refinement_stage(1, "block", conv7x7_replacement_block),
    )
    note = ("conv4_3 as three separable convolutions computes to ~0.22 GFLOPs; "
            "the reference table rounds this row to 0.3.")
    return ArchSpec("lightweight", input_height, input_width, groups, (note,))


def builtin_backbone_variants(input_height: int = 368, input_width: int = 368):
    """The four backbone candidates, each completed with identical stages so
    their totals are comparable."""
    candidates = (
        ("mobilenet_v1_conv4_1", _mobilenet_v1_backbone("conv4_1")),
        ("dilated_mobilenet_v2_conv6_3", _mobilenet_v2_backbone_conv6_3()),
        ("dilated_mobilenet_v1_conv5_5", _mobilenet_v1_backbone("conv5_5")),
        ("dilated_mobilenet_v1_conv5_6", _mobilenet_v1_backbone("conv5_6")),
    )
    return [_two_branch(name, backbone, 1, input_height, input_width)
            for name, backbone in candidates]
