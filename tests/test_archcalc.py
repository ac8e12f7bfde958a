"""Layer cost arithmetic and the built-in network descriptions."""

import hashlib
import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from posekit import (
    ArchSpec,
    LayerGroup,
    LayerSpec,
    builtin_backbone_variants,
    builtin_baseline_openpose,
    builtin_lightweight,
    conv7x7_replacement_block,
    evaluate,
    layer_flops,
    layer_params,
)
from posekit.errors import InvalidArchitectureError

# Cumulative totals of the nine baseline groups, frozen from hand-audited
# per-layer sums at 368x368. The published table rounds to one decimal.
BASELINE_CUMULATIVE = (
    37.676040192, 40.172175360, 40.796209152, 43.007412224, 61.592731136,
    80.178050048, 98.763368960, 117.348687872, 135.934006784,
)
BASELINE_PUBLISHED = (37.8, 40.3, 40.9, 43.1, 61.7, 80.3, 98.9, 117.5, 136.1)
BASELINE_PARAMS = 52_311_446

LIGHTWEIGHT_GROUPS = {
    "backbone": 3.650760,
    "conv4_3": 0.222637,
    "conv4_4": 0.312017,
    "initial_stage": 1.136478,
    "refinement_stage_1": 3.359057,
}
LIGHTWEIGHT_TOTAL = 8.680949248
LIGHTWEIGHT_PARAMS = 3_987_314

VARIANT_TOTALS = {
    "mobilenet_v1_conv4_1": 23.214923776,
    "dilated_mobilenet_v2_conv6_3": 26.943180352,
    "dilated_mobilenet_v1_conv5_5": 27.567451136,
    "dilated_mobilenet_v1_conv5_6": 31.182730240,
}


def _probe(kind, in_ch, out_ch, kernel=1, **kw):
    return LayerSpec(name="probe", kind=kind, in_channels=in_ch, out_channels=out_ch,
                     kernel=kernel, **kw)


# ---------------------------------------------------------------------------
# Per-layer arithmetic
# ---------------------------------------------------------------------------

def test_conv_flops_hand_value():
    # 46*46 positions, 512 -> 512 channels, 3x3 kernel.
    layer = _probe("conv", 512, 512, kernel=3)
    assert layer_flops(layer, 46, 46) == 46 * 46 * 512 * 512 * 9 == 4_992_270_336
    assert layer_params(layer) == 512 * 512 * 9 + 512 == 2_359_808


def test_depthwise_and_pointwise_flops():
    assert (layer_flops(_probe("depthwise_conv", 512, 512, kernel=3), 46, 46)
            == 46 * 46 * 512 * 9)
    assert layer_flops(_probe("pointwise_conv", 512, 256), 46, 46) == 46 * 46 * 512 * 256
    assert layer_params(_probe("depthwise_conv", 512, 512, kernel=3)) == 512 * 9 + 512
    assert layer_params(_probe("pointwise_conv", 512, 256)) == 512 * 256 + 256


def test_zero_cost_kinds():
    for kind in ("pool", "concat", "residual_add"):
        out_ch = 64 if kind != "concat" else 185
        layer = _probe(kind, 64, out_ch, kernel=2 if kind == "pool" else 1)
        assert layer_flops(layer, 46, 46) == 0
        assert layer_params(layer) == 0


def test_stride_uses_ceil_division():
    layer = LayerSpec(name="s", kind="conv", in_channels=8, out_channels=8,
                      kernel=3, stride=2)
    assert layer_flops(layer, 23, 23) == 12 * 12 * 8 * 8 * 9


def test_dilation_does_not_change_cost():
    plain = _probe("conv", 64, 64, kernel=3)
    dilated = _probe("conv", 64, 64, kernel=3, dilation=2)
    assert layer_flops(plain, 46, 46) == layer_flops(dilated, 46, 46)
    assert layer_params(plain) == layer_params(dilated)


def test_layer_validation_names_the_layer():
    with pytest.raises(InvalidArchitectureError) as err:
        LayerSpec(name="bogus", kind="wiggle", in_channels=1, out_channels=1)
    assert err.value.layer == "bogus"
    with pytest.raises(InvalidArchitectureError):
        LayerSpec(name="dw", kind="depthwise_conv", in_channels=8, out_channels=16, kernel=3)
    with pytest.raises(InvalidArchitectureError):
        LayerSpec(name="pw", kind="pointwise_conv", in_channels=8, out_channels=8, kernel=3)
    # Pooling and residual adds keep their channels; only a concat may change them.
    for kind in ("pool", "residual_add"):
        with pytest.raises(InvalidArchitectureError, match=f"{kind} cannot change channels"):
            LayerSpec(name=kind, kind=kind, in_channels=8, out_channels=16)
    assert LayerSpec(name="cat", kind="concat", in_channels=8, out_channels=16).out_channels == 16
    # Every size is an integer >= 1; a fractional, boolean or zero one names the layer.
    for bad in ({"kernel": 3.5}, {"stride": 1.5}, {"dilation": 2.0}, {"in_channels": True},
                {"out_channels": 0}):
        fields = {"kernel": 3, **bad}
        with pytest.raises(InvalidArchitectureError) as err:
            LayerSpec("sized", "conv", fields.pop("in_channels", 3),
                      fields.pop("out_channels", 8), **fields)
        assert err.value.layer == "sized"
    numpy_sized = LayerSpec("np", "conv", np.int64(3), np.int32(8), kernel=np.int64(3))
    for input_h, input_w in ((10.5, 10), (10, 0), (True, 10)):
        with pytest.raises(InvalidArchitectureError) as err:
            layer_flops(numpy_sized, input_h, input_w)
        assert err.value.layer == "np"
    assert type(numpy_sized.in_channels) is int
    assert type(layer_flops(numpy_sized, np.int64(10), 10)) is int


def test_group_validation():
    layer = LayerSpec(name="x", kind="conv", in_channels=3, out_channels=8, kernel=3)
    with pytest.raises(InvalidArchitectureError):
        LayerGroup(name="g", layers=(layer,), branches=3)
    with pytest.raises(InvalidArchitectureError):
        LayerGroup(name="g", layers=())
    for branches in (True, 2.0, 0):
        with pytest.raises(InvalidArchitectureError) as err:
            LayerGroup(name="g", layers=(layer,), branches=branches)
        assert err.value.layer == "g"
    assert type(LayerGroup(name="g", layers=(layer,), branches=np.int64(2)).branches) is int


# ---------------------------------------------------------------------------
# Built-in architectures
# ---------------------------------------------------------------------------

def test_baseline_cumulative_totals():
    report = evaluate(builtin_baseline_openpose(368, 368))
    got = [g.cumulative_gflops for g in report.groups]
    assert got == pytest.approx(BASELINE_CUMULATIVE, rel=1e-9)
    for value, published in zip(got, BASELINE_PUBLISHED):
        assert abs(value - published) / published < 0.02
    assert report.total_params == BASELINE_PARAMS
    assert report.total_gflops == pytest.approx(BASELINE_CUMULATIVE[-1], rel=1e-12)


def test_baseline_refinement_stages_are_identical():
    report = evaluate(builtin_baseline_openpose(368, 368))
    stages = [g for g in report.groups if g.name.startswith("refinement_stage_")]
    assert len(stages) == 5
    assert len({round(g.gflops, 9) for g in stages}) == 1
    assert len({g.params for g in stages}) == 1


def test_lightweight_group_values():
    report = evaluate(builtin_lightweight(368, 368))
    assert [g.name for g in report.groups] == list(LIGHTWEIGHT_GROUPS)
    for group in report.groups:
        assert group.gflops == pytest.approx(LIGHTWEIGHT_GROUPS[group.name], abs=1e-5)
    assert report.total_gflops == pytest.approx(LIGHTWEIGHT_TOTAL, rel=1e-9)
    assert report.total_params == LIGHTWEIGHT_PARAMS
    assert report.footnotes  # the conv4_3 rounding note


def test_another_network_named_lightweight_gets_no_note():
    impostor = ArchSpec("lightweight", 368, 368, builtin_baseline_openpose().groups)
    assert evaluate(impostor).footnotes == ()


def test_a_renamed_lightweight_keeps_its_note():
    renamed = evaluate(replace(builtin_lightweight(), name="renamed"))
    assert renamed.footnotes == evaluate(builtin_lightweight()).footnotes
    assert len(renamed.footnotes) == 1 and "conv4_3" in renamed.footnotes[0]
    # Notes are stored as a tuple; one bare string is not taken for a list of notes.
    group = builtin_lightweight().groups[:1]
    assert ArchSpec("listed", 64, 64, group, ["a", "b"]).footnotes == ("a", "b")
    with pytest.raises(InvalidArchitectureError) as err:
        ArchSpec("one_string", 64, 64, group, "a note")
    assert err.value.layer == "one_string"


def test_backbone_variant_totals_and_order():
    reports = [evaluate(a) for a in builtin_backbone_variants(368, 368)]
    names = [r.to_json_dict()["arch"] for r in reports]
    assert names == list(VARIANT_TOTALS)
    totals = [r.total_gflops for r in reports]
    assert totals == pytest.approx(list(VARIANT_TOTALS.values()), rel=1e-9)
    assert totals == sorted(totals)
    assert len(set(totals)) == len(totals)


def test_replacement_block_ratio():
    # A 7x7 conv costs 49 MACs per in/out channel pair and position; the
    # block (1x1 + 3x3 + dilated 3x3 + free residual) costs 1 + 9 + 9 = 19.
    block = conv7x7_replacement_block("block", 128)
    spec = ArchSpec(name="probe", input_height=46, input_width=46,
                    groups=(LayerGroup(name="block", layers=block),))
    block_flops = evaluate(spec).total_gflops
    conv = _probe("conv", 128, 128, kernel=7)
    ratio = layer_flops(conv, 46, 46) / (block_flops * 1e9)
    assert ratio == pytest.approx(49 / 19, rel=1e-9)
    assert 2.3 <= ratio <= 2.7


# SHA-256 of every built-in network's per-layer rows, JSON and text at four
# input sizes, frozen before the builders were merged.
BUILTIN_LAYERS_SHA256 = "3b13b45309cb98cedcf790bbf358840d82245d72641f70f1c5b629b5ce1cb450"


def test_builtin_networks_per_layer_digest():
    texts = []
    for size in ((368, 368), (184, 184), (256, 456), (369, 371)):
        archs = [builtin_baseline_openpose(*size), builtin_lightweight(*size),
                 *builtin_backbone_variants(*size)]
        for arch in archs:
            report = evaluate(arch)
            texts.append(json.dumps([asdict(row) for row in report.layers])
                         + json.dumps(report.to_json_dict()) + report.format_text())
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == BUILTIN_LAYERS_SHA256


def test_layer_flops_matches_the_report_rows():
    # A stride-1 layer's input size is its output size, so each such row of the
    # report can be recomputed from the public function alone.
    checked = 0
    for arch in (builtin_baseline_openpose(369, 371), builtin_lightweight(369, 371),
                 *builtin_backbone_variants(369, 371)):
        specs = {(grp.name, layer.name): layer
                 for grp in arch.groups for layer in grp.layers + grp.heads}
        for row in evaluate(arch).layers:
            spec = specs[row.group, row.layer]
            if spec.stride == 1:
                assert layer_flops(spec, row.out_h, row.out_w) * row.multiplier == row.flops
                checked += 1
    assert checked > 250


def test_quarter_resolution_scales_flops_not_params():
    full = evaluate(builtin_baseline_openpose(368, 368))
    quarter = evaluate(builtin_baseline_openpose(184, 184))
    assert quarter.total_params == full.total_params
    assert full.total_gflops / quarter.total_gflops == pytest.approx(4.0, rel=1e-9)


# ---------------------------------------------------------------------------
# Report object
# ---------------------------------------------------------------------------

def test_report_lookup_and_json_layout():
    report = evaluate(builtin_baseline_openpose(368, 368))
    assert report.group("conv4_3").params == 1_179_904
    with pytest.raises(KeyError):
        report.group("missing")
    payload = report.to_json_dict()
    assert payload["arch"] == "baseline"
    assert payload["input"] == [368, 368]
    assert [g["name"] for g in payload["groups"]] == [g.name for g in report.groups]
    assert payload["total_gflops"] == report.total_gflops
    assert payload["total_params"] == BASELINE_PARAMS


def test_report_text_layout():
    text = evaluate(builtin_baseline_openpose(368, 368)).format_text()
    lines = text.splitlines()
    assert lines[0] == "Architecture: baseline at 368x368"
    assert lines[1].split() == ["Group", "GFLOPs", "GFLOPs", "total", "Params"]
    assert any(line.startswith("backbone") and "37.7" in line for line in lines)
    assert any(line.startswith("Total") for line in lines)
    assert "Parameters: 52.31M" in text
    lightweight = evaluate(builtin_lightweight(368, 368)).format_text()
    assert "Note:" in lightweight


# ---------------------------------------------------------------------------
# Architecture validation
# ---------------------------------------------------------------------------

def test_channel_flow_mismatch_is_reported():
    g1 = LayerGroup(name="a", layers=(
        LayerSpec(name="a1", kind="conv", in_channels=3, out_channels=16, kernel=3),))
    g2 = LayerGroup(name="b", layers=(
        LayerSpec(name="b1", kind="conv", in_channels=32, out_channels=32, kernel=3),))
    spec = ArchSpec(name="broken", input_height=64, input_width=64, groups=(g1, g2))
    with pytest.raises(InvalidArchitectureError) as err:
        evaluate(spec)
    assert "expects 32 input channels but receives 16" in str(err.value)


def test_deep_pooling_saturates_at_one_pixel():
    # Ceil division cannot collapse a dimension below 1 however deep the net.
    pools = tuple(
        LayerSpec(name=f"pool{i}", kind="pool", in_channels=3, out_channels=3,
                  kernel=2, stride=2)
        for i in range(8)
    )
    spec = ArchSpec(name="tiny", input_height=4, input_width=4,
                    groups=(LayerGroup(name="pools", layers=pools),))
    assert evaluate(spec).total_gflops == 0.0


def test_arch_spec_validation():
    layer = LayerSpec(name="x", kind="conv", in_channels=3, out_channels=8, kernel=3)
    group = LayerGroup(name="g", layers=(layer,))
    with pytest.raises(InvalidArchitectureError):
        ArchSpec(name="bad", input_height=0, input_width=64, groups=(group,))
    with pytest.raises(InvalidArchitectureError):
        ArchSpec(name="dup", input_height=64, input_width=64, groups=(group, group))
    for size in ({"input_height": 368.5}, {"input_width": False}):
        with pytest.raises(InvalidArchitectureError) as err:
            ArchSpec(**{"name": "sized", "input_height": 64, "input_width": 64,
                        "groups": (group,), **size})
        assert err.value.layer == "sized"
    # NumPy sizes are stored as int, so the report serializes like the int one.
    numpy_sized = evaluate(builtin_lightweight(np.int64(368), np.int64(368)))
    assert json.dumps(numpy_sized.to_json_dict()) \
        == json.dumps(evaluate(builtin_lightweight(368, 368)).to_json_dict())
