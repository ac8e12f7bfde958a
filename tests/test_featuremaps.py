"""Bilinear upsampling and network input geometry."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posekit import FeatureMaps, InputGeometry, STRIDE, compute_input_geometry, resize_bilinear
from posekit.errors import DimensionMismatchError
from posekit.featuremaps import _axis_tables, _phase_weights, _sample_upsampled
from posekit.fileio import parse_tensor, tensor_bytes
from posekit.synth import RenderConfig, render_pafs

# Hand-computed 2x2 -> 4x4 case. Output sample i reads source (i + 0.5)/2 - 0.5,
# so interior weights alternate 0.25/0.75 and the border replicates edge values.
GOLDEN_SRC = np.array([[0.0, 0.0], [0.0, 4.0]], dtype=np.float32)
GOLDEN_X2 = np.array(
    [
        [0.0, 0.00, 0.00, 0.0],
        [0.0, 0.25, 0.75, 1.0],
        [0.0, 0.75, 2.25, 3.0],
        [0.0, 1.00, 3.00, 4.0],
    ],
    dtype=np.float32,
)


def _reference_upsample(plane: np.ndarray, factor: int) -> np.ndarray:
    """Scalar float64 bilinear upsample, written independently of the library."""
    h, w = plane.shape
    out = np.empty((h * factor, w * factor), dtype=np.float64)
    for oy in range(h * factor):
        sy = (oy + 0.5) / factor - 0.5
        y0 = int(np.floor(sy))
        wy = sy - y0
        ya = min(max(y0, 0), h - 1)
        yb = min(max(y0 + 1, 0), h - 1)
        for ox in range(w * factor):
            sx = (ox + 0.5) / factor - 0.5
            x0 = int(np.floor(sx))
            wx = sx - x0
            xa = min(max(x0, 0), w - 1)
            xb = min(max(x0 + 1, 0), w - 1)
            top = plane[ya, xa] * (1.0 - wx) + plane[ya, xb] * wx
            bot = plane[yb, xa] * (1.0 - wx) + plane[yb, xb] * wx
            out[oy, ox] = top * (1.0 - wy) + bot * wy
    return out


def test_factor_two_golden_values_exact():
    up = resize_bilinear(FeatureMaps(GOLDEN_SRC[None]), 2)
    assert up.data.shape == (1, 4, 4)
    assert up.data.dtype == np.float32
    np.testing.assert_array_equal(up.data[0], GOLDEN_X2)


@pytest.mark.parametrize("factor", [2, 3, 4, 5, 7, 8, 16])
def test_matches_scalar_reference(factor):
    rng = np.random.default_rng(11)
    for shape in ((6, 9), (1, 9), (6, 1), (1, 1)):
        plane = rng.uniform(-3.0, 3.0, size=shape).astype(np.float32)
        up = resize_bilinear(FeatureMaps(plane[None]), factor)
        expected = _reference_upsample(plane.astype(np.float64), factor)
        np.testing.assert_allclose(up.data[0], expected, rtol=0, atol=1e-5)
        if 1 not in shape:
            continue
        # A 1-pixel axis has nothing to blend: along it every output sample
        # copies its source sample bit for bit, -0.0 included.
        plane.reshape(-1)[::2] = -0.0
        bits = resize_bilinear(FeatureMaps(plane[None]), factor).data[0].view(np.uint32)
        if shape[0] == 1:
            assert (bits == bits[:1]).all()
        if shape[1] == 1:
            assert (bits == bits[:, :1]).all()
        if shape == (1, 1):
            assert (bits == plane.view(np.uint32)).all()


def test_factor_one_is_identity():
    maps = FeatureMaps(np.arange(12, dtype=np.float32).reshape(1, 3, 4))
    assert resize_bilinear(maps, 1) is maps


def test_constant_planes_stay_exact():
    maps = FeatureMaps(np.full((3, 5, 6), 0.7, dtype=np.float32))
    for factor in (2, 3, 4, 8):
        up = resize_bilinear(maps, factor)
        assert up.data.shape == (3, 5 * factor, 6 * factor)
        np.testing.assert_array_equal(up.data, np.float32(0.7))


def test_plateau_around_integer_peak_is_bit_exact():
    # A peak at an integer source position turns into a 2x2 plateau whose
    # value is the interpolation of the two nearest samples; all four plateau
    # pixels must agree bit-for-bit or downstream tie-breaking drifts.
    plane = np.zeros((9, 9), dtype=np.float32)
    xs = np.arange(9, dtype=np.float64)
    blob = np.exp(-((xs[None, :] - 4.0) ** 2 + (xs[:, None] - 4.0) ** 2) / 8.0)
    plane[:] = blob.astype(np.float32)
    for factor in (2, 4, 8):
        up = resize_bilinear(FeatureMaps(plane[None]), factor).data[0]
        top = 4 * factor + factor // 2 - 1
        block = up[top:top + 2, top:top + 2]
        assert block[0, 0] == block[0, 1] == block[1, 0] == block[1, 1]
        assert block[0, 0] == up.max()


@pytest.mark.parametrize("factor", [1, 2, 3, 4, 5, 8])
@pytest.mark.parametrize("shape", [(23, 31), (1, 9), (9, 1)])
def test_point_sampler_is_bit_equal_to_dense_upsample(factor, shape):
    rng = np.random.default_rng(factor)
    data = rng.uniform(-1.0, 1.0, size=(3, *shape)).astype(np.float32)
    # The same maps with -0.0 on every edge, which clamped samples copy.
    edged = data.copy()
    edged[:, [0, -1], :] = -0.0
    edged[:, :, [0, -1]] = -0.0
    for maps in (data, edged):
        dense = resize_bilinear(FeatureMaps(maps), factor).data
        ys, xs = np.indices(dense.shape[1:])
        channels = np.array([2, 0, 1])[:, None, None]
        sampled = _sample_upsampled(maps, channels, factor, ys, xs)
        assert sampled.dtype == np.float32
        np.testing.assert_array_equal(sampled.view(np.uint32),
                                      dense[[2, 0, 1]].view(np.uint32))
        # A channel per point.
        per_point = rng.integers(0, 3, size=ys.shape)
        sampled = _sample_upsampled(maps, per_point[None], factor, ys, xs)
        np.testing.assert_array_equal(sampled[0].view(np.uint32),
                                      dense[per_point, ys, xs].view(np.uint32))
        # An x and a y channel per point on flat arrays, as pair scoring
        # passes them.
        pair = np.array((per_point, (per_point + 1) % 3)).reshape(2, -1)
        sampled = _sample_upsampled(maps, pair, factor, ys.reshape(-1), xs.reshape(-1))
        assert sampled.shape == pair.shape
        np.testing.assert_array_equal(
            sampled.view(np.uint32),
            dense[pair, ys.reshape(-1), xs.reshape(-1)].view(np.uint32))


def test_axis_tables_are_block_regular():
    # The strided resize reads these tables as three blocks: ``factor // 2``
    # head samples that copy src[0], a body whose sample q * factor + k
    # interpolates src[q] and src[q + 1] with a weight that depends only on
    # k, and a tail that copies src[-1]. Clamped samples carry -0.0.
    # ``_phase_weights`` gives those ``factor`` weights for every size; a
    # 1-pixel axis has no body and is all head and tail.
    for factor in range(2, 17):
        head = factor // 2
        phases = _phase_weights(factor).view(np.uint32)
        assert phases.shape == (factor,)
        for size in range(1, 1200):
            lo, hi, w = _axis_tables.__wrapped__(size, factor)
            stop = head + (size - 1) * factor
            q = np.arange(size - 1)[:, None]
            assert (lo[head:stop].reshape(-1, factor) == q).all()
            assert (hi[head:stop].reshape(-1, factor) == q + 1).all()
            assert (w[head:stop].reshape(-1, factor).view(np.uint32) == phases).all()
            assert (lo[:head] == 0).all() and (lo[stop:] == size - 1).all()
            assert (hi[:head] == 0).all() and (hi[stop:] == size - 1).all()
            clamped = np.concatenate([w[:head], w[stop:]])
            assert (clamped.view(np.uint32) == np.float32(-0.0).view(np.uint32)).all()


# sha256 of every (shape, factor) output below, computed with the resize
# that chose per axis between strided blocks and an index-gather fallback.
RESIZE_SWEEP_DIGEST = "90e946c4ccbf8a06f3a1341f478d41f79deae2c72cb75db808d8b5a38f1ef8d8"


def test_resize_bits_are_pinned():
    sizes, factors = (2, 3, 4, 5, 7, 9, 16, 32, 46, 57), (2, 3, 4, 5, 6, 7, 8, 16)
    digest = hashlib.sha256()
    for h in sizes:
        for w in sizes:
            # Exact float32 values without a random generator, some of them
            # +0.0, and -0.0 planted on the edges, which clamped samples copy.
            ramp = (np.arange(2 * h * w) * 7919 + 13 * h + w) % 2001 - 1000
            data = (ramp.astype(np.float32) / np.float32(997)).reshape(2, h, w)
            data[0, [0, -1], :] = data[0, :, [0, -1]] = -0.0
            data[1, [0, -1], ::2] = data[1, 1::2, [0, -1]] = -0.0
            for factor in factors:
                digest.update(resize_bilinear(FeatureMaps(data), factor).data.tobytes())
    assert digest.hexdigest() == RESIZE_SWEEP_DIGEST


def test_rejects_bad_factor():
    maps = FeatureMaps.zeros(1, 2, 2)
    with pytest.raises(ValueError):
        resize_bilinear(maps, 0)
    with pytest.raises(ValueError):
        resize_bilinear(maps, 2.0)
    with pytest.raises(ValueError):
        resize_bilinear(maps, True)


def test_from_planes_validation():
    with pytest.raises(DimensionMismatchError):
        FeatureMaps.from_planes(np.zeros((2, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        FeatureMaps.from_planes(np.full((1, 2, 2), np.nan))


@pytest.mark.parametrize("build", [
    lambda: FeatureMaps(np.zeros((2, 2), dtype=np.float32)),
    lambda: FeatureMaps(np.zeros((2, 2, 2, 2), dtype=np.float32)),
    lambda: FeatureMaps(np.zeros((1, 0, 2), dtype=np.float32)),
    lambda: FeatureMaps(np.zeros((0, 2, 2), dtype=np.float32)),
    lambda: FeatureMaps.zeros(1, 2, 0),
    lambda: FeatureMaps.zeros(-1, 2, 2),
], ids=["2d", "4d", "zero-height", "zero-channels", "zeros-zero-width", "zeros-negative"])
def test_construction_rejects_bad_shapes(build):
    with pytest.raises(DimensionMismatchError):
        build()


@pytest.mark.parametrize("dtype", [np.float64, np.int32])
def test_construction_rejects_other_dtypes(dtype):
    with pytest.raises(ValueError, match="float32"):
        FeatureMaps(np.zeros((1, 2, 2), dtype=dtype))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 2.0 ** 127, -2.0 ** 127, 3e38, -3e38])
def test_construction_rejects_values_outside_the_rule(value):
    data = np.zeros((2, 3, 4), dtype=np.float32)
    data[1, 2, 3] = value
    with pytest.raises(ValueError, match="finite"):
        FeatureMaps(data)


@pytest.mark.parametrize("build", [
    lambda src: FeatureMaps(src),
    lambda src: FeatureMaps.from_planes(src.astype(np.float64)),
    lambda src: FeatureMaps.zeros(*src.shape),
    lambda src: resize_bilinear(FeatureMaps(src), 2),
    lambda src: parse_tensor(tensor_bytes(FeatureMaps(src))),
    lambda src: render_pafs([], RenderConfig(*src.shape[1:])),
], ids=["direct", "from_planes", "zeros", "resize", "parse_tensor", "render"])
def test_data_is_read_only(build):
    src = np.ones((2, 3, 4), dtype=np.float32)
    maps = build(src)
    with pytest.raises(ValueError, match="read-only"):
        maps.data[0, 0, 0] = 2.0
    assert src.flags.writeable  # the caller's array is only viewed


@settings(max_examples=60)
@given(
    h=st.integers(min_value=1, max_value=7),
    w=st.integers(min_value=1, max_value=7),
    factor=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_values_stay_within_source_bounds(h, w, factor, seed):
    rng = np.random.default_rng(seed)
    plane = rng.uniform(-10.0, 10.0, size=(h, w)).astype(np.float32)
    up = resize_bilinear(FeatureMaps(plane[None]), factor).data
    # Convex combinations; allow a couple of float32 ulps of slack.
    eps = 1e-4
    assert up.min() >= plane.min() - eps
    assert up.max() <= plane.max() + eps


def test_geometry_identity_case():
    geo = compute_input_geometry(256, 456, 256)
    assert (geo.net_input_height, geo.net_input_width) == (256, 456)
    assert geo.pad == (0, 0, 0, 0)
    assert geo.scale == 1.0
    assert geo.scaled_width == 456


def test_geometry_pads_width_to_stride_multiple():
    geo = compute_input_geometry(720, 1280, 256)
    assert geo.scaled_height == 256
    assert geo.scaled_width == 455  # round-half-up of 1280 * 256/720
    assert geo.net_input_width == 456
    assert geo.pad == (0, 0, 0, 1)


def test_map_to_original_hand_value():
    geo = compute_input_geometry(256, 456, 256)
    x, y = geo.map_to_original(10.0, 3.0, upsample_factor=4)
    # step = 8/4 = 2: (10 + 0.5) * 2 - 0.5 and (3 + 0.5) * 2 - 0.5
    assert x == pytest.approx(20.5)
    assert y == pytest.approx(6.5)


def test_map_to_original_is_factor_independent_at_cell_centers():
    # The same physical point expressed at different upsample factors must
    # land on the same original-image pixel.
    geo = compute_input_geometry(512, 912, 256)
    cell = 12
    expected = None
    for factor in (1, 2, 4, 8):
        up_coord = cell * factor + factor / 2 - 0.5
        got = geo.map_to_original(up_coord, up_coord, factor)
        if expected is None:
            expected = got
        assert got[0] == pytest.approx(expected[0], abs=1e-9)
        assert got[1] == pytest.approx(expected[1], abs=1e-9)


def test_geometry_undoes_padding_offset():
    geo = compute_input_geometry(720, 1280, 256)
    x_pad, _ = geo.map_to_original(5.0, 5.0, 1)
    x_ref, _ = compute_input_geometry(720, 1274, 256).map_to_original(5.0, 5.0, 1)
    # Same net coordinate, same pad column count, same scale: x only shifts
    # through the pad term, which is zero on the left.
    assert x_pad == pytest.approx(x_ref, rel=1e-12)


@settings(max_examples=100)
@given(
    orig_h=st.integers(min_value=8, max_value=2000),
    orig_w=st.integers(min_value=8, max_value=3000),
    target=st.integers(min_value=16, max_value=512),
)
def test_geometry_invariants(orig_h, orig_w, target):
    geo = compute_input_geometry(orig_h, orig_w, target)
    assert geo.net_input_height % STRIDE == 0
    assert geo.net_input_width % STRIDE == 0
    assert geo.pad[0] == geo.pad[1] == 0
    assert 0 <= geo.pad[2] < STRIDE
    assert 0 <= geo.pad[3] < STRIDE
    assert geo.scaled_height == target
    assert geo.scaled_width >= 1


def test_geometry_rejects_nonpositive_dims():
    with pytest.raises(ValueError):
        compute_input_geometry(0, 100, 256)


# A 256x456 input at stride 8 with no pad: the identity geometry of a 32x57 map.
_GEOMETRY = dict(net_input_height=256, net_input_width=456, original_height=256,
                 original_width=456, stride=8, pad=(0, 0, 0, 0))


@pytest.mark.parametrize("change", [
    dict(original_height=0),          # scale divided by zero
    dict(original_height=True),       # mapped as a height of 1
    dict(original_height=720.5),
    dict(net_input_width=456.0),
    dict(stride=0),
    dict(pad=(0, 0, 300, 0)),         # negative scale: mirrored coordinates
    dict(pad=(0, 0, 256, 0)),         # zero scale
    dict(pad=(0, 0, 0, 456)),
    dict(pad=(0, 0, -1, 0)),
    dict(pad=(0, 0, 0)),
    dict(pad=(0, 0, 0.0, 0)),
    dict(pad=None),
], ids=lambda change: "-".join(f"{k}={v}" for k, v in change.items()))
def test_geometry_construction_rejects_values_outside_the_rule(change):
    with pytest.raises(ValueError):
        InputGeometry(**{**_GEOMETRY, **change})


def test_geometry_stores_python_ints():
    geo = InputGeometry(**{name: np.int64(value) for name, value in _GEOMETRY.items()
                           if name != "pad"}, pad=[np.int32(0), 0, 0, np.uint8(0)])
    assert geo == InputGeometry(**_GEOMETRY)
    assert all(type(v) is int for v in (*geo.pad, geo.original_height, geo.stride))


@pytest.mark.parametrize("args", [(720.5, 1280, 368), (720, 1280, 368.0), (True, 1280, 368)],
                         ids=repr)
def test_compute_input_geometry_rejects_non_integer_sizes(args):
    # Each built a geometry its own pose document could not hold: a
    # fractional original height, float net sizes, a height of True.
    with pytest.raises(ValueError):
        compute_input_geometry(*args)
