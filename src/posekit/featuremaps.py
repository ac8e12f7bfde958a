"""Dense multi-channel feature maps, bilinear upsampling, and input sizing.

Maps are stored channel-major: ``data[c, y, x]``, row-major within a plane.
All resampling uses the half-pixel-center convention, i.e. output sample ``i``
reads source coordinate ``(i + 0.5) / factor - 0.5``, with edge clamping.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError

# Network output stride: one feature-map pixel covers an 8x8 input patch.
STRIDE = 8


@dataclass(frozen=True, eq=False)
class FeatureMaps:
    """A stack of dense planes with shape ``(channels, height, width)``, float32.

    Treat ``data`` as read-only; operations in this package never mutate a
    wrapped array in place.
    """

    data: np.ndarray

    @classmethod
    def from_planes(cls, planes) -> "FeatureMaps":
        arr = np.ascontiguousarray(planes, dtype=np.float32)
        if arr.ndim != 3:
            raise DimensionMismatchError(
                f"expected (channels, height, width), got shape {arr.shape}"
            )
        if min(arr.shape) < 1:
            raise DimensionMismatchError(f"all dimensions must be >= 1, got {arr.shape}")
        _require_finite(arr)
        return cls(arr)

    @classmethod
    def zeros(cls, channels: int, height: int, width: int) -> "FeatureMaps":
        if min(channels, height, width) < 1:
            raise DimensionMismatchError(
                f"all dimensions must be >= 1, got ({channels}, {height}, {width})"
            )
        return cls(np.zeros((channels, height, width), dtype=np.float32))

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    def plane(self, channel: int) -> np.ndarray:
        return self.data[channel]


def _require_finite(*arrays: np.ndarray) -> None:
    if not all(np.isfinite(arr).all() for arr in arrays):
        raise ValueError("feature maps must contain only finite values")


@lru_cache(maxsize=64)
def _axis_tables(size: int, factor: int):
    """Index/weight tables for one axis of a half-pixel bilinear upsample.

    Returns ``(lo, hi, w)`` where output sample ``i`` equals
    ``src[lo[i]] + w[i] * (src[hi[i]] - src[lo[i]])``.
    """
    coords = (np.arange(size * factor, dtype=np.float64) + 0.5) / factor - 0.5
    base = np.floor(coords)
    w = (coords - base).astype(np.float32)
    lo = np.clip(base, 0, size - 1).astype(np.intp)
    hi = np.clip(base + 1, 0, size - 1).astype(np.intp)
    for arr in (lo, hi, w):
        arr.flags.writeable = False
    return lo, hi, w


@lru_cache(maxsize=64)
def _axis_blocks(size: int, factor: int):
    """Regular block structure of an axis table, if it has one.

    For the usual case the table splits into ``head`` leading samples clamped
    to ``src[0]``, a body where sample ``q * factor + k`` interpolates between
    ``src[q]`` and ``src[q + 1]`` with a weight depending only on ``k``, and
    ``tail`` trailing samples clamped to ``src[-1]``. That shape lets the
    resize run on strided views instead of index gathers. Returns
    ``(head, tail, weights)`` or None when the table is irregular (weights for
    a non-power-of-two factor can drift by an ulp between periods).
    """
    if size < 2:
        return None
    lo, hi, w = _axis_tables(size, factor)
    head = int(np.sum(hi == 0))
    tail = int(np.sum(lo == size - 1))
    body = size * factor - head - tail
    if body != (size - 1) * factor:
        return None
    blo = lo[head:head + body]
    if not np.array_equal(blo, np.repeat(np.arange(size - 1), factor)):
        return None
    if not np.array_equal(hi[head:head + body], blo + 1):
        return None
    weights = w[head:head + factor].copy()
    if not np.array_equal(w[head:head + body], np.tile(weights, size - 1)):
        return None
    weights.flags.writeable = False
    return head, tail, weights


def _sample_upsampled(src: np.ndarray, channels: np.ndarray, factor: int,
                      ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """``up[channels, ys, xs]`` (index arrays that broadcast together), where
    ``up`` is ``_resize_planes(src, factor)``, gathered without the resize.

    Repeats the resize's float32 operations from ``_axis_tables``: columns
    first, then rows, each as ``(b - a) * w + a``. For finite maps the values
    are therefore bit-equal to the dense upsample, except that a -0.0 the
    resize copies into a clamped edge sample comes out as +0.0.
    """
    _, h, w = src.shape
    flat = src.reshape(-1)
    planes = np.asarray(channels, dtype=np.intp) * h
    if factor == 1:
        return flat[(planes + ys) * w + xs]
    ylo, yhi, wy = _axis_tables(h, factor)
    xlo, xhi, wx = _axis_tables(w, factor)
    x0, x1, fx = xlo[xs], xhi[xs], wx[xs]
    row = (planes + ylo[ys]) * w
    a = flat[row + x0]
    top = (flat[row + x1] - a) * fx + a
    row = (planes + yhi[ys]) * w
    a = flat[row + x0]
    bottom = (flat[row + x1] - a) * fx + a
    return (bottom - top) * wy[ys] + top


def _resize_planes(src: np.ndarray, factor: int) -> np.ndarray:
    """Separable bilinear upsample of a ``(c, h, w)`` float32 stack.

    Columns are interpolated first, then rows, each as ``a + w * (b - a)``:
    exact where a == b, so constant regions and plateaus survive upsampling
    bit-for-bit. When the axis table is block-regular (see ``_axis_blocks``)
    each output phase is one strided slice expression and no index gathers
    are built; irregular tables fall back to gathers.
    """
    c, h, w = src.shape
    out = np.empty((c, h * factor, w * factor), dtype=np.float32)
    tmp = np.empty((c, h, w * factor), dtype=np.float32)

    xb = _axis_blocks(w, factor)
    if xb is not None:
        head, tail, wv = xb
        span = (w - 1) * factor
        diff = src[:, :, 1:] - src[:, :, :-1]
        base = src[:, :, :-1]
        for k in range(factor):
            col = tmp[:, :, head + k:head + k + span:factor]
            np.multiply(diff, wv[k], out=col)
            np.add(col, base, out=col)
        tmp[:, :, :head] = src[:, :, :1]
        if tail:
            tmp[:, :, head + span:] = src[:, :, -1:]
    else:
        xlo, xhi, wx = _axis_tables(w, factor)
        np.subtract(src[:, :, xhi], src[:, :, xlo], out=tmp)
        np.multiply(tmp, wx, out=tmp)
        np.add(tmp, src[:, :, xlo], out=tmp)

    yb = _axis_blocks(h, factor)
    if yb is not None:
        head, tail, wv = yb
        span = (h - 1) * factor
        diff = tmp[:, 1:, :] - tmp[:, :-1, :]
        base = tmp[:, :-1, :]
        for k in range(factor):
            rows = out[:, head + k:head + k + span:factor, :]
            np.multiply(diff, wv[k], out=rows)
            np.add(rows, base, out=rows)
        out[:, :head, :] = tmp[:, :1, :]
        if tail:
            out[:, head + span:, :] = tmp[:, -1:, :]
    else:
        ylo, yhi, wy = _axis_tables(h, factor)
        np.subtract(tmp[:, yhi, :], tmp[:, ylo, :], out=out)
        np.multiply(out, wy[:, None], out=out)
        np.add(out, tmp[:, ylo, :], out=out)
    return out


def resize_bilinear(maps: FeatureMaps, factor: int) -> FeatureMaps:
    """Upsample every channel by an integer factor with bilinear interpolation.

    Output values are convex combinations of the four nearest source samples,
    so min/max never escape the source range (up to float rounding). A factor
    of 1 returns the input unchanged.
    """
    if isinstance(factor, bool) or not isinstance(factor, (int, np.integer)):
        raise ValueError(f"factor must be a positive integer, got {factor!r}")
    if factor < 1:
        raise ValueError(f"factor must be a positive integer, got {factor}")
    if factor == 1:
        return maps
    return FeatureMaps(_resize_planes(maps.data, int(factor)))


@dataclass(frozen=True)
class InputGeometry:
    """How an original image was scaled and padded to the network input.

    ``pad`` is ``(top, left, bottom, right)`` in network-input pixels; only
    bottom and right are ever non-zero. The forward transform resizes the
    image by ``scale = scaled_height / original_height`` on both axes, then
    pads. ``map_to_original`` inverts it for feature-map coordinates.
    """

    net_input_height: int
    net_input_width: int
    original_height: int
    original_width: int
    stride: int
    pad: tuple[int, int, int, int]

    @property
    def scaled_height(self) -> int:
        return self.net_input_height - self.pad[0] - self.pad[2]

    @property
    def scaled_width(self) -> int:
        return self.net_input_width - self.pad[1] - self.pad[3]

    @property
    def scale(self) -> float:
        return self.scaled_height / self.original_height

    def map_to_original(self, x: float, y: float, upsample_factor: int) -> tuple[float, float]:
        """Map a coordinate in upsampled feature-map space back to original-image pixels.

        The feature-map grid sits at ``stride / upsample_factor`` input pixels
        per cell; the half-pixel convention keeps sample centers aligned with
        the resize used on the maps themselves. ``x`` and ``y`` may also be
        float64 arrays, mapped elementwise with the same bits.
        """
        step = self.stride / upsample_factor
        x_net = (x + 0.5) * step - 0.5 - self.pad[1]
        y_net = (y + 0.5) * step - 0.5 - self.pad[0]
        s = self.scale
        return x_net / s, y_net / s


def _round_half_up(value: float) -> int:
    return int(np.floor(value + 0.5))


def compute_input_geometry(original_height: int, original_width: int,
                           target_height: int) -> InputGeometry:
    """Aspect-preserving network input geometry for an original image size.

    The image is scaled so its height becomes ``target_height``; the scaled
    width is rounded to the nearest pixel, then both axes are padded on the
    bottom/right to the next multiple of the stride.
    """
    if min(original_height, original_width, target_height) < 1:
        raise ValueError(
            "original_height, original_width and target_height must all be >= 1"
        )
    scale = target_height / original_height
    scaled_width = max(1, _round_half_up(original_width * scale))
    net_h = -(-target_height // STRIDE) * STRIDE
    net_w = -(-scaled_width // STRIDE) * STRIDE
    pad = (0, 0, net_h - target_height, net_w - scaled_width)
    return InputGeometry(
        net_input_height=net_h,
        net_input_width=net_w,
        original_height=original_height,
        original_width=original_width,
        stride=STRIDE,
        pad=pad,
    )
