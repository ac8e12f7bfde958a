"""Dense multi-channel feature maps, bilinear upsampling, and input sizing.

Maps are stored channel-major: ``data[c, y, x]``, row-major within a plane.
``FeatureMaps`` owns the rule for a valid stack (float32, 3-D, finite and
below 2**127 in magnitude) and ``InputGeometry`` the rule for a valid
geometry; each checks it once, when a value is built.
All resampling uses the half-pixel-center convention, i.e. output sample ``i``
reads source coordinate ``(i + 0.5) / factor - 0.5``, with edge clamping.
A sample between source samples ``a`` and ``b`` is ``(b - a) * w + a`` in
float32. A clamped edge sample, whose coordinate lies before the first or
after the last source sample, copies that source sample bit for bit, -0.0
included. ``_axis_tables`` holds this rule for every reader;
``_phase_weights`` holds the weights of the samples between two sources.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError

# Network output stride: one feature-map pixel covers an 8x8 input patch.
STRIDE = 8

# Half the float32 range: the resize's ``b - a`` of two map values is finite.
_LIMIT = np.float32(2.0 ** 127)


@dataclass(frozen=True, eq=False)
class FeatureMaps:
    """A stack of dense planes ``data[c, y, x]``, valid by construction.

    ``data`` must be a 3-D float32 array, every dimension >= 1 and every
    value finite and below 2**127 in magnitude, else ``DimensionMismatchError``
    (shape) or ``ValueError``; no stage checks it again. ``data`` is kept as
    a read-only view of the array passed in, which is not copied: the rule
    covers that array as it was passed, and a caller that writes into it
    afterwards breaks the contract.
    """

    data: np.ndarray

    def __post_init__(self):
        data = self.data
        dtype = data.dtype if isinstance(data, np.ndarray) else type(data).__name__
        if dtype != np.float32:
            raise ValueError(f"feature maps must be a float32 array, got {dtype}")
        if data.ndim != 3 or min(data.shape) < 1:
            raise DimensionMismatchError(f"expected (channels, height, width), all >= 1, "
                                         f"got shape {data.shape}")
        # NaN fails both comparisons.
        if not (data.max() < _LIMIT and data.min() > -_LIMIT):
            raise ValueError("feature maps must hold finite values below 2**127 in magnitude")
        view = data.view()
        view.flags.writeable = False
        object.__setattr__(self, "data", view)

    @classmethod
    def from_planes(cls, planes) -> "FeatureMaps":
        return cls(np.ascontiguousarray(planes, dtype=np.float32))

    @classmethod
    def zeros(cls, channels: int, height: int, width: int) -> "FeatureMaps":
        # A negative size allocates an empty axis, which the shape rule refuses.
        return cls(np.zeros([max(n, 0) for n in (channels, height, width)], dtype=np.float32))

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


def _require_integer(value, what: str, minimum: int = 1) -> int:
    """``value`` as an ``int``, or ``ValueError`` unless it is an integer of at
    least ``minimum``. NumPy integers pass; ``bool`` does not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _require_real(value, what: str, positive: bool = False) -> float:
    """``value`` as a ``float``, or ``ValueError`` unless it is a finite real number, and
    > 0 when ``positive``. NumPy numbers pass; ``bool`` and too large integers do not."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{what} must be a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError as exc:
        raise ValueError(f"{what} is out of range: {exc}") from exc
    if not math.isfinite(number):
        raise ValueError(f"{what} must be finite{' and positive' if positive else ''}, "
                         f"got {number}")
    if positive and number <= 0:
        raise ValueError(f"{what} must be positive, got {number}")
    return number


@lru_cache(maxsize=64)
def _axis_tables(size: int, factor: int):
    """Index/weight tables for one axis of a half-pixel bilinear upsample.

    Returns ``(lo, hi, w)`` where output sample ``i`` equals
    ``(src[hi[i]] - src[lo[i]]) * w[i] + src[lo[i]]`` in float32. A clamped
    sample (``lo == hi``) has weight -0.0, which makes it ``src[lo[i]]`` bit
    for bit, -0.0 included: the copy rule of the module docstring.
    """
    coords = (np.arange(size * factor, dtype=np.float64) + 0.5) / factor - 0.5
    base = np.floor(coords)
    lo = np.clip(base, 0, size - 1).astype(np.intp)
    hi = np.clip(base + 1, 0, size - 1).astype(np.intp)
    w = np.where(lo == hi, np.float32(-0.0), (coords - base).astype(np.float32))
    for arr in (lo, hi, w):
        arr.flags.writeable = False
    return lo, hi, w


def _phase_weights(factor: int) -> np.ndarray:
    """The resize body's ``factor`` phase weights, read from a 2-pixel axis:
    on any axis, sample ``q * factor + factor // 2 + k`` takes weight ``k``."""
    return _axis_tables(2, factor)[2][factor // 2:factor // 2 + factor]


def _sample_upsampled(src: np.ndarray, channels: np.ndarray, factor: int,
                      ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """``up[channels, ys, xs]``, where ``up`` is ``_resize_planes(src,
    factor)``, gathered without the resize.

    ``ys`` and ``xs`` are index arrays of one shape, flat per-sample arrays
    in pair scoring; ``channels`` holds ``k`` channel sets along its first
    axis, each broadcasting against them, and the result has shape
    ``(k, *ys.shape)``. The four corners of every sample in every set come
    from one gather shaped ``(k, 2, 2, *ys.shape)``, small axes first, and
    the resize's float32 operations are repeated from ``_axis_tables``:
    columns first, then rows, each as ``(b - a) * w + a``, so the values
    are bit-equal to the dense upsample.
    """
    _, h, w = src.shape
    flat = src.reshape(-1)
    planes = channels * (h * w)
    if factor == 1:
        return flat.take(planes + (ys * w + xs))
    ylo, yhi, wy = _axis_tables(h, factor)
    xlo, xhi, wx = _axis_tables(w, factor)
    # Each upsampled row's two source rows as flat offsets, each column's two source columns.
    rows, cols = np.array((ylo, yhi)) * w, np.array((xlo, xhi))
    corners = rows.take(ys, axis=1)[:, None] + cols.take(xs, axis=1)
    v = flat.take(planes[:, None, None] + corners)
    a = v[:, :, 0]
    # Both source rows in one pass, then the blend between them.
    pair = (v[:, :, 1] - a) * wx.take(xs) + a
    top = pair[:, 0]
    return (pair[:, 1] - top) * wy.take(ys) + top


def _resize_axis(src: np.ndarray, out: np.ndarray, factor: int) -> None:
    """Upsample the last axis of ``src`` into ``out`` by ``factor``.

    The first ``factor // 2`` samples copy ``src[..., 0]`` and the samples
    after the body copy ``src[..., -1]``. Body sample ``q * factor + k``
    interpolates between ``src[..., q]`` and ``src[..., q + 1]`` with a
    weight that depends only on ``k``, so each phase ``k`` is one strided
    ``(b - a) * w + a`` and no index gathers are built.
    """
    size = src.shape[-1]
    head, span = factor // 2, (size - 1) * factor
    diff = src[..., 1:] - src[..., :-1]
    base = src[..., :-1]
    # A 1-pixel axis has no body: its phases are empty slices.
    for k, weight in enumerate(_phase_weights(factor)):
        phase = out[..., head + k:head + k + span:factor]
        np.multiply(diff, weight, out=phase)
        np.add(phase, base, out=phase)
    out[..., :head] = src[..., :1]
    out[..., head + span:] = src[..., -1:]


def _resize_planes(src: np.ndarray, factor: int) -> np.ndarray:
    """Separable bilinear upsample of a ``(c, h, w)`` float32 stack:
    ``_resize_axis`` on the columns, then on the rows through swapped-axis
    views."""
    c, h, w = src.shape
    tmp = np.empty((c, h, w * factor), dtype=np.float32)
    _resize_axis(src, tmp, factor)
    out = np.empty((c, h * factor, w * factor), dtype=np.float32)
    _resize_axis(tmp.swapaxes(1, 2), out.swapaxes(1, 2), factor)
    return out


def resize_bilinear(maps: FeatureMaps, factor: int) -> FeatureMaps:
    """Upsample every channel by an integer factor with bilinear interpolation.

    Output values are convex combinations of the four nearest source samples,
    so min/max never escape the source range (up to float rounding). A factor
    of 1 returns the input unchanged.
    """
    factor = _require_integer(factor, "factor")
    if factor == 1:
        return maps
    return FeatureMaps(_resize_planes(maps.data, factor))


@dataclass(frozen=True)
class InputGeometry:
    """How an original image was scaled and padded to the network input.

    ``pad`` is ``(top, left, bottom, right)`` in network-input pixels; only
    bottom and right are ever non-zero. The forward transform resizes the
    image by ``scale = scaled_height / original_height`` on both axes, then
    pads. ``map_to_original`` inverts it for feature-map coordinates.

    Valid by construction, else ``ValueError``: the four sizes and ``stride``
    are integers >= 1, stored as ``int``; ``pad`` is four integers >= 0,
    stored as a tuple, that leave at least one scaled pixel on each axis.
    """

    net_input_height: int
    net_input_width: int
    original_height: int
    original_width: int
    stride: int
    pad: tuple[int, int, int, int]

    def __post_init__(self):
        for name in ("net_input_height", "net_input_width", "original_height",
                     "original_width", "stride"):
            object.__setattr__(self, name, _require_integer(getattr(self, name), name))
        if not (isinstance(self.pad, (tuple, list)) and len(self.pad) == 4):
            raise ValueError(f"pad must be 4 integers (top, left, bottom, right), got {self.pad}")
        object.__setattr__(self, "pad", tuple(_require_integer(p, "pad", 0) for p in self.pad))
        if min(self.scaled_height, self.scaled_width) < 1:
            raise ValueError(f"pad {self.pad} leaves no scaled pixel on an axis of the input")

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
    bottom/right to the next multiple of the stride. ``InputGeometry`` checks it.
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
