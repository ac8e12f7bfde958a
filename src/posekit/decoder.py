"""Decoding pipeline: peaks -> scored limb candidates -> greedy grouping -> skeletons.

``decode`` upsamples no map stack. It finds heatmap peaks by evaluating the
upsample only in the cells that can hold one: a cell is kept when a source
corner comes near the threshold and its corners do not rise or fall
steeply through it. Each kept cell interpolates one block, its own samples
and a one-sample ring around them, and the peak search runs inside the
blocks. One batch scores every limb's pairs on the stride-level PAFs. Both
read values bit-equal to the dense upsample. From the peaks to the
output, ``decode`` passes NumPy columns, not objects: peaks as (kind, x, y,
score) with id = row, candidates as (limb, from id, to id, affinity, valid
ratio) for every scored pair. Matching drops the unusable candidates, and
it and assembly work on ids. Each output ``Keypoint`` and
``PoseSkeleton`` is built once, in original-image pixels. The public stage
functions convert their object arguments to these columns, run the same
code and convert back. All stages are deterministic, run on the calling
thread and return plain values. Decode keeps no state between calls except
read-only per-shape tables, so concurrent decodes are safe. Each entry
point takes one ``DecoderConfig``, ``DecoderConfig()`` unless given.
``decode`` and ``extract_keypoints`` still accept a ``threads`` keyword
for compatibility; it is deprecated and changes nothing.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError
from .featuremaps import (
    FeatureMaps,
    InputGeometry,
    _axis_tables,
    _sample_upsampled,
)
from .skeleton import (
    BACKGROUND_CHANNEL,
    LIMBS,
    NUM_HEATMAP_CHANNELS,
    NUM_KEYPOINTS,
    NUM_PAF_CHANNELS,
    DecoderConfig,
    Keypoint,
    LimbConnection,
    PoseSkeleton,
)

__all__ = [
    "extract_keypoints",
    "score_connections",
    "collect_limb_candidates",
    "group_limbs",
    "assemble_skeletons",
    "decode",
]

def _require_channels(maps: FeatureMaps, count: int, what: str) -> None:
    if maps.channels != count:
        raise DimensionMismatchError(f"expected {count} {what} channels, got {maps.channels}")


def _deprecated_threads(threads) -> None:
    """Validate a ``threads`` argument that a caller still passes, then warn
    the caller of ``decode`` or ``extract_keypoints`` that it changes nothing."""
    if threads is None:
        return
    if threads < 0:
        raise ValueError(f"threads must be >= 0, got {threads}")
    warnings.warn("threads is deprecated and has no effect: decoding runs on the "
                  "calling thread", DeprecationWarning, stacklevel=3)


def _refine_axis(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Vertex offset of the parabola through ``(lo, values, hi)``, in (-0.5, 0.5].

    ``_peaks`` refines only float32 samples strictly above ``lo`` and at least
    equal to ``hi``, so in float64 ``lo - 2 * values + hi`` is finite and
    strictly negative: every triple is concave. The clip only absorbs rounding.
    """
    return ((lo - hi) / (2.0 * (lo - 2.0 * values + hi))).clip(-0.5, 0.5)


def _row_maxima(center: np.ndarray, left: np.ndarray, right: np.ndarray,
                threshold: float) -> np.ndarray:
    """First half of the peak rule: above ``threshold`` and a maximum of its
    row (strictly against the earlier neighbor, ties go to the center)."""
    mask = center > threshold
    mask &= center > left
    mask &= center >= right
    return mask


def _divmod(x: np.ndarray, d):
    """``np.divmod`` of non-negative integers by a positive integer or an
    array of them, through floor division, which NumPy runs several times
    faster."""
    q = x // d
    return q, x - q * d


def _peaks(flat: np.ndarray, idx: np.ndarray, col: int, row: int, kind, y, x):
    """Second half of the peak rule, on candidates that passed ``_row_maxima``.

    ``flat`` holds a map whose neighbors sit ``col`` apart within a row and
    ``row`` apart within a column; candidate ``flat[idx]`` is of ``kind``
    at integer ``(y, x)`` and must have its whole 8-neighborhood in the map.
    A peak is a local maximum over its 8-neighborhood: it wins against
    earlier neighbors (row-major order) only when strictly greater, and
    against later neighbors when greater or equal, so plateaus of equal
    values yield exactly one peak, the first in scan order. Returns the peak
    columns ``(kind, x, y, score)``, each axis refined by a quadratic
    offset, by kind, then descending score (ties by row, then column): a
    peak's id is its row.
    """
    v = flat[idx]
    up, down = idx - row, idx + row
    # Neighbors that precede the center in row-major order: must be strictly smaller.
    keep = v > flat[up - col]
    keep &= v > flat[up]
    keep &= v > flat[up + col]
    # Neighbors that follow the center: ties go to the center.
    keep &= v >= flat[down - col]
    keep &= v >= flat[down]
    keep &= v >= flat[down + col]
    # One index array gathers every column: faster than four boolean masks.
    sel = keep.nonzero()[0]
    idx, kind, x, y = idx.take(sel), kind.take(sel), x.take(sel), y.take(sel)
    v = flat[idx].astype(np.float64)
    x = x + _refine_axis(v, flat[idx - col].astype(np.float64),
                         flat[idx + col].astype(np.float64))
    y = y + _refine_axis(v, flat[idx - row].astype(np.float64),
                         flat[idx + row].astype(np.float64))
    order = np.lexsort((x, y, -v, kind))
    return kind[order], x[order], y[order], v[order]


def _hot_margin(max_abs: float) -> float:
    """How far below the threshold a hot cell's corners may sit.

    An upsampled sample is two float32 passes of ``(b - a) * w + a`` with
    ``0 <= w < 1``. With ``u = 2**-24`` and all corners within ``M`` of 0,
    one pass rounds three times: ``|b - a| <= 2M`` picks up ``2Mu`` in the
    subtraction and ``2Mu`` more in the product, and the sum, below
    ``M(1 + 5u)``, adds ``Mu``; so a pass lands within ``5Mu(1 + 2u)`` of its
    exact convex value, and two passes within ``10Mu(1 + 6u)`` of the exact
    bilinear value of the corners, which lies in their range. ``32u *
    max(1, M)`` covers that with a safety factor of about 3, and the 1 keeps
    subnormal rounding (``2**-150`` per operation) far inside it. Corners
    must stay below half the float32 range, else the resize's own ``b - a``
    overflows; ``FeatureMaps`` refuses any value of 2**127 or more in
    magnitude, so every map that reaches here complies.
    """
    return 32.0 * 2.0 ** -24 * max(1.0, max_abs)


@lru_cache(maxsize=8)
def _cell_layout(shape: tuple, factor: int):
    """The per-shape tables of decode's padded-cell layout (see
    ``_peak_cells``), for a padded stack of ``shape`` upsampled by
    ``factor``: the cell mask, which flat positions up to the last one
    ``_peak_cells`` tests are cells, ``[kind, a, b]`` with ``a <= h`` and
    ``b <= w``; for ``_cell_blocks``, the flat offsets of a 4x4 source
    neighbourhood, the ``f + 2`` steps from a block's first sample and the
    source interval of each of them; and the ``_axis_tables`` weights of
    the map's columns and rows."""
    _, height, width = shape
    # The padding adds two samples on every side.
    h, w = height - 4, width - 4
    mask = np.zeros(shape, dtype=bool)
    mask[:, :h + 1, :w + 1] = True
    mask = mask.reshape(-1)[:mask.size - 3 * width - 3]
    offsets = (np.arange(4)[:, None] * width + np.arange(4))[:, :, None]
    step = np.arange(factor + 2)[:, None]
    pattern = np.repeat(np.arange(3), (1, factor, 1))
    for arr in (mask, offsets, step, pattern):
        arr.flags.writeable = False
    return mask, offsets, step, pattern, _axis_tables(w, factor)[2], _axis_tables(h, factor)[2]


def _peak_cells(heat: np.ndarray, cfg: DecoderConfig):
    """Decode's cell filter: the cells of the keypoint channels of ``heat``,
    upsampled by ``cfg.upsample_factor``, that can hold a peak.

    Cell ``(a, b)`` holds the ``f x f`` samples between source rows
    ``a - 1`` and ``a`` and columns ``b - 1`` and ``b``, clamped, for
    ``0 <= a <= h`` and ``0 <= b <= w``. The maps are padded by repeating
    their edge samples twice on every side, so the cell's 4x4 source
    neighbourhood, rows ``a - 2 .. a + 1`` and columns ``b - 2 .. b + 1``,
    clamped, starts at ``padded[kind, a, b]``: that flat position is the
    cell's id. Two tests drop a cell, and neither drops one that holds a
    peak of the dense upsample:

    - Cold. A cell is hot when one of its four corners exceeds
      ``T - margin``, with ``T = float32(cfg.peak_threshold)`` and
      ``margin = _hot_margin(M)`` for ``M`` the largest magnitude in the
      maps, that limit rounded down to float32. A cold cell's samples stay
      within the range of its corners up to ``e < margin / 3``, so none
      exceeds ``T``.
    - Sloped. With ``delta = 8 * f * margin``, a hot cell is dropped when
      both of its corner rows rise by more than ``delta`` across it and
      across the next cell, or both fall by more than ``delta`` across it
      and across the previous cell; the same test runs on its corner
      columns. Take rows that rise. Each row of the cell's samples blends
      its two corner rows with one pair of weights, so its exact values
      climb by more than ``delta`` per source step through the cell and the
      next one. A sample's right neighbour, in the cell or in the next one,
      lies ``1 / f`` source steps further on (the float32 weights sit
      within ``2**-25`` of their positions), so its exact value is larger
      by more than ``8 * margin * (1 - f * 2**-24)``. Each float32 sample
      lies within ``e`` of its exact value and ``2e < margin``, so the
      neighbour beats every sample of the cell in float32 too, and none
      is a peak. Falling rows mirror this, and columns are alike.
      The differences are float32, whose rounding is monotone, so
      ``fl(d) > float32(delta)`` holds only for an exact ``d > delta``. The
      padding repeats the edge samples, so an edge cell has a zero
      difference across it: no edge cell is dropped, and no cell is
      dropped toward one, so every neighbour the argument reads is an
      interpolated sample inside the map.

    Both tests run on shifted slices of the flat padded stack; positions
    that are no cell are masked off by ``_cell_layout``'s mask. Returns the
    padded stack and the kept cells' sorted ids, or None at factor 1, where
    the maps are their own upsample and the dense peak search is faster.
    """
    factor = cfg.upsample_factor
    if factor == 1:
        return None
    src = heat[:BACKGROUND_CHANNEL]
    c, h, w = src.shape
    padded = np.empty((c, h + 4, w + 4), dtype=np.float32)
    padded[:, 2:-2, 2:-2] = src
    padded[:, :2, 2:-2] = src[:, :1]
    padded[:, -2:, 2:-2] = src[:, -1:]
    # One 2-D copy per edge column: faster than broadcasting into an inner axis of 2.
    for col, edge in ((0, 2), (1, 2), (-2, -3), (-1, -3)):
        padded[:, :, col] = padded[:, :, edge]
    flat = padded.reshape(-1)
    row = w + 4
    mask = _cell_layout(padded.shape, factor)[0]
    # Cell n has its corners at n + corner, + 1, + row and + row + 1.
    corner, size = row + 1, mask.size
    # Peaks must beat the float32 threshold; the corner limit rounds down.
    bound = max(float(src.max()), -float(src.min()))
    margin = _hot_margin(bound)
    limit = float(np.float32(cfg.peak_threshold)) - margin
    lim32 = np.float32(limit)
    if float(lim32) > limit:
        lim32 = np.nextafter(lim32, np.float32(-np.inf))
    above = flat > lim32
    hot = above[corner:corner + size] | above[corner + 1:corner + 1 + size]
    hot |= above[corner + row:corner + row + size]
    hot |= above[corner + row + 1:corner + row + 1 + size]
    hot &= mask
    delta = np.float32(8 * factor * margin)
    # Along rows (step 1), then columns (step row); ``across`` is the step
    # to the cell's other corner line.
    for step, across in ((1, row), (row, 1)):
        slope = flat[step:] - flat[:-step]
        for gentle, side in ((slope <= delta, step), (slope >= -delta, -step)):
            # Not both corner lines steep: across this interval, or the next one on ``side``.
            either = gentle[:-across] | gentle[across:]
            hot &= either[corner:corner + size] | either[corner + side:corner + side + size]
    return padded, np.flatnonzero(hot)


def _cell_blocks(cells, factor: int):
    """Decode's resize stage: each kept cell's ``(f + 2) x (f + 2)`` block of
    the dense upsample, its own ``f x f`` samples and a one-sample ring.

    Along an axis, cell ``a``'s block starts at sample
    ``a * f - ceil(f / 2) - 1`` and may stick out of the map, where nothing
    reads it. Its samples lie in the intervals ``[0, 1 x f, 2]`` of the
    cell's 4x4 source neighbourhood, each sample takes the ``_cell_layout``
    weight of its position, clamped to the map, and the pass is the
    resize's ``(b - a) * w + a`` in float32: columns first, then rows. So
    every block sample inside the map is bit-equal to ``_resize_planes``,
    and a clamped one, whose weight is -0.0, copies its edge sample, -0.0
    included. Samples of cold or dropped cells in the ring hold their real
    values. Returns each cell's kind and the upsampled row and column of
    its block's first sample, and the blocks as ``V[i, j, cell]`` (cells
    last, so every operation runs along a long axis); None for None.
    """
    if cells is None:
        return None
    padded, cell = cells
    _, height, width = padded.shape
    kind, rest = _divmod(cell, height * width)
    a, b = _divmod(rest, width)
    _, offsets, step, pattern, wx, wy = _cell_layout(padded.shape, factor)
    near = padded.reshape(-1).take(offsets + cell)
    lead = (factor + 1) // 2 + 1
    top, left = a * factor - lead, b * factor - lead
    wx = wx.take(left + step, mode="clip")
    wy = wy.take(top + step, mode="clip")
    cols = (near[:, 1:] - near[:, :-1]).take(pattern, axis=1)
    cols *= wx
    cols += near.take(pattern, axis=1)
    v = (cols[1:] - cols[:-1]).take(pattern, axis=0)
    v *= wy[:, None]
    v += cols.take(pattern, axis=0)
    return kind, top, left, v


def _block_peaks(heatmaps: FeatureMaps, blocks, cfg: DecoderConfig):
    """Decode's extract stage: the peak columns of the dense upsample of
    ``heatmaps``, from the ``_cell_blocks`` of its kept cells, or from the
    maps themselves when ``blocks`` is None."""
    if blocks is None:
        return _dense_peaks(heatmaps.data, cfg.peak_threshold)
    kind, top, left, v = blocks
    f2, _, m = v.shape
    f = f2 - 2
    p = _row_maxima(v[1:-1, 1:-1], v[1:-1, :-2], v[1:-1, 2:],
                    cfg.peak_threshold).reshape(-1).nonzero()[0]
    i, rest = _divmod(p, f * m)
    j, n = _divmod(rest, m)
    i += 1
    j += 1
    # Blocks may stick out of the map, whose outermost ring is never a peak.
    y, x = top[n] + i, left[n] + j
    inside = (y > 0) & (y < heatmaps.height * f - 1) & (x > 0) & (x < heatmaps.width * f - 1)
    i, j, n = i[inside], j[inside], n[inside]
    idx = (i * f2 + j) * m + n
    return _peaks(v.reshape(-1), idx, m, f2 * m, kind[n], y[inside], x[inside])


def _dense_peaks(data: np.ndarray, threshold: float):
    """The peak columns of a heatmap stack that is its own upsample."""
    _, h, w = data.shape
    flat = data[:BACKGROUND_CHANNEL].reshape(-1)
    # The row test runs on the flattened stack; the ring goes before the
    # other six neighbors are read.
    idx = _row_maxima(flat[1:-1], flat[:-2], flat[2:], threshold).nonzero()[0] + 1
    kind, pos = _divmod(idx, h * w)
    ys, xs = _divmod(pos, w)
    inside = (ys > 0) & (ys < h - 1) & (xs > 0) & (xs < w - 1)
    return _peaks(flat, idx[inside], 1, w, kind[inside], ys[inside], xs[inside])


def extract_keypoints(heatmaps: FeatureMaps, cfg: DecoderConfig = DecoderConfig(),
                      threads: int | None = None) -> list[list[Keypoint]]:
    """Extract per-kind keypoints from already-upsampled heatmaps.

    The background channel is skipped. Within each kind, keypoints are sorted
    by descending score (ties by row, then column) and ids are assigned in
    that order, unique across the whole call. The outermost ring is never a
    peak: on upsampled maps the edge-clamped interpolation replicates the
    adjacent interior values there, producing ridges that would duplicate
    every peak sitting near a border. ``cfg.peak_threshold`` is the one
    setting read. ``threads`` is deprecated, as in ``decode``.
    """
    _require_channels(heatmaps, NUM_HEATMAP_CHANNELS, "heatmap")
    _deprecated_threads(threads)
    result: list[list[Keypoint]] = [[] for _ in range(NUM_KEYPOINTS)]
    columns = (c.tolist() for c in _dense_peaks(heatmaps.data, cfg.peak_threshold))
    for kp_id, (kind, x, y, score) in enumerate(zip(*columns)):
        result[kind].append(Keypoint(id=kp_id, kind=kind, x=x, y=y, score=score))
    return result


@lru_cache(maxsize=8)
def _sample_offsets(count: int) -> np.ndarray:
    t = np.linspace(0.0, 1.0, count)
    t.flags.writeable = False
    return t


def _grouping_filter(affinity, valid, cfg: DecoderConfig):
    """Which scored candidates may become connections: valid ratio and
    positive affinity. Takes arrays or single floats."""
    return (valid >= cfg.min_valid_ratio) & (affinity > 0.0)


def _score_pairs(pafs: FeatureMaps, factor: int, x, y, ends, cfg: DecoderConfig):
    """Candidate columns ``(limb, from, to, affinity, valid_ratio)`` for the
    pairs of every limb, scored in one batch.

    Point ``r`` sits at ``(x[r], y[r])`` on ``pafs`` upsampled by ``factor``.
    ``ends`` holds one entry per limb in each of six columns: the first row
    and the count of its from points, the same for its to points, and its
    PAF x and y channels. A pair samples the field at ``paf_sample_count``
    evenly spaced points from a to b (endpoints included, nearest upsampled
    pixel) and dots each sample with the unit direction. Affinity is the
    mean; valid ratio is the fraction of samples whose alignment exceeds the
    threshold. Zero-length pairs score (0, 0). Every pair comes back, by
    limb, then in row-major (a, b) order.
    """
    a_start, na, b_start, nb, x_channel, y_channel = ends
    counts = na * nb
    # Pair p belongs to limb ``owner[p]``; its offset inside that limb's
    # na x nb block gives the row-major (i, j).
    owner = np.arange(len(counts)).repeat(counts)
    i, j = _divmod(np.arange(counts.sum()) - (counts.cumsum() - counts)[owner], nb[owner])
    ia = a_start[owner] + i
    ib = b_start[owner] + j

    count = cfg.paf_sample_count
    xy = np.array((x, y))
    start = xy.take(ia, axis=1)
    step = xy.take(ib, axis=1) - start
    length = np.hypot(step[0], step[1])
    nonzero = length > 0.0
    unit = np.divide(step, length, out=np.zeros_like(step), where=nonzero)
    # Each sample's nearest upsampled pixel, rounded half up in place
    # (truncation is the floor once clamped to >= 0); sample s of pair p
    # sits at flat position p * count + s.
    at = start[:, :, None] + step[:, :, None] * _sample_offsets(count)
    at += 0.5
    np.maximum(at, 0.0, out=at)
    last = np.array((pafs.width * factor - 1, pafs.height * factor - 1), dtype=np.float64)
    np.minimum(at, last[:, None, None], out=at)
    ix, iy = at.astype(np.intp).reshape(2, -1)
    channels = np.array((x_channel, y_channel)).repeat(counts * count, axis=1)
    field_x, field_y = _sample_upsampled(pafs.data, channels, factor, iy, ix).reshape(2, -1, count)
    aligned = field_x * unit[0, :, None] + field_y * unit[1, :, None]
    # ``mean``'s own arithmetic, without its Python-level wrapper.
    affinity = np.where(nonzero, aligned.sum(axis=-1) / count, 0.0)
    valid = np.where(nonzero, (aligned > cfg.paf_alignment_threshold).sum(axis=-1) / count, 0.0)
    return owner, ia, ib, affinity, valid


def score_connections(pafs: FeatureMaps, limb, kps_a, kps_b,
                      cfg: DecoderConfig = DecoderConfig()) -> list[LimbConnection]:
    """Score every (a, b) pair, in row-major order, against the limb's PAF
    channels. ``ValueError`` names the first keypoint that does not fit the
    limb: one of ``kps_a`` not of ``limb.from_kind``, one of ``kps_b`` not
    of ``limb.to_kind``, or one with a non-finite x or y."""
    _require_channels(pafs, NUM_PAF_CHANNELS, "PAF")
    for kps, kind, end in ((kps_a, limb.from_kind, "from"), (kps_b, limb.to_kind, "to")):
        for kp in kps:
            if kp.kind != kind:
                raise ValueError(f"keypoint {kp.id} has kind {kp.kind}, but limb {limb.id} "
                                 f"takes kind {kind} at its {end} end")
    flat = [*kps_a, *kps_b]
    x = np.array([kp.x for kp in flat], dtype=np.float64)
    y = np.array([kp.y for kp in flat], dtype=np.float64)
    finite = np.isfinite(x) & np.isfinite(y)
    if not finite.all():
        raise ValueError(f"keypoint {flat[np.argmin(finite)].id} has a non-finite x or y")
    na, nb = len(kps_a), len(kps_b)
    ends = np.array([[0], [na], [na], [nb], [limb.paf_x_channel], [limb.paf_y_channel]],
                    dtype=np.intp)
    columns = (c.tolist() for c in _score_pairs(pafs, 1, x, y, ends, cfg)[1:])
    return [LimbConnection(limb=limb, from_kp=flat[a].id, to_kp=flat[b].id, affinity=aff,
                           valid_ratio=ratio) for a, b, aff, ratio in zip(*columns)]


def collect_limb_candidates(pafs: FeatureMaps, limb, kps_a, kps_b,
                            cfg: DecoderConfig = DecoderConfig()) -> list[LimbConnection]:
    """Like ``score_connections`` but returns only the candidates that pass
    the grouping filter (``cfg.min_valid_ratio`` and positive affinity), in
    the same order. ``group_limbs`` applies that filter itself, so it
    accepts the same connections from these as from the unfiltered list.
    Raises ``ValueError`` for the same keypoints as ``score_connections``.
    """
    return [c for c in score_connections(pafs, limb, kps_a, kps_b, cfg)
            if _grouping_filter(c.affinity, c.valid_ratio, cfg)]


def _match(limb, frm, to, affinity, valid, cfg: DecoderConfig) -> list[int]:
    """Greedy matching of candidate columns: the rows it accepts, in order.

    Candidates that fail ``_grouping_filter`` are dropped. Limbs are matched
    in ascending ``limb`` order, each on its own. Its candidates are taken
    by descending affinity (ties by smaller from, then to) and accepted when
    neither endpoint is already used within the limb.
    """
    rows = _grouping_filter(affinity, valid, cfg).nonzero()[0]
    limb, frm, to, affinity = limb[rows], frm[rows], to[rows], affinity[rows]
    order = np.lexsort((to, frm, -affinity, limb))
    accepted: list[int] = []
    current, used_from, used_to = None, set(), set()
    for row, p, a, b in zip(rows[order].tolist(), limb[order].tolist(), frm[order].tolist(),
                            to[order].tolist()):
        if p != current:
            current, used_from, used_to = p, set(), set()
        if a in used_from or b in used_to:
            continue
        used_from.add(a)
        used_to.add(b)
        accepted.append(row)
    return accepted


def group_limbs(candidates_by_type, cfg: DecoderConfig = DecoderConfig()) -> list[LimbConnection]:
    """Greedy per-limb-type matching of the caller's candidate lists.

    Candidates with valid_ratio below ``cfg.min_valid_ratio`` or non-positive
    affinity are dropped; the rest are taken in order of descending affinity
    (ties by smaller from-id, then to-id), accepting a candidate only when
    neither endpoint is already used within its limb type. Returns the
    caller's own objects, by limb type, in acceptance order. A candidate
    it cannot match raises ``ValueError`` naming its limb-type list and
    position: an id that is not an integer, a non-finite affinity, or a
    valid ratio outside [0, 1].
    """
    blocks = [list(cands) for cands in candidates_by_type]
    for k, cands in enumerate(blocks):
        for i, c in enumerate(cands):
            if (not isinstance(c.from_kp, (int, np.integer))
                    or not isinstance(c.to_kp, (int, np.integer))
                    or bool in (type(c.from_kp), type(c.to_kp))
                    or not math.isfinite(c.affinity) or not 0.0 <= c.valid_ratio <= 1.0):
                raise ValueError(
                    f"candidate {i} of limb type list {k} has ids {c.from_kp!r} and "
                    f"{c.to_kp!r}, affinity {c.affinity} and valid ratio {c.valid_ratio}; "
                    "ids must be integers, the affinity finite and the ratio in [0, 1]")
    flat = [c for cands in blocks for c in cands]
    limb = np.repeat(np.arange(len(blocks)), [len(cands) for cands in blocks])
    frm, to = (np.array([getattr(c, name) for c in flat], dtype=np.intp)
               for name in ("from_kp", "to_kp"))
    affinity, valid = (np.array([getattr(c, name) for c in flat], dtype=np.float64)
                       for name in ("affinity", "valid_ratio"))
    return [flat[row] for row in _match(limb, frm, to, affinity, valid, cfg)]


def _assemble(connections, kind, score, cfg: DecoderConfig) -> list[tuple[list, float, int]]:
    """Skeletons from accepted ``(from, to, affinity)`` connections between
    points, where ``kind[p]`` and ``score[p]`` describe point ``p``, by the
    rules ``assemble_skeletons`` states.

    Returns each kept skeleton as ``(slots, score, count)``, where
    ``slots[k]`` is its point of kind ``k`` or -1.
    """
    owner: dict = {}
    fragments: list[list] = []  # each [slots, keypoint-score sum, affinity sum]
    for f, t, affinity in connections:
        frag = owner.get(f)
        other = owner.get(t)
        if frag is None and other is None:
            slots = [-1] * NUM_KEYPOINTS
            slots[kind[f]] = f
            frag = owner[f] = [slots, 0.0 + score[f], 0.0]
            fragments.append(frag)
            if kind[t] != kind[f]:  # two free points of one kind: t stays free
                slots[kind[t]] = t
                frag[1] += score[t]
                owner[t] = frag
        elif frag is None or other is None:
            frag, free = (other, f) if frag is None else (frag, t)
            slots = frag[0]
            if slots[kind[free]] != -1:
                continue  # the slot is taken: drop the connection
            slots[kind[free]] = free
            frag[1] += score[free]
            owner[free] = frag
        elif frag is not other:  # else a redundant edge inside one skeleton, which still counts
            slots = frag[0]
            if any(a != -1 and b != -1 for a, b in zip(slots, other[0])):
                continue  # conflicting slots: drop the connection
            for k, point in enumerate(other[0]):
                if point != -1:
                    slots[k] = point
                    owner[point] = frag
            frag[1] += other[1]
            affinity = other[2] + affinity
            fragments.remove(other)
        frag[2] += affinity

    skeletons = []
    for slots, kp_score, affinity in fragments:
        count = NUM_KEYPOINTS - slots.count(-1)
        total = (kp_score + affinity) / count
        if count < cfg.min_keypoints or total < cfg.min_skeleton_score:
            continue
        skeletons.append((total, slots, count))
    skeletons.sort(key=lambda item: -item[0])  # stable: ties keep creation order
    return [(slots, total, count) for total, slots, count in skeletons]


def assemble_skeletons(connections, keypoints,
                       cfg: DecoderConfig = DecoderConfig()) -> list[PoseSkeleton]:
    """Assemble accepted connections into skeletons.

    ``keypoints`` holds lists of ``Keypoint`` in any grouping, such as the
    per-kind lists of ``extract_keypoints``. Connections are consumed in the
    order produced by ``group_limbs`` (limb types in id order). A connection
    starts a new skeleton, attaches its free endpoint to the other endpoint's
    skeleton if the slot for that kind is empty, closes a redundant edge
    inside one skeleton, or merges two skeletons whose filled slots are
    disjoint; each of these adds its affinity. Any other connection is
    dropped with its affinity. Skeletons failing the keypoint-count or score
    minimums are discarded, and the rest are sorted by descending score,
    exact ties in creation order. Input it cannot assemble raises
    ``ValueError`` naming the id: an id given twice, a kind not in 0..17,
    a non-finite x, y or score, or a connection end that is no given id.
    """
    by_id: dict = {}
    for kp in (k for bucket in keypoints for k in bucket):
        if kp.id in by_id:
            raise ValueError(f"keypoint id {kp.id} is given twice")
        if kp.kind not in range(NUM_KEYPOINTS):
            raise ValueError(f"keypoint {kp.id} has kind {kp.kind}, not in 0..{NUM_KEYPOINTS - 1}")
        if not all(map(math.isfinite, (kp.x, kp.y, kp.score))):
            raise ValueError(f"keypoint {kp.id} has a non-finite x, y or score")
        by_id[kp.id] = kp
    edges = [(c.from_kp, c.to_kp, c.affinity) for c in connections]
    for end in (e for f, t, _ in edges for e in (f, t) if e not in by_id):
        raise ValueError(f"connection end {end} is not a given keypoint id")
    kind = {kp_id: kp.kind for kp_id, kp in by_id.items()}
    score = {kp_id: kp.score for kp_id, kp in by_id.items()}
    skeletons = _assemble(edges, kind, score, cfg)
    return [PoseSkeleton(tuple(by_id[s] if s != -1 else None for s in slots), total, count)
            for slots, total, count in skeletons]


# Each limb's from and to kinds and PAF channels, one column each.
_LIMB_COLUMNS = np.array([(limb.from_kind, limb.to_kind, limb.paf_x_channel, limb.paf_y_channel)
                          for limb in LIMBS], dtype=np.intp).T


def _group_peaks(pafs: FeatureMaps, peaks, cfg: DecoderConfig,
                 geometry: InputGeometry) -> list[PoseSkeleton]:
    """Decode's group stage: skeletons in original-image pixels from the
    peak columns of the heatmaps upsampled by ``cfg.upsample_factor``.

    All limbs are scored in one batch against the stride-level ``pafs``,
    then matched and assembled on peak ids. Every peak's x/y goes through
    one ``InputGeometry.map_to_original`` call, which maps elementwise, and
    each output ``Keypoint`` and ``PoseSkeleton`` is built once: a peak sits
    in at most one skeleton.
    """
    factor = cfg.upsample_factor
    kind, x, y, score = peaks
    if not kind.size:
        return []
    counts = np.bincount(kind, minlength=NUM_KEYPOINTS)
    starts = counts.cumsum() - counts
    from_kind, to_kind, x_channel, y_channel = _LIMB_COLUMNS
    limb, frm, to, affinity, valid = _score_pairs(
        pafs, factor, x, y,
        (starts[from_kind], counts[from_kind], starts[to_kind], counts[to_kind],
         x_channel, y_channel), cfg)
    accepted = _match(limb, frm, to, affinity, valid, cfg)
    kinds, scores = kind.tolist(), score.tolist()
    skeletons = _assemble(zip(frm[accepted].tolist(), to[accepted].tolist(),
                              affinity[accepted].tolist()), kinds, scores, cfg)
    xs, ys = (c.tolist() for c in geometry.map_to_original(x, y, factor))
    return [PoseSkeleton(tuple([None if r == -1 else Keypoint(r, kinds[r], xs[r], ys[r], scores[r])
                                for r in slots]), total, count)
            for slots, total, count in skeletons]


def decode(heatmaps: FeatureMaps, pafs: FeatureMaps, geometry: InputGeometry,
           cfg: DecoderConfig = DecoderConfig(),
           threads: int | None = None) -> list[PoseSkeleton]:
    """Full pipeline from stride-level maps to skeletons in original-image pixels.

    Extracts keypoints from the heatmaps upsampled by
    ``cfg.upsample_factor`` (evaluated only in the cells that can hold a
    peak, see ``_peak_cells``), scores limb candidates on the stride-level PAFs,
    groups and assembles them, then maps coordinates back through stride,
    upsample factor, scale, and padding. The result is what the public stages
    give on densely upsampled maps, and each output ``Keypoint`` and
    ``PoseSkeleton`` is built once, in original-image pixels. Maps that do not
    fit each other or ``geometry`` raise ``DimensionMismatchError``.
    ``threads`` is deprecated and changes nothing: a negative value raises
    ``ValueError``, any other passed value a ``DeprecationWarning``.
    """
    _require_channels(heatmaps, NUM_HEATMAP_CHANNELS, "heatmap")
    _require_channels(pafs, NUM_PAF_CHANNELS, "PAF")
    if (heatmaps.height, heatmaps.width) != (pafs.height, pafs.width):
        raise DimensionMismatchError(
            f"heatmap resolution {heatmaps.height}x{heatmaps.width} does not match "
            f"PAF resolution {pafs.height}x{pafs.width}"
        )
    if (geometry.net_input_height != heatmaps.height * geometry.stride
            or geometry.net_input_width != heatmaps.width * geometry.stride):
        raise DimensionMismatchError(
            f"geometry net input {geometry.net_input_height}x{geometry.net_input_width} "
            f"does not match maps {heatmaps.height}x{heatmaps.width} at stride {geometry.stride}"
        )
    _deprecated_threads(threads)
    cells = _peak_cells(heatmaps.data, cfg)
    peaks = _block_peaks(heatmaps, _cell_blocks(cells, cfg.upsample_factor), cfg)
    return _group_peaks(pafs, peaks, cfg, geometry)
