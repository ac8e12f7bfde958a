"""Decoding pipeline: peaks -> scored limb candidates -> greedy grouping -> skeletons.

``decode`` upsamples no map stack. It finds heatmap peaks by evaluating the
upsample only in the cells that can hold one, and one batch scores every
limb's pairs on the stride-level PAFs; both read values bit-equal to the
dense bilinear upsample. From the peaks to the output, ``decode`` passes
NumPy columns, not objects: peaks as (kind, x, y, score) with id = row,
candidates as (limb, from id, to id, affinity, valid ratio). Matching and
assembly work on ids, and each output ``Keypoint`` and ``PoseSkeleton`` is
built once, in original-image pixels. The public stage functions convert
their object arguments to these columns, run the same code and convert back.
All stages are deterministic and run on the calling thread, with scratch
buffers kept per thread, so concurrent decodes are safe. The ``threads``
arguments are validated for compatibility and change nothing.
"""

from __future__ import annotations

import math
import os
import threading
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError
from .featuremaps import (
    FeatureMaps,
    InputGeometry,
    _axis_blocks,
    _axis_tables,
    _require_finite,
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
    "score_connection",
    "score_connections",
    "collect_limb_candidates",
    "group_limbs",
    "assemble_skeletons",
    "decode",
    "resolve_threads",
]

_scratch = threading.local()


def _buffer(name: str, shape) -> np.ndarray:
    """A per-thread float32 scratch array of ``shape``, reused across calls.

    Storage only grows, so repeated frames fault in no fresh pages (fresh
    megabyte temporaries made glibc trim and refault the heap on every
    frame), and concurrent decodes never share a buffer.
    """
    size = math.prod(shape)
    buf = getattr(_scratch, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(size, dtype=np.float32)
        setattr(_scratch, name, buf)
    return buf[:size].reshape(shape)


def resolve_threads(threads: int) -> int:
    """0 selects hardware concurrency; anything else passes through.

    Decoding runs on the calling thread, so the count is only validated.
    """
    if threads < 0:
        raise ValueError(f"threads must be >= 0, got {threads}")
    return threads if threads > 0 else (os.cpu_count() or 1)


def _refine_axis(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Quadratic sub-pixel offset along one axis, clamped to [-0.5, 0.5].

    ``lo``/``hi`` are the neighbor samples; fits a parabola through the three
    points and returns its vertex offset. Degenerate (non-concave) triples
    get offset 0.
    """
    denom = lo - 2.0 * values + hi
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = (lo - hi) / (2.0 * denom)
    delta = np.clip(delta, -0.5, 0.5)
    return np.where(denom < 0.0, delta, 0.0)


def _row_maxima(center: np.ndarray, left: np.ndarray, right: np.ndarray,
                threshold: float) -> np.ndarray:
    """First half of the peak rule: above ``threshold`` and a maximum of its
    row (strictly against the earlier neighbor, ties go to the center)."""
    mask = center > threshold
    mask &= center > left
    mask &= center >= right
    return mask


def _peaks(flat: np.ndarray, idx: np.ndarray, col: int, row: int):
    """Second half of the peak rule, on candidates that passed ``_row_maxima``.

    ``flat`` holds a map whose neighbors sit ``col`` apart within a row and
    ``row`` apart across rows; every candidate at ``flat[idx]`` must have its
    whole 8-neighborhood in the map. A peak is a local maximum over its
    8-neighborhood: it wins against earlier neighbors (row-major order) only
    when strictly greater, and against later neighbors when greater or
    equal, so plateaus of equal values yield exactly one peak, the first in
    scan order. Returns the peaks' flat indices, float64 scores and the
    quadratic ``dy``/``dx`` refinements.
    """
    v = flat[idx]
    # Neighbors that precede the center in row-major order: must be strictly smaller.
    keep = v > flat[idx - row - col]
    keep &= v > flat[idx - row]
    keep &= v > flat[idx - row + col]
    # Neighbors that follow the center: ties go to the center.
    keep &= v >= flat[idx + row - col]
    keep &= v >= flat[idx + row]
    keep &= v >= flat[idx + row + col]
    idx = idx[keep]
    v = flat[idx].astype(np.float64)
    dx = _refine_axis(v, flat[idx - col].astype(np.float64), flat[idx + col].astype(np.float64))
    dy = _refine_axis(v, flat[idx - row].astype(np.float64), flat[idx + row].astype(np.float64))
    return idx, v, dy, dx


def _hot_margin(max_abs: float) -> float:
    """How far below the threshold a hot cell's corners may sit.

    An upsampled sample is two float32 passes of ``(b - a) * w + a`` with
    ``0 <= w < 1``. With ``u = 2**-24`` and all corners within ``M`` of 0,
    one pass rounds three times: ``|b - a| <= 2M`` picks up ``2Mu`` in the
    subtraction and ``2Mu`` more in the product, and the sum, below
    ``M(1 + 5u)``, adds ``Mu``; so a pass lands within ``5Mu(1 + 2u)`` of its
    exact convex value, and two passes within ``10Mu(1 + 6u)`` of the range
    of the corners. ``32u * max(1, M)`` covers that with a safety factor of
    about 3, and the 1 keeps subnormal rounding (``2**-150`` per operation)
    far inside it. Corners must stay below half the float32 range, else the
    resize's own ``b - a`` overflows.
    """
    return 32.0 * 2.0 ** -24 * max(1.0, max_abs)


@lru_cache(maxsize=64)
def _halo_weights(size: int, factor: int) -> np.ndarray:
    """Resize weights of the ``factor + 2`` halo samples of every cell along
    one axis, shape ``(factor + 2, size + 1)``.

    Cell ``a`` holds the upsampled samples that interpolate between source
    samples ``a - 1`` and ``a``, clamped, so cells 0 and ``size`` hold the
    clamped edge samples. It starts at sample ``a * factor - ceil(factor / 2)``
    and may stick out of the map; samples outside it get an edge weight that
    nothing reads. Where the resize copies a clamped edge sample instead of
    interpolating it (see ``_axis_blocks``) the weight is -0.0, because
    ``(b - a) * -0.0 + a`` is ``a``, -0.0 included.
    """
    _, _, weights = _axis_tables(size, factor)
    blocks = _axis_blocks(size, factor)
    if blocks is not None:
        head, tail, _ = blocks
        weights = weights.copy()
        weights[:head] = -0.0
        weights[size * factor - tail:] = -0.0
    first = np.arange(size + 1) * factor - (factor + 1) // 2
    table = weights[np.clip(first + np.arange(-1, factor + 1)[:, None], 0, size * factor - 1)]
    table.flags.writeable = False
    return table


def _halo_pass(src: np.ndarray, weights: np.ndarray, out: np.ndarray) -> None:
    """One resize pass over the cells: four samples per cell along axis 0
    of ``src`` give ``factor + 2`` along axis 0 of ``out``.

    Sample 0 (the leading halo) interpolates inputs 0 and 1, the cell's own
    samples inputs 1 and 2, and the trailing halo inputs 2 and 3, each as
    the resize does it: ``(b - a) * w + a`` in float32.
    """
    interior, last = out[1:-1], out[-1]
    np.subtract(src[2], src[1], out=last)
    np.multiply(last, weights[1:-1], out=interior)
    np.add(interior, src[1], out=interior)
    for sample, k in ((out[0], 0), (last, 2)):
        np.subtract(src[k + 1], src[k], out=sample)
        np.multiply(sample, weights[-1 if k else 0], out=sample)
        np.add(sample, src[k], out=sample)


def _upsample_hot_cells(heat: np.ndarray, cfg: DecoderConfig):
    """Decode's resize stage: the keypoint channels of ``heat`` upsampled by
    ``cfg.upsample_factor`` around their hot cells only.

    A cell (see ``_halo_weights``) is hot when one of its four source corners
    exceeds ``cfg.peak_threshold - _hot_margin``: no sample of a cold cell
    can exceed the threshold. Each hot cell's samples and a one-sample halo
    are interpolated from the 4x4 source samples around it, columns first,
    then rows, with the resize's float32 operations, so they are bit-equal
    to ``_resize_planes``. Returns the cells' kinds, the upsampled pixel of
    each cell's first halo sample and the cells' samples ``V[i, j, cell]``
    (cells last, so every operation runs along a long axis); or None at
    factor 1, where the maps are their own upsample and the dense peak
    search is three times faster.
    """
    factor = cfg.upsample_factor
    if factor == 1:
        return None
    src = heat[:BACKGROUND_CHANNEL]
    c, h, w = src.shape
    # The maps with two edge samples repeated on every side: cell (a, b)
    # has corners at rows a + 1, a + 2 and columns b + 1, b + 2 here, and
    # its 4x4 source samples around it start at row a and column b.
    padded = _buffer("padded", (c, h + 4, w + 4))
    padded[:, 2:-2, 2:-2] = src
    padded[:, :2, 2:-2] = src[:, :1]
    padded[:, -2:, 2:-2] = src[:, -1:]
    padded[:, :, :2] = padded[:, :, 2:3]
    padded[:, :, -2:] = padded[:, :, -3:-2]
    # Peaks must beat the float32 threshold; the corner limit rounds down.
    bound = max(float(src.max()), -float(src.min()))
    limit = float(np.float32(cfg.peak_threshold)) - _hot_margin(bound)
    lim32 = np.float32(limit)
    if float(lim32) > limit:
        lim32 = np.nextafter(lim32, np.float32(-np.inf))
    above = padded[:, 1:-1, 1:-1] > lim32
    hot = above[:, :-1, :-1] | above[:, 1:, :-1]
    hot |= above[:, :-1, 1:]
    hot |= above[:, 1:, 1:]
    kind, rest = np.divmod(np.flatnonzero(hot), (h + 1) * (w + 1))
    a, b = np.divmod(rest, w + 1)
    m, f2 = a.size, factor + 2

    corner = (kind * (h + 4) + a) * (w + 4) + b
    flat = padded.reshape(-1)
    near = _buffer("near", (4, 4, m))
    for k in range(4):
        for j in range(4):
            np.take(flat[k * (w + 4) + j:], corner, out=near[k, j])
    cols = _buffer("cols", (4, f2, m))
    _halo_pass(near.transpose(1, 0, 2), np.take(_halo_weights(w, factor), b, axis=1)[:, None],
               cols.transpose(1, 0, 2))
    v = _buffer("cells", (f2, f2, m))
    _halo_pass(cols, np.take(_halo_weights(h, factor), a, axis=1)[:, None], v)
    lead = (factor + 1) // 2 + 1
    return kind, a * factor - lead, b * factor - lead, v


def _cell_peaks(heatmaps: FeatureMaps, cells, cfg: DecoderConfig):
    """Decode's extract stage: the peak columns of the dense upsample of
    ``heatmaps``, from their ``_upsample_hot_cells``."""
    if cells is None:
        return _dense_peaks(heatmaps.data, cfg.peak_threshold)
    kind, top, left, v = cells
    f2, m = v.shape[1:]
    height, width = heatmaps.height * cfg.upsample_factor, heatmaps.width * cfg.upsample_factor
    p = np.flatnonzero(_row_maxima(v[1:-1, 1:-1], v[1:-1, :-2], v[1:-1, 2:],
                                   cfg.peak_threshold))
    i, rest = np.divmod(p, (f2 - 2) * m)
    j, n = np.divmod(rest, m)
    i += 1
    j += 1
    # Cells may stick out of the map, whose outermost ring is never a peak.
    y, x = top[n] + i, left[n] + j
    inside = (y > 0) & (y < height - 1) & (x > 0) & (x < width - 1)
    idx, score, dy, dx = _peaks(v.reshape(-1), ((i * f2 + j) * m + n)[inside], m, f2 * m)
    i, rest = np.divmod(idx, f2 * m)
    j, n = np.divmod(rest, m)
    return _sort_peaks(kind[n], left[n] + j + dx, top[n] + i + dy, score)


def _sort_peaks(kind, x, y, score):
    """The peak columns ``(kind, x, y, score)`` by kind, then descending
    score (ties by row, then column); a peak's id is its row."""
    order = np.lexsort((x, y, -score, kind))
    return kind[order], x[order], y[order], score[order]


def _dense_peaks(data: np.ndarray, threshold: float):
    """The peak columns of a heatmap stack that is its own upsample."""
    _, h, w = data.shape
    flat = data[:BACKGROUND_CHANNEL].reshape(-1)
    # The row test runs on the flattened stack; the ring goes before the
    # other six neighbors are read.
    idx = np.flatnonzero(_row_maxima(flat[1:-1], flat[:-2], flat[2:], threshold)) + 1
    ys, xs = np.divmod(idx % (h * w), w)
    idx = idx[(ys > 0) & (ys < h - 1) & (xs > 0) & (xs < w - 1)]
    idx, score, dy, dx = _peaks(flat, idx, 1, w)
    kind, pos = np.divmod(idx, h * w)
    ys, xs = np.divmod(pos, w)
    return _sort_peaks(kind, xs + dx, ys + dy, score)


def extract_keypoints(heatmaps: FeatureMaps, cfg: DecoderConfig | None = None,
                      threads: int = 1) -> list[list[Keypoint]]:
    """Extract per-kind keypoints from already-upsampled heatmaps.

    The background channel is skipped. Within each kind, keypoints are sorted
    by descending score (ties by row, then column) and ids are assigned in
    that order, unique across the whole call. The outermost ring is never a
    peak: on upsampled maps the edge-clamped interpolation replicates the
    adjacent interior values there, producing ridges that would duplicate
    every peak sitting near a border. ``threads`` is validated like
    ``decode``'s and does not change the work.
    """
    cfg = cfg or DecoderConfig()
    if heatmaps.channels != NUM_HEATMAP_CHANNELS:
        raise DimensionMismatchError(
            f"expected {NUM_HEATMAP_CHANNELS} heatmap channels, got {heatmaps.channels}"
        )
    resolve_threads(threads)
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


def _nearest_index(coords: np.ndarray, limit: int) -> np.ndarray:
    # In-place round-half-up; truncation equals floor once values are >= 0.
    coords += 0.5
    np.clip(coords, 0, limit, out=coords)
    return coords.astype(np.intp)


def _score_pairs(pafs: FeatureMaps, factor: int, x, y, ends, cfg: DecoderConfig,
                 keep_all: bool = False):
    """Candidate columns ``(limb, from, to, affinity, valid_ratio)`` for the
    pairs of every limb, scored in one batch.

    Point ``r`` sits at ``(x[r], y[r])`` on ``pafs`` upsampled by ``factor``.
    ``ends`` holds one entry per limb in each of six columns: the first row
    and the count of its from points, the same for its to points, and its
    PAF x and y channels. A pair samples the field at ``paf_sample_count``
    evenly spaced points from a to b (endpoints included, nearest upsampled
    pixel) and dots each sample with the unit direction. Affinity is the
    mean; valid ratio is the fraction of samples whose alignment exceeds the
    threshold. Zero-length pairs score (0, 0). Candidates are by limb, then
    in row-major (a, b) order, and hold all pairs with ``keep_all``, else
    those passing the grouping filter.
    """
    a_start, na, b_start, nb, x_channel, y_channel = ends
    counts = na * nb
    if not counts.any():
        rows = np.empty(0, dtype=np.intp)
        return rows, rows, rows, np.empty(0), np.empty(0)
    # Pair p belongs to limb ``owner[p]``; its offset inside that limb's
    # na x nb block gives the row-major (i, j).
    owner = np.repeat(np.arange(len(counts)), counts)
    i, j = np.divmod(np.arange(counts.sum()) - (np.cumsum(counts) - counts)[owner], nb[owner])
    ia = a_start[owner] + i
    ib = b_start[owner] + j

    h, w = pafs.height * factor, pafs.width * factor
    dx, dy = x[ib] - x[ia], y[ib] - y[ia]
    length = np.hypot(dx, dy)
    nonzero = length > 0.0
    ux = np.divide(dx, length, out=np.zeros_like(dx), where=nonzero)
    uy = np.divide(dy, length, out=np.zeros_like(dy), where=nonzero)
    t = _sample_offsets(cfg.paf_sample_count)
    ix = _nearest_index(x[ia, None] + dx[:, None] * t, w - 1)
    iy = _nearest_index(y[ia, None] + dy[:, None] * t, h - 1)
    channels = np.stack((x_channel[owner], y_channel[owner]))[:, :, None]
    field_x, field_y = _sample_upsampled(pafs.data, channels, factor, iy, ix)
    aligned = field_x * ux[:, None] + field_y * uy[:, None]
    affinity = np.where(nonzero, aligned.mean(axis=-1), 0.0)
    valid = np.where(
        nonzero,
        (aligned > cfg.paf_alignment_threshold).sum(axis=-1) / cfg.paf_sample_count,
        0.0,
    )
    keep = keep_all | ((valid >= cfg.min_valid_ratio) & (affinity > 0.0))
    return owner[keep], ia[keep], ib[keep], affinity[keep], valid[keep]


def _score_limbs(pafs: FeatureMaps, factor: int, limbs, pairs, cfg: DecoderConfig,
                 keep_all: bool = False) -> list[list[LimbConnection]]:
    """``_score_pairs`` as one candidate list per limb, where ``pairs[k]`` is
    the ``(kps_a, kps_b)`` lists of ``limbs[k]``'s from and to keypoints."""
    flat = [kp for ends in pairs for kps in ends for kp in kps]
    x = np.array([kp.x for kp in flat], dtype=np.float64)
    y = np.array([kp.y for kp in flat], dtype=np.float64)
    na, nb, x_channel, y_channel = np.array(
        [(len(kps_a), len(kps_b), limb.paf_x_channel, limb.paf_y_channel)
         for limb, (kps_a, kps_b) in zip(limbs, pairs)], dtype=np.intp).reshape(-1, 4).T
    a_start = np.cumsum(na + nb) - (na + nb)
    columns = _score_pairs(pafs, factor, x, y,
                           (a_start, na, a_start + na, nb, x_channel, y_channel), cfg, keep_all)
    result: list[list[LimbConnection]] = [[] for _ in limbs]
    for p, a, b, aff, ratio in zip(*(c.tolist() for c in columns)):
        result[p].append(LimbConnection(limb=limbs[p], from_kp=flat[a].id, to_kp=flat[b].id,
                                        affinity=aff, valid_ratio=ratio))
    return result


def score_connections(pafs: FeatureMaps, limb, kps_a, kps_b,
                      cfg: DecoderConfig | None = None) -> list[LimbConnection]:
    """Score every (a, b) pair, in row-major order, against the limb's PAF channels."""
    return _score_limbs(pafs, 1, (limb,), ((kps_a, kps_b),), cfg or DecoderConfig(),
                        keep_all=True)[0]


def collect_limb_candidates(pafs: FeatureMaps, limb, kps_a, kps_b,
                            cfg: DecoderConfig | None = None) -> list[LimbConnection]:
    """Like ``score_connections`` but materializes only candidates that pass
    the grouping filter (valid ratio and positive affinity).

    Feeding these to ``group_limbs`` yields the same result as the unfiltered
    list; building objects for pairs that are about to be discarded is the
    bulk of the grouping stage's cost on crowded scenes.
    """
    return _score_limbs(pafs, 1, (limb,), ((kps_a, kps_b),), cfg or DecoderConfig())[0]


def score_connection(pafs: FeatureMaps, limb, a: Keypoint, b: Keypoint,
                     cfg: DecoderConfig | None = None) -> LimbConnection:
    """Score a single candidate connection. See ``score_connections``."""
    if pafs.channels != NUM_PAF_CHANNELS:
        raise DimensionMismatchError(
            f"expected {NUM_PAF_CHANNELS} PAF channels, got {pafs.channels}"
        )
    if a.kind != limb.from_kind or b.kind != limb.to_kind:
        raise ValueError(
            f"keypoint kinds ({a.kind}, {b.kind}) do not match limb "
            f"({limb.from_kind} -> {limb.to_kind})"
        )
    return score_connections(pafs, limb, [a], [b], cfg)[0]


def _match(limb, frm, to, affinity, valid, cfg: DecoderConfig) -> list[int]:
    """Greedy matching of candidate columns: the rows it accepts, in order.

    Limbs are matched in ascending ``limb`` order, each on its own. Its
    candidates that pass the grouping filter are taken by descending
    affinity (ties by smaller from, then to) and accepted when neither
    endpoint is already used within the limb.
    """
    keep = np.flatnonzero((valid >= cfg.min_valid_ratio) & (affinity > 0.0))
    order = keep[np.lexsort((to[keep], frm[keep], -affinity[keep], limb[keep]))]
    accepted: list[int] = []
    current, used_from, used_to = None, set(), set()
    for row, p, a, b in zip(order.tolist(), limb[order].tolist(), frm[order].tolist(),
                            to[order].tolist()):
        if p != current:
            current, used_from, used_to = p, set(), set()
        if a in used_from or b in used_to:
            continue
        used_from.add(a)
        used_to.add(b)
        accepted.append(row)
    return accepted


def group_limbs(candidates_by_type, cfg: DecoderConfig | None = None) -> list[LimbConnection]:
    """Greedy per-limb-type matching.

    Candidates with valid_ratio below the minimum or non-positive affinity
    are dropped; the rest are taken in order of descending affinity (ties by
    smaller from-id, then to-id), accepting a candidate only when neither
    endpoint is already used within its limb type.
    """
    cfg = cfg or DecoderConfig()
    blocks = [list(cands) for cands in candidates_by_type]
    flat = [c for cands in blocks for c in cands]
    limb = np.repeat(np.arange(len(blocks)), [len(cands) for cands in blocks])
    frm, to = (np.array([getattr(c, name) for c in flat], dtype=np.intp)
               for name in ("from_kp", "to_kp"))
    affinity, valid = (np.array([getattr(c, name) for c in flat], dtype=np.float64)
                       for name in ("affinity", "valid_ratio"))
    return [flat[row] for row in _match(limb, frm, to, affinity, valid, cfg)]


class _Builder:
    __slots__ = ("slots", "kp_score", "affinity", "alive", "order")

    def __init__(self, order: int):
        self.slots = [-1] * NUM_KEYPOINTS
        self.kp_score = 0.0
        self.affinity = 0.0
        self.alive = True
        self.order = order


def _assemble(connections, kind, score, cfg: DecoderConfig) -> list[tuple[list, float, int]]:
    """Skeletons from accepted ``(from, to, affinity)`` connections between
    points, where ``kind[p]`` and ``score[p]`` describe point ``p``.

    Returns each skeleton as ``(slots, score, count)``, where ``slots[k]`` is
    its point of kind ``k`` or -1; see ``assemble_skeletons``.
    """
    owner: dict = {}
    builders: list[_Builder] = []

    def _attach(builder: _Builder, point) -> bool:
        if builder.slots[kind[point]] != -1:
            return False
        builder.slots[kind[point]] = point
        builder.kp_score += score[point]
        owner[point] = builder
        return True

    for f, t, affinity in connections:
        bf = owner.get(f)
        bt = owner.get(t)
        if bf is None and bt is None:
            nb = _Builder(len(builders))
            builders.append(nb)
            _attach(nb, f)
            _attach(nb, t)
            nb.affinity += affinity
        elif bf is not None and bt is None:
            if _attach(bf, t):
                bf.affinity += affinity
        elif bf is None and bt is not None:
            if _attach(bt, f):
                bt.affinity += affinity
        elif bf is bt:
            # Redundant edge inside one skeleton still contributes its affinity.
            bf.affinity += affinity
        else:
            if any(a != -1 and b != -1 for a, b in zip(bf.slots, bt.slots)):
                continue  # conflicting slots: drop the connection
            for k, point in enumerate(bt.slots):
                if point != -1:
                    bf.slots[k] = point
                    owner[point] = bf
            bf.kp_score += bt.kp_score
            bf.affinity += bt.affinity + affinity
            bt.alive = False

    skeletons = []
    for b in builders:
        if not b.alive:
            continue
        count = sum(1 for s in b.slots if s != -1)
        if count < cfg.min_keypoints:
            continue
        total = (b.kp_score + b.affinity) / count
        if total < cfg.min_skeleton_score:
            continue
        skeletons.append((total, b.order, b.slots, count))
    # Descending score; creation order breaks exact ties deterministically.
    skeletons.sort(key=lambda item: (-item[0], item[1]))
    return [(slots, total, count) for total, _, slots, count in skeletons]


def assemble_skeletons(connections, keypoints, cfg: DecoderConfig | None = None
                       ) -> list[PoseSkeleton]:
    """Assemble accepted connections into skeletons.

    Connections are consumed in the order produced by ``group_limbs`` (limb
    types in id order). For each connection: start a new skeleton, attach the
    free endpoint, or merge two skeletons when their filled slots are
    disjoint; a connection whose placement would overwrite an occupied slot
    is dropped. Skeletons failing the keypoint-count or score minimums are
    discarded, and the rest are sorted by descending score.
    """
    cfg = cfg or DecoderConfig()
    by_id: dict[int, Keypoint] = {}
    for bucket in keypoints:
        if isinstance(bucket, Keypoint):
            by_id[bucket.id] = bucket
        else:
            for kp in bucket:
                by_id[kp.id] = kp
    kind = {kp_id: kp.kind for kp_id, kp in by_id.items()}
    score = {kp_id: kp.score for kp_id, kp in by_id.items()}
    skeletons = _assemble(((c.from_kp, c.to_kp, c.affinity) for c in connections),
                          kind, score, cfg)
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
    then matched and assembled on peak ids. The x/y of the skeletons' peaks
    go through one ``InputGeometry.map_to_original`` call, and each output
    ``Keypoint`` and ``PoseSkeleton`` is built once.
    """
    factor = cfg.upsample_factor
    kind, x, y, score = peaks
    counts = np.bincount(kind, minlength=NUM_KEYPOINTS)
    starts = np.cumsum(counts) - counts
    from_kind, to_kind, x_channel, y_channel = _LIMB_COLUMNS
    limb, frm, to, affinity, valid = _score_pairs(
        pafs, factor, x, y,
        (starts[from_kind], counts[from_kind], starts[to_kind], counts[to_kind],
         x_channel, y_channel), cfg)
    accepted = _match(limb, frm, to, affinity, valid, cfg)
    kinds, scores = kind.tolist(), score.tolist()
    skeletons = _assemble(zip(frm[accepted].tolist(), to[accepted].tolist(),
                              affinity[accepted].tolist()), kinds, scores, cfg)
    rows = [r for slots, _, _ in skeletons for r in slots if r != -1]
    xs, ys = geometry.map_to_original(x[rows], y[rows], factor)
    # Keypoint(id, kind, x, y, score), built as the skeletons consume them.
    moved = map(Keypoint, rows, kind[rows].tolist(), xs.tolist(), ys.tolist(),
                score[rows].tolist())
    return [PoseSkeleton(tuple(None if r == -1 else next(moved) for r in slots), total, count)
            for slots, total, count in skeletons]


def decode(heatmaps: FeatureMaps, pafs: FeatureMaps, geometry: InputGeometry,
           cfg: DecoderConfig | None = None, threads: int = 1) -> list[PoseSkeleton]:
    """Full pipeline from stride-level maps to skeletons in original-image pixels.

    Extracts keypoints from the heatmaps upsampled by
    ``cfg.upsample_factor`` (evaluated in hot cells only, see
    ``_upsample_hot_cells``), scores limb candidates on the stride-level PAFs,
    groups and assembles them, then maps coordinates back through stride,
    upsample factor, scale, and padding. The result is what the public stages
    give on densely upsampled maps, and each output ``Keypoint`` and
    ``PoseSkeleton`` is built once, in original-image pixels. Maps whose
    data is not float32, or not finite, raise ``ValueError``; ``threads``
    must be >= 0 and does not change the work.
    """
    cfg = cfg or DecoderConfig()
    if heatmaps.channels != NUM_HEATMAP_CHANNELS:
        raise DimensionMismatchError(
            f"expected {NUM_HEATMAP_CHANNELS} heatmap channels, got {heatmaps.channels}"
        )
    if pafs.channels != NUM_PAF_CHANNELS:
        raise DimensionMismatchError(
            f"expected {NUM_PAF_CHANNELS} PAF channels, got {pafs.channels}"
        )
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
    # A FeatureMaps built directly skips the conversion and check in
    # ``from_planes``. Other dtypes would be rounded to float32 before
    # interpolating, unlike ``resize_bilinear``; NaN would fail every
    # comparison and silently decode to nothing.
    for maps in (heatmaps, pafs):
        if maps.data.dtype != np.float32:
            raise ValueError(f"feature maps must be float32, got {maps.data.dtype}")
    _require_finite(heatmaps.data, pafs.data)
    resolve_threads(threads)
    peaks = _cell_peaks(heatmaps, _upsample_hot_cells(heatmaps.data, cfg), cfg)
    return _group_peaks(pafs, peaks, cfg, geometry)
