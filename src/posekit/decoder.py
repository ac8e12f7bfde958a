"""Decoding pipeline: peaks -> scored limb candidates -> greedy grouping -> skeletons.

``decode`` upsamples no map stack. It finds heatmap peaks by evaluating the
upsample only in the cells that can hold one, and one batch scores every
limb's pairs on the stride-level PAFs; both read values bit-equal to the
dense bilinear upsample. All stages are deterministic and run on the calling
thread, with scratch buffers kept per thread, so concurrent decodes are safe.
The ``threads`` arguments are validated for compatibility and change nothing.
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


def _cell_keypoints(heatmaps: FeatureMaps, cells, cfg: DecoderConfig) -> list[list[Keypoint]]:
    """Decode's extract stage: ``extract_keypoints`` of the dense upsample of
    ``heatmaps``, from their ``_upsample_hot_cells``."""
    if cells is None:
        return extract_keypoints(heatmaps, cfg)
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
    return _build_keypoints(kind[n], top[n] + i + dy, left[n] + j + dx, score)


def _build_keypoints(kinds, ys, xs, scores) -> list[list[Keypoint]]:
    """Keypoints per kind, by descending score (ties by row, then column),
    with ids unique across the call and assigned in that order."""
    order = np.lexsort((xs, ys, -scores, kinds))
    result: list[list[Keypoint]] = [[] for _ in range(NUM_KEYPOINTS)]
    columns = (column[order].tolist() for column in (kinds, xs, ys, scores))
    for kp_id, (kind, x, y, score) in enumerate(zip(*columns)):
        result[kind].append(Keypoint(id=kp_id, kind=kind, x=x, y=y, score=score))
    return result


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
    _, h, w = heatmaps.data.shape
    flat = heatmaps.data[:BACKGROUND_CHANNEL].reshape(-1)
    # The row test runs on the flattened stack; the ring goes before the
    # other six neighbors are read.
    idx = np.flatnonzero(_row_maxima(flat[1:-1], flat[:-2], flat[2:], cfg.peak_threshold)) + 1
    ys, xs = np.divmod(idx % (h * w), w)
    idx = idx[(ys > 0) & (ys < h - 1) & (xs > 0) & (xs < w - 1)]
    idx, score, dy, dx = _peaks(flat, idx, 1, w)
    kind, pos = np.divmod(idx, h * w)
    ys, xs = np.divmod(pos, w)
    return _build_keypoints(kind, ys + dy, xs + dx, score)


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


def _score_limbs(pafs: FeatureMaps, factor: int, limbs, pairs, cfg: DecoderConfig,
                 keep_all: bool = False) -> list[list[LimbConnection]]:
    """One candidate list per limb; every limb's pairs are scored in one batch.

    ``pairs[k]`` is the ``(kps_a, kps_b)`` lists of ``limbs[k]``'s from and to
    keypoints on ``pafs`` upsampled by ``factor``. A pair samples the field
    at ``paf_sample_count`` evenly spaced points from a to b (endpoints
    included, nearest upsampled pixel) and dots each sample with the unit
    direction. Affinity is the mean; valid ratio is the fraction of samples
    whose alignment exceeds the threshold. Zero-length pairs score (0, 0).
    Lists are in row-major (a, b) order and hold all pairs with ``keep_all``,
    else those passing the grouping filter.
    """
    flat = [kp for ends in pairs for kps in ends for kp in kps]
    x = np.array([kp.x for kp in flat], dtype=np.float64)
    y = np.array([kp.y for kp in flat], dtype=np.float64)
    na, nb, x_channel, y_channel = np.array(
        [(len(kps_a), len(kps_b), limb.paf_x_channel, limb.paf_y_channel)
         for limb, (kps_a, kps_b) in zip(limbs, pairs)], dtype=np.intp).reshape(-1, 4).T
    a_start = np.cumsum(na + nb) - (na + nb)
    # Pair p belongs to limb ``owner[p]``; its offset inside that limb's
    # na x nb block gives the row-major (i, j).
    counts = na * nb
    if not counts.any():
        return [[] for _ in limbs]
    owner = np.repeat(np.arange(len(limbs)), counts)
    i, j = np.divmod(np.arange(counts.sum()) - (np.cumsum(counts) - counts)[owner], nb[owner])
    ia = a_start[owner] + i
    ib = a_start[owner] + na[owner] + j

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
    result: list[list[LimbConnection]] = [[] for _ in limbs]
    for p, a, b, aff, ratio in zip(*(c[keep].tolist() for c in (owner, ia, ib, affinity, valid))):
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


def group_limbs(candidates_by_type, cfg: DecoderConfig | None = None) -> list[LimbConnection]:
    """Greedy per-limb-type matching.

    Candidates with valid_ratio below the minimum or non-positive affinity
    are dropped; the rest are taken in order of descending affinity (ties by
    smaller from-id, then to-id), accepting a candidate only when neither
    endpoint is already used within its limb type.
    """
    cfg = cfg or DecoderConfig()
    accepted: list[LimbConnection] = []
    for cands in candidates_by_type:
        keep = [
            c for c in cands
            if c.valid_ratio >= cfg.min_valid_ratio and c.affinity > 0.0
        ]
        keep.sort(key=lambda c: (-c.affinity, c.from_kp, c.to_kp))
        used_from: set[int] = set()
        used_to: set[int] = set()
        for c in keep:
            if c.from_kp in used_from or c.to_kp in used_to:
                continue
            used_from.add(c.from_kp)
            used_to.add(c.to_kp)
            accepted.append(c)
    return accepted


class _Builder:
    __slots__ = ("slots", "kp_score", "affinity", "alive", "order")

    def __init__(self, order: int):
        self.slots = [-1] * NUM_KEYPOINTS
        self.kp_score = 0.0
        self.affinity = 0.0
        self.alive = True
        self.order = order


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
    owner: dict[int, _Builder] = {}
    builders: list[_Builder] = []

    def _attach(builder: _Builder, kp: Keypoint) -> bool:
        if builder.slots[kp.kind] != -1:
            return False
        builder.slots[kp.kind] = kp.id
        builder.kp_score += kp.score
        owner[kp.id] = builder
        return True

    for conn in connections:
        f = by_id[conn.from_kp]
        t = by_id[conn.to_kp]
        bf = owner.get(f.id)
        bt = owner.get(t.id)
        if bf is None and bt is None:
            nb = _Builder(len(builders))
            builders.append(nb)
            _attach(nb, f)
            _attach(nb, t)
            nb.affinity += conn.affinity
        elif bf is not None and bt is None:
            if _attach(bf, t):
                bf.affinity += conn.affinity
        elif bf is None and bt is not None:
            if _attach(bt, f):
                bt.affinity += conn.affinity
        elif bf is bt:
            # Redundant edge inside one skeleton still contributes its affinity.
            bf.affinity += conn.affinity
        else:
            if any(a != -1 and b != -1 for a, b in zip(bf.slots, bt.slots)):
                continue  # conflicting slots: drop the connection
            for kind, kp_id in enumerate(bt.slots):
                if kp_id != -1:
                    bf.slots[kind] = kp_id
                    owner[kp_id] = bf
            bf.kp_score += bt.kp_score
            bf.affinity += bt.affinity + conn.affinity
            bt.alive = False

    skeletons = []
    for b in builders:
        if not b.alive:
            continue
        count = sum(1 for s in b.slots if s != -1)
        if count < cfg.min_keypoints:
            continue
        score = (b.kp_score + b.affinity) / count
        if score < cfg.min_skeleton_score:
            continue
        kps = tuple(by_id[s] if s != -1 else None for s in b.slots)
        skeletons.append((score, b.order, PoseSkeleton(kps, score, count)))
    # Descending score; creation order breaks exact ties deterministically.
    skeletons.sort(key=lambda item: (-item[0], item[1]))
    return [item[2] for item in skeletons]


def _to_original(skeletons, geometry: InputGeometry, upsample_factor: int) -> list[PoseSkeleton]:
    """The skeletons with their keypoints mapped to original-image pixels by
    one ``InputGeometry.map_to_original`` call over all of them."""
    present = [kp for sk in skeletons for kp in sk.keypoints if kp is not None]
    xs, ys = geometry.map_to_original(np.array([kp.x for kp in present]),
                                      np.array([kp.y for kp in present]), upsample_factor)
    moved = iter([Keypoint(id=kp.id, kind=kp.kind, x=x, y=y, score=kp.score)
                  for kp, x, y in zip(present, xs.tolist(), ys.tolist())])
    return [PoseSkeleton(tuple(None if kp is None else next(moved) for kp in sk.keypoints),
                         sk.score, sk.num_keypoints) for sk in skeletons]


def _group_keypoints(pafs: FeatureMaps, keypoints, cfg: DecoderConfig,
                     geometry: InputGeometry) -> list[PoseSkeleton]:
    """Skeletons in original-image pixels from keypoints on heatmaps upsampled
    by ``cfg.upsample_factor``, with all limbs scored in one batch against
    the stride-level ``pafs``."""
    factor = cfg.upsample_factor
    pairs = [(keypoints[limb.from_kind], keypoints[limb.to_kind]) for limb in LIMBS]
    accepted = group_limbs(_score_limbs(pafs, factor, LIMBS, pairs, cfg), cfg)
    return _to_original(assemble_skeletons(accepted, keypoints, cfg), geometry, factor)


def decode(heatmaps: FeatureMaps, pafs: FeatureMaps, geometry: InputGeometry,
           cfg: DecoderConfig | None = None, threads: int = 1) -> list[PoseSkeleton]:
    """Full pipeline from stride-level maps to skeletons in original-image pixels.

    Extracts keypoints from the heatmaps upsampled by
    ``cfg.upsample_factor`` (evaluated in hot cells only, see
    ``_upsample_hot_cells``), scores limb candidates on the stride-level PAFs,
    groups and assembles them, then maps coordinates back through stride,
    upsample factor, scale, and padding. The result is what the public stages
    give on densely upsampled maps. Non-finite maps raise ``ValueError``;
    ``threads`` must be >= 0 and does not change the work.
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
    # A FeatureMaps built directly skips the check in ``from_planes``; NaN
    # would fail every comparison and silently decode to nothing.
    _require_finite(heatmaps.data, pafs.data)
    resolve_threads(threads)
    keypoints = _cell_keypoints(heatmaps, _upsample_hot_cells(heatmaps.data, cfg), cfg)
    return _group_keypoints(pafs, keypoints, cfg, geometry)
