"""Decoding pipeline: peaks -> scored limb candidates -> greedy grouping -> skeletons.

Only the heatmaps are upsampled; one batch scores every limb's pairs on the
stride-level PAFs. All stages are deterministic. Peak extraction may fan out
across channels on a thread pool; per-channel work is independent and results
are merged in channel order, so the output is bit-identical at any thread count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError
from .featuremaps import (
    FeatureMaps,
    InputGeometry,
    _require_finite,
    _resize_planes,
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

_pools: dict[int, ThreadPoolExecutor] = {}


def _pool(threads: int) -> ThreadPoolExecutor:
    # Pools are cached per size; spawning one per frame would dominate the
    # cost of the work they carry.
    pool = _pools.get(threads)
    if pool is None:
        pool = ThreadPoolExecutor(max_workers=threads)
        _pools[threads] = pool
    return pool


def resolve_threads(threads: int) -> int:
    """0 selects hardware concurrency; anything else passes through."""
    if threads < 0:
        raise ValueError(f"threads must be >= 0, got {threads}")
    return threads if threads > 0 else (os.cpu_count() or 1)


def _chunk_bounds(count: int, parts: int) -> list[tuple[int, int]]:
    bounds = np.linspace(0, count, max(1, min(parts, count)) + 1, dtype=int)
    return [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


def _resize_stack(src: np.ndarray, factor: int, out: np.ndarray | None = None,
                  tmp: np.ndarray | None = None, threads: int = 1) -> np.ndarray:
    """Upsample a channel stack, optionally fanning channels across threads.

    Channels are independent, so any chunking yields bit-identical output.
    """
    c, h, w = src.shape
    if out is None:
        out = np.empty((c, h * factor, w * factor), dtype=np.float32)
    if tmp is None:
        tmp = np.empty((c, h, w * factor), dtype=np.float32)
    chunks = _chunk_bounds(c, threads)
    run = map if len(chunks) == 1 else _pool(len(chunks)).map
    list(run(lambda b: _resize_planes(src[b[0]:b[1]], factor, out=out[b[0]:b[1]],
                                      tmp=tmp[b[0]:b[1]]), chunks))
    return out


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


def _channel_peaks(stack: np.ndarray, first_channel: int, threshold: float):
    """Peaks with refined coordinates for a contiguous channel slice.

    A peak is a local maximum over its 8-neighborhood above ``threshold``. A
    pixel wins against earlier neighbors (row-major order) only when strictly
    greater, and against later neighbors when greater or equal, so plateaus
    of equal values yield exactly one peak: the first in scan order. The
    outermost ring is never a peak: on upsampled maps the edge-clamped
    interpolation replicates the adjacent interior values there, producing
    ridges that would duplicate every peak sitting near a border. That rule
    also means every candidate has a full 8-neighborhood, so no padding is
    needed. Only the threshold and the two same-row neighbors are tested on
    every pixel, on the flattened stack; the survivors off the border ring
    then face the other six neighbors.

    Returns arrays ``(kind, y, x, score)`` in row-major order, with ``kind``
    given in absolute channel indices. ``y``/``x`` are float64 refined
    positions.
    """
    _, h, w = stack.shape
    flat = stack.reshape(-1)
    center = flat[1:-1]
    mask = center > threshold
    mask &= center > flat[:-2]
    mask &= center >= flat[2:]
    idx = np.flatnonzero(mask) + 1
    ys, xs = np.divmod(idx % (h * w), w)
    idx = idx[(ys > 0) & (ys < h - 1) & (xs > 0) & (xs < w - 1)]
    v = flat[idx]
    # Neighbors that precede the center in row-major order: must be strictly smaller.
    keep = v > flat[idx - w - 1]
    keep &= v > flat[idx - w]
    keep &= v > flat[idx - w + 1]
    # Neighbors that follow the center: ties go to the center.
    keep &= v >= flat[idx + w - 1]
    keep &= v >= flat[idx + w]
    keep &= v >= flat[idx + w + 1]
    idx = idx[keep]
    ch, pos = np.divmod(idx, h * w)
    ys, xs = np.divmod(pos, w)
    v = flat[idx].astype(np.float64)
    dx = _refine_axis(v, flat[idx - 1].astype(np.float64), flat[idx + 1].astype(np.float64))
    dy = _refine_axis(v, flat[idx - w].astype(np.float64), flat[idx + w].astype(np.float64))
    return ch + first_channel, ys + dy, xs + dx, v


def extract_keypoints(heatmaps: FeatureMaps, cfg: DecoderConfig | None = None,
                      threads: int = 1) -> list[list[Keypoint]]:
    """Extract per-kind keypoints from already-upsampled heatmaps.

    The background channel is skipped. Within each kind, keypoints are sorted
    by descending score (ties by row, then column) and ids are assigned in
    that order, unique across the whole call.
    """
    cfg = cfg or DecoderConfig()
    if heatmaps.channels != NUM_HEATMAP_CHANNELS:
        raise DimensionMismatchError(
            f"expected {NUM_HEATMAP_CHANNELS} heatmap channels, got {heatmaps.channels}"
        )
    stack = heatmaps.data[:BACKGROUND_CHANNEL]
    threshold = cfg.peak_threshold
    chunks = _chunk_bounds(NUM_KEYPOINTS, threads)
    run = map if len(chunks) == 1 else _pool(len(chunks)).map
    parts = list(run(lambda c: _channel_peaks(stack[c[0]:c[1]], c[0], threshold), chunks))
    kinds, ys, xs, scores = (np.concatenate(column) for column in zip(*parts))
    # Stable, on peaks merged in channel-major, row-major order.
    order = np.lexsort((xs, ys, -scores, kinds))
    result: list[list[Keypoint]] = [[] for _ in range(NUM_KEYPOINTS)]
    columns = (column[order].tolist() for column in (kinds, xs, ys, scores))
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


def _to_original(skeleton: PoseSkeleton, geometry: InputGeometry,
                 upsample_factor: int) -> PoseSkeleton:
    moved = []
    for kp in skeleton.keypoints:
        if kp is None:
            moved.append(None)
            continue
        x, y = geometry.map_to_original(kp.x, kp.y, upsample_factor)
        moved.append(Keypoint(id=kp.id, kind=kp.kind, x=x, y=y, score=kp.score))
    return PoseSkeleton(tuple(moved), skeleton.score, skeleton.num_keypoints)


def _group_keypoints(pafs: FeatureMaps, keypoints, cfg: DecoderConfig,
                     geometry: InputGeometry) -> list[PoseSkeleton]:
    """Skeletons in original-image pixels from keypoints on heatmaps upsampled
    by ``cfg.upsample_factor``, with all limbs scored in one batch against
    the stride-level ``pafs``."""
    factor = cfg.upsample_factor
    pairs = [(keypoints[limb.from_kind], keypoints[limb.to_kind]) for limb in LIMBS]
    accepted = group_limbs(_score_limbs(pafs, factor, LIMBS, pairs, cfg), cfg)
    skeletons = assemble_skeletons(accepted, keypoints, cfg)
    return [_to_original(s, geometry, factor) for s in skeletons]


def decode(heatmaps: FeatureMaps, pafs: FeatureMaps, geometry: InputGeometry,
           cfg: DecoderConfig | None = None, threads: int = 1) -> list[PoseSkeleton]:
    """Full pipeline from stride-level maps to skeletons in original-image pixels.

    Upsamples the heatmaps (only) by ``cfg.upsample_factor``, extracts
    keypoints, scores limb candidates on the stride-level PAFs, groups and
    assembles them, then maps coordinates back through stride, upsample
    factor, scale, and padding. Non-finite maps raise ``ValueError``.
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
    threads = resolve_threads(threads)
    if cfg.upsample_factor == 1:
        up_heat = heatmaps
    else:
        up_heat = FeatureMaps(_resize_stack(heatmaps.data, cfg.upsample_factor,
                                            threads=threads))
    keypoints = extract_keypoints(up_heat, cfg, threads=threads)
    return _group_keypoints(pafs, keypoints, cfg, geometry)
