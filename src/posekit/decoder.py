"""Decoding pipeline: peaks -> scored limb candidates -> greedy grouping -> skeletons.

``decode`` upsamples no map stack. It finds heatmap peaks by evaluating the
upsample only in the cells that can hold one: each interpolates its own
samples, and the peak search reads the samples around a cell from its
neighbors. One batch scores every limb's pairs on the stride-level PAFs.
Both read values bit-equal to the dense upsample. From the peaks to the
output, ``decode`` passes NumPy columns, not objects: peaks as (kind, x, y,
score) with id = row, candidates as (limb, from id, to id, affinity, valid
ratio) for every scored pair. Matching drops the unusable candidates, and
it and assembly work on ids. Each output ``Keypoint`` and
``PoseSkeleton`` is built once, in original-image pixels. The public stage
functions convert their object arguments to these columns, run the same
code and convert back. All stages are deterministic and run on the calling
thread, with scratch buffers kept per thread, so concurrent decodes are
safe. Each entry point takes one ``DecoderConfig``, ``DecoderConfig()``
unless given. ``decode`` and ``extract_keypoints`` still accept a
``threads`` keyword for compatibility; it is deprecated and changes nothing.
"""

from __future__ import annotations

import math
import threading
import warnings
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError
from .featuremaps import (
    FeatureMaps,
    InputGeometry,
    _phase_weights,
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
    return np.clip((lo - hi) / (2.0 * (lo - 2.0 * values + hi)), -0.5, 0.5)


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


def _peaks(flat: np.ndarray, idx: np.ndarray, col: int, up: np.ndarray, down: np.ndarray):
    """Second half of the peak rule, on candidates that passed ``_row_maxima``.

    ``flat`` holds a map whose neighbors sit ``col`` apart within a row;
    ``up`` and ``down`` index the samples above and below each candidate
    ``flat[idx]``, and every candidate must have its whole 8-neighborhood in
    the map. A peak is a local maximum over its 8-neighborhood: it wins
    against earlier neighbors (row-major order) only when strictly greater,
    and against later neighbors when greater or equal, so plateaus of equal
    values yield exactly one peak, the first in scan order. Returns the
    peaks' flat indices, float64 scores and the quadratic ``dy``/``dx``
    refinements.
    """
    v = flat[idx]
    # Neighbors that precede the center in row-major order: must be strictly smaller.
    keep = v > flat[up - col]
    keep &= v > flat[up]
    keep &= v > flat[up + col]
    # Neighbors that follow the center: ties go to the center.
    keep &= v >= flat[down - col]
    keep &= v >= flat[down]
    keep &= v >= flat[down + col]
    idx, up, down = idx[keep], up[keep], down[keep]
    v = flat[idx].astype(np.float64)
    dx = _refine_axis(v, flat[idx - col].astype(np.float64), flat[idx + col].astype(np.float64))
    dy = _refine_axis(v, flat[up].astype(np.float64), flat[down].astype(np.float64))
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
    resize's own ``b - a`` overflows; ``FeatureMaps`` refuses any value of
    2**127 or more in magnitude, so every map that reaches here complies.

    Decode's peak search reads -inf for every sample of a cold cell. With
    ``T = float32(threshold)`` and ``e`` the rounding bound above, that
    changes no output bit:

    - A cold cell's corners are at most ``T - margin``, so its samples stay
      below ``T`` and lose every comparison with a candidate, as -inf does.
    - A peak has no 4-neighbor in a cold cell, so refinement reads no
      stand-in. Say the cell right of it is cold. Along the row the exact
      interpolant is linear in the peak's cell and at most ``T - margin`` on
      the shared source column, half a sample step from the peak (a whole
      one at odd factors). The peak exceeds ``T - e`` exactly, so its left
      neighbor exceeds it by more than ``margin - e`` exactly and by more
      than ``margin - 3e > 0`` in float32. The other sides are alike.
    - So a top-row candidate under a cold cell loses to its neighbor below,
      and the -inf diagonals taken from that cell decide nothing; the same
      holds for a bottom-row candidate over a cold cell.
    """
    return 32.0 * 2.0 ** -24 * max(1.0, max_abs)


def _upsample_hot_cells(heat: np.ndarray, cfg: DecoderConfig):
    """Decode's resize stage: the keypoint channels of ``heat`` upsampled by
    ``cfg.upsample_factor`` in their hot cells only.

    Cell ``(a, b)`` holds the ``f x f`` samples between source rows
    ``a - 1`` and ``a`` and columns ``b - 1`` and ``b``, clamped; along an
    axis cell ``a`` starts at sample ``a * f - ceil(f / 2)`` and may stick
    out of the map, where nothing reads it. Inner cells sit on the resize
    body's phases and take ``_phase_weights``; edge cells (row or column 0,
    ``h`` or ``w``) copy their edge sample, -0.0 included, as
    ``_resize_axis`` does. A cell is hot when one of its four source corners
    exceeds ``cfg.peak_threshold - _hot_margin``: no sample of a cold cell
    can exceed the threshold. Each hot cell's own samples are interpolated
    from its corners, columns first, then rows, with the resize's float32
    operations, so they are bit-equal to ``_resize_planes``.
    They sit in a ``(f, f + 2, cells + 1)`` block ``V[i, j, cell]`` (cells
    last, so every operation runs along a long axis) between two edge
    columns: the adjacent columns of the cells to the left and right, or
    -inf where that cell is cold. The extra cell, all -inf, stands in for
    every cold cell (see ``_hot_margin``). Returns the hot cells' sorted
    flat ids in the ``(kinds, h + 1, w + 1)`` grid, the upsampled row of
    each cell's first sample and column of its first edge column, and
    ``V``; or None at factor 1, where the maps are their own upsample and
    the dense peak search is three times faster.
    """
    factor = cfg.upsample_factor
    if factor == 1:
        return None
    src = heat[:BACKGROUND_CHANNEL]
    c, h, w = src.shape
    # The maps with their edge samples repeated on every side: cell (a, b)
    # has its corners at rows a, a + 1 and columns b, b + 1 here.
    padded = _buffer("padded", (c, h + 2, w + 2))
    padded[:, 1:-1, 1:-1] = src
    padded[:, :1, 1:-1] = src[:, :1]
    padded[:, -1:, 1:-1] = src[:, -1:]
    padded[:, :, :1] = padded[:, :, 1:2]
    padded[:, :, -1:] = padded[:, :, -2:-1]
    # Peaks must beat the float32 threshold; the corner limit rounds down.
    bound = max(float(src.max()), -float(src.min()))
    limit = float(np.float32(cfg.peak_threshold)) - _hot_margin(bound)
    lim32 = np.float32(limit)
    if float(lim32) > limit:
        lim32 = np.nextafter(lim32, np.float32(-np.inf))
    above = padded > lim32
    hot = above[:, :-1, :-1] | above[:, 1:, :-1]
    hot |= above[:, :-1, 1:]
    hot |= above[:, 1:, 1:]
    cell = np.flatnonzero(hot)
    kind, rest = _divmod(cell, (h + 1) * (w + 1))
    a, b = _divmod(rest, w + 1)
    m = cell.size

    corner = (kind * (h + 2) + a) * (w + 2) + b
    flat = padded.reshape(-1)
    near = _buffer("near", (2, 2, m))
    for k in range(2):
        for j in range(2):
            np.take(flat[k * (w + 2) + j:], corner, out=near[k, j])
    # Columns, then rows, as the resize's (b - a) * w + a in float32 or its edge copy.
    np.subtract(near[:, 1], near[:, 0], out=near[:, 1])
    cols = _buffer("cols", (2, factor, m))
    np.multiply(near[:, 1, None], _phase_weights(factor)[:, None], out=cols)
    np.add(cols, near[:, :1], out=cols)
    # Edge cells by index: assigning through a boolean mask costs several times more.
    edge = np.flatnonzero((b == 0) | (b == w))
    cols[:, :, edge] = near[:, :1, edge]
    v = _buffer("cells", (factor, factor + 2, m + 1))
    own = v[:, 1:-1, :m]
    np.subtract(cols[1], cols[0], out=cols[1])
    np.multiply(cols[1], _phase_weights(factor)[:, None, None], out=own)
    np.add(own, cols[0], out=own)
    edge = np.flatnonzero((a == 0) | (a == h))
    own[:, :, edge] = cols[0][:, edge]
    # Each edge column is the adjacent column of the next or previous cell,
    # capped to -inf unless that cell is its neighbor. Rows of cells end
    # outside the map, so the wrap from one row to the next is never read.
    v[:, :, m] = v[:, -1, m - 1] = v[:, 0, 0] = -np.inf
    cap = np.where(cell[1:] == cell[:-1] + 1, np.float32(np.inf), np.float32(-np.inf))
    np.minimum(v[:, 1, 1:m], cap, out=v[:, -1, :m - 1])
    np.minimum(v[:, -2, :m - 1], cap, out=v[:, 0, 1:m])
    lead = (factor + 1) // 2
    return cell, a * factor - lead, b * factor - lead - 1, v


def _cell_rows(cell: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Where the ``wanted`` cell ids sit in the sorted hot ``cell`` ids;
    ``cell.size``, the -inf cell, for a cold one."""
    row = np.searchsorted(cell, wanted)
    return np.where(np.take(cell, row, mode="clip") == wanted, row, cell.size)


def _cell_peaks(heatmaps: FeatureMaps, cells, cfg: DecoderConfig):
    """Decode's extract stage: the peak columns of the dense upsample of
    ``heatmaps``, from their ``_upsample_hot_cells``."""
    if cells is None:
        return _dense_peaks(heatmaps.data, cfg.peak_threshold)
    cell, top, left, v = cells
    f, f2, m1 = v.shape
    h, w = heatmaps.height, heatmaps.width
    p = np.flatnonzero(_row_maxima(v[:, 1:-1], v[:, :-2], v[:, 2:], cfg.peak_threshold))
    i, rest = _divmod(p, (f2 - 2) * m1)
    j, n = _divmod(rest, m1)
    j += 1
    # Cells may stick out of the map, whose outermost ring is never a peak.
    y, x = top[n] + i, left[n] + j
    inside = (y > 0) & (y < h * f - 1) & (x > 0) & (x < w * f - 1)
    i, j, n = i[inside], j[inside], n[inside]
    row = f2 * m1
    idx = (i * f2 + j) * m1 + n
    up, down = idx - row, idx + row
    # Top rows read the cell above's bottom row; bottom rows the cell below's top row.
    edge = i == 0
    up[edge] = ((f - 1) * f2 + j[edge]) * m1 + _cell_rows(cell, cell[n[edge]] - (w + 1))
    edge = i == f - 1
    down[edge] = j[edge] * m1 + _cell_rows(cell, cell[n[edge]] + (w + 1))
    idx, score, dy, dx = _peaks(v.reshape(-1), idx, m1, up, down)
    i, rest = _divmod(idx, row)
    j, n = _divmod(rest, m1)
    return _sort_peaks(cell[n] // ((h + 1) * (w + 1)), left[n] + j + dx, top[n] + i + dy, score)


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
    ys, xs = _divmod(_divmod(idx, h * w)[1], w)
    idx = idx[(ys > 0) & (ys < h - 1) & (xs > 0) & (xs < w - 1)]
    idx, score, dy, dx = _peaks(flat, idx, 1, idx - w, idx + w)
    kind, pos = _divmod(idx, h * w)
    ys, xs = _divmod(pos, w)
    return _sort_peaks(kind, xs + dx, ys + dy, score)


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


def _nearest_index(coords: np.ndarray, limit: int) -> np.ndarray:
    # In-place round-half-up; truncation equals floor once values are >= 0.
    coords += 0.5
    np.clip(coords, 0, limit, out=coords)
    return coords.astype(np.intp)


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
    if not counts.any():
        rows = np.empty(0, dtype=np.intp)
        return rows, rows, rows, np.empty(0), np.empty(0)
    # Pair p belongs to limb ``owner[p]``; its offset inside that limb's
    # na x nb block gives the row-major (i, j).
    owner = np.repeat(np.arange(len(counts)), counts)
    i, j = _divmod(np.arange(counts.sum()) - (np.cumsum(counts) - counts)[owner], nb[owner])
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
    rows = np.flatnonzero(_grouping_filter(affinity, valid, cfg))
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


class _Builder:
    __slots__ = ("slots", "kp_score", "affinity")

    def __init__(self):
        self.slots = [-1] * NUM_KEYPOINTS
        self.kp_score = 0.0
        self.affinity = 0.0


def _assemble(connections, kind, score, cfg: DecoderConfig) -> list[tuple[list, float, int]]:
    """Skeletons from accepted ``(from, to, affinity)`` connections between
    points, where ``kind[p]`` and ``score[p]`` describe point ``p``, by the
    rules ``assemble_skeletons`` states.

    Returns each kept skeleton as ``(slots, score, count)``, where
    ``slots[k]`` is its point of kind ``k`` or -1.
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
            builder = _Builder()
            builders.append(builder)
            _attach(builder, f)
            _attach(builder, t)  # fails only for two free points of one kind
        elif bf is None or bt is None:
            builder, free = (bt, f) if bf is None else (bf, t)
            if not _attach(builder, free):
                continue  # the slot is taken: drop the connection
        elif bf is bt:
            builder = bf  # a redundant edge inside one skeleton still counts
        else:
            if any(a != -1 and b != -1 for a, b in zip(bf.slots, bt.slots)):
                continue  # conflicting slots: drop the connection
            for k, point in enumerate(bt.slots):
                if point != -1:
                    bf.slots[k] = point
                    owner[point] = bf
            bf.kp_score += bt.kp_score
            affinity = bt.affinity + affinity
            builders.remove(bt)
            builder = bf
        builder.affinity += affinity

    skeletons = []
    for b in builders:
        count = NUM_KEYPOINTS - b.slots.count(-1)
        total = (b.kp_score + b.affinity) / count
        if count < cfg.min_keypoints or total < cfg.min_skeleton_score:
            continue
        skeletons.append((total, b.slots, count))
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
           cfg: DecoderConfig = DecoderConfig(),
           threads: int | None = None) -> list[PoseSkeleton]:
    """Full pipeline from stride-level maps to skeletons in original-image pixels.

    Extracts keypoints from the heatmaps upsampled by
    ``cfg.upsample_factor`` (evaluated in hot cells only, see
    ``_upsample_hot_cells``), scores limb candidates on the stride-level PAFs,
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
    peaks = _cell_peaks(heatmaps, _upsample_hot_cells(heatmaps.data, cfg), cfg)
    return _group_peaks(pafs, peaks, cfg, geometry)
