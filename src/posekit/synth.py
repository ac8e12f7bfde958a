"""Synthetic ground-truth scenes with analytically known heatmaps and PAFs.

Rendering is exact: Gaussian blobs composed with max, unit-vector affinity
bands with same-type overlaps averaged. Scene generation places persons so
that keypoints of the same kind never come closer than MIN_SAME_KIND_SEPARATION
feature-map pixels, which keeps Gaussian tails and same-type affinity bands
from interacting and makes decoding an exact inverse on these scenes.

Each person draws random anchors until the separation test passes. A template
that keeps failing has the test evaluated once for every anchor in its range:
with no free anchor its strategy ends at once, since the remaining attempts
could only fail and the next strategy seeds its own generator; otherwise the
remaining draws look their anchor up. Either way the draws, and so the scenes
and errors, are those of the plain attempt loop.

A strategy that cannot fit is skipped before its generator is seeded. The
anchor block side B is the largest with (B - 1) * sqrt(2) <
MIN_SAME_KIND_SEPARATION, that is ceil(MIN_SAME_KIND_SEPARATION / sqrt(2)):
two integer anchors less than B apart on both axes are at most
(B - 1) * sqrt(2) px apart, so the separation test keeps a second instance of
a template out of any BxB block of anchors that already holds one. A template
used more often than its anchor range has such blocks can therefore only
fail, and since every strategy seeds its own generator, skipping it changes
no draw, scene or error. Template counts are computed, not listed, so this
refusal costs the same for any number of persons. At separation 16 the block
side is 12; on 32x57 maps the full-body range then has 8 blocks, so 20
persons go straight to the partial-body templates.

Affinity bands are rendered in one pass over every (person, limb) segment, and
the band test runs only on each segment's box, grown by ``limb_width + 1``
around it: a pixel farther away than that cannot pass the test, even after
rounding. Vectors are summed in (person, limb) order, so the maps are
bit-identical to a per-limb loop over the whole map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import PlacementInfeasibleError
from .featuremaps import FeatureMaps, _require_integer, _require_real
from .skeleton import (
    BACKGROUND_CHANNEL,
    LIMBS,
    NUM_HEATMAP_CHANNELS,
    NUM_KEYPOINTS,
    NUM_PAF_CHANNELS,
)

# Boundary of the exact-recovery guarantee: at sigma=2 a Gaussian 16 px away
# contributes ~e^-32, and affinity bands of templates with limbs <= 5 px long
# cannot touch across this distance.
MIN_SAME_KIND_SEPARATION = 16.0

_PLACEMENT_ATTEMPTS = 10000

# Failed attempts after which a template's free-anchor mask is computed. Sparse
# scenes place every template well before this and never build a mask.
_ATTEMPTS_BEFORE_MASK = 16

# Side of the anchor blocks that hold at most one instance of a template: the
# largest B with (B - 1) * sqrt(2) < MIN_SAME_KIND_SEPARATION.
_ANCHOR_BLOCK = math.ceil(MIN_SAME_KIND_SEPARATION / math.sqrt(2))

# Keypoints stay at least this far from the map border so that peak
# refinement never sees clamped samples.
_EDGE_MARGIN = 1


@dataclass(frozen=True)
class GroundTruthPerson:
    """18 optional keypoint positions in feature-map pixels, (x, y) order."""

    keypoints: tuple  # 18 entries of (x, y) | None

    def __post_init__(self):
        if len(self.keypoints) != NUM_KEYPOINTS:
            raise ValueError(f"expected {NUM_KEYPOINTS} keypoint slots, got {len(self.keypoints)}")
        # Stored as Python floats, which the scene-truth format writes and reads back.
        object.__setattr__(self, "keypoints", tuple(
            None if pos is None else (_require_real(pos[0], "x"), _require_real(pos[1], "y"))
            for pos in self.keypoints))

    def num_visible(self) -> int:
        return sum(1 for p in self.keypoints if p is not None)


@dataclass(frozen=True)
class RenderConfig:
    map_height: int
    map_width: int
    sigma: float = 2.0
    limb_width: float = 1.5
    seed: int = 0

    def __post_init__(self):
        # Stored as int and float: the scene-truth format writes them as JSON
        # and reads back only such values.
        for name, minimum in (("map_height", 1), ("map_width", 1), ("seed", 0)):
            object.__setattr__(self, name, _require_integer(getattr(self, name), name, minimum))
        # Box arithmetic needs finite widths.
        for name in ("sigma", "limb_width"):
            object.__setattr__(self, name, _require_real(getattr(self, name), name, positive=True))


# Template offsets are (x, y), integers, designed so that every limb is
# between ~1.4 and ~4.5 px long. Short limbs keep same-type affinity bands
# of separated persons disjoint.
FULL_BODY_TEMPLATE: dict[int, tuple[int, int]] = {
    0: (6, 2),    # nose
    1: (6, 5),    # neck
    2: (3, 5), 3: (2, 8), 4: (1, 11),     # right arm
    5: (9, 5), 6: (10, 8), 7: (11, 11),   # left arm
    8: (4, 9), 9: (3, 12), 10: (3, 15),   # right leg
    11: (8, 9), 12: (9, 12), 13: (9, 15),  # left leg
    14: (5, 1), 15: (7, 1), 16: (4, 2), 17: (8, 2),  # eyes, ears
}

# Partial-body templates with pairwise disjoint kinds. Dense scenes cycle
# through these; persons that share no keypoint kind and no limb type cannot
# interact in any channel, so only same-template instances need separating.
MINI_TEMPLATES: tuple[dict[int, tuple[int, int]], ...] = (
    {2: (0, 0), 3: (2, 3), 4: (3, 6)},                            # right arm
    {5: (0, 0), 6: (2, 3), 7: (1, 6)},                            # left arm
    {8: (0, 0), 9: (1, 3), 10: (1, 6)},                           # right leg
    {11: (0, 0), 12: (1, 3), 13: (0, 6)},                         # left leg
    {0: (2, 2), 1: (2, 5), 14: (1, 1), 15: (3, 1), 16: (0, 2), 17: (4, 2)},  # head
)


def render_heatmaps(persons, cfg: RenderConfig) -> FeatureMaps:
    """Render 19 heatmap channels: per-kind Gaussians composed with max.

    Channel 18 is the background: 1 - max over the 18 keypoint channels.
    """
    h, w = cfg.map_height, cfg.map_width
    planes = np.zeros((NUM_HEATMAP_CHANNELS, h, w), dtype=np.float64)
    ys = np.arange(h, dtype=np.float64)[:, None]
    xs = np.arange(w, dtype=np.float64)[None, :]
    inv = 1.0 / (2.0 * cfg.sigma * cfg.sigma)
    for person in persons:
        for kind, pos in enumerate(person.keypoints):
            if pos is None:
                continue
            px, py = pos
            blob = np.exp(-((xs - px) ** 2 + (ys - py) ** 2) * inv)
            np.maximum(planes[kind], blob, out=planes[kind])
    planes[BACKGROUND_CHANNEL] = 1.0 - planes[:NUM_KEYPOINTS].max(axis=0)
    return FeatureMaps(planes.astype(np.float32))


def render_pafs(persons, cfg: RenderConfig) -> FeatureMaps:
    """Render 38 PAF channels: unit vectors inside each limb's band.

    A pixel is inside the band when its perpendicular distance to the limb
    segment is <= limb_width and its projection falls within [0, length].
    Overlapping limbs of the same type average their vectors.

    The band test runs only on each segment's own box: its bounding box grown
    by ``limb_width + 1`` and clipped to the map. Every pixel outside it is
    more than ``limb_width + 1`` from the segment, and rounding moves the
    float64 ``proj``, ``perp`` and ``length`` by far less than the extra
    pixel, so such a pixel cannot pass the test. Boxes are taken in (person,
    limb) order, in chunks of at most one map's area, and scattered with
    ``np.add.at``, which applies its updates in order: each pixel sums its
    persons' vectors in person order, as a per-limb loop over the full map
    does, and the result is bit-identical to it.
    """
    h, w = cfg.map_height, cfg.map_width
    vec_sum = np.zeros((NUM_PAF_CHANNELS, h, w), dtype=np.float64)
    counts = np.zeros((len(LIMBS), h, w), dtype=np.int32)
    table, box = _limb_boxes(persons, cfg)
    area = np.cumsum(box[2] * box[3])
    start = 0
    while start < len(area):
        base = area[start - 1] if start else 0
        stop = max(int(np.searchsorted(area, base + h * w, side="right")), start + 1)
        _scatter_bands(vec_sum, counts, table[:, start:stop], box[:, start:stop],
                       cfg.limb_width)
        start = stop
    # x / 1 is x, so only pixels that limbs of one type share are divided.
    # Channels 2i and 2i+1 hold limb i's x and y components.
    shared = np.flatnonzero(counts > 1)
    limb, pixel = np.divmod(shared, h * w)
    vec_sum.reshape(len(LIMBS), 2, h * w)[limb, :, pixel] /= counts.reshape(-1)[shared, None]
    return FeatureMaps(vec_sum.astype(np.float32))


_LIMB_ENDS = np.array([[limb.from_kind, limb.to_kind] for limb in LIMBS])
_ABSENT = (np.nan, np.nan)


def _keypoint_array(persons) -> np.ndarray:
    """The persons' keypoints as a float64 ``(person, kind, xy)`` array, NaN
    where a person lacks a kind."""
    return np.fromiter(chain.from_iterable(_ABSENT if p is None else p
                                           for person in persons for p in person.keypoints),
                       np.float64, 2 * NUM_KEYPOINTS * len(persons)).reshape(-1, NUM_KEYPOINTS, 2)


def _limb_boxes(persons, cfg: RenderConfig):
    """Every drawable (person, limb) segment, in that order, and its box.

    Returns ``(table, box)``, one column per segment. ``table`` holds the
    float rows ``ax, ux, uy, ay, uy, ux, length, limb``: start point, unit
    direction (twice, in the order ``_scatter_bands`` reads it), length and
    limb id. ``box`` holds the int rows ``x0, y0, width, height``. Segments
    with an absent end or zero length are left out; a box off the map is
    empty.
    """
    ends = _keypoint_array(persons)[:, _LIMB_ENDS]
    ends = ends.reshape(-1, 2, 2).transpose(1, 2, 0)  # (end, xy, segment)
    d = ends[1] - ends[0]
    length = np.hypot(d[0], d[1])
    keep = np.flatnonzero(length > 0.0)  # NaN for an absent end; zero length has no direction
    ends, d, length = ends.take(keep, axis=2), d.take(keep, axis=1), length.take(keep)
    table = np.empty((8, len(keep)))
    table[[0, 3]] = ends[0]
    table[1:3] = table[4:6][::-1] = d / length
    table[6] = length
    table[7] = keep % len(LIMBS)
    # One pixel of slack covers rounding for coordinates up to ~2^48 px; the
    # term that grows with the coordinates keeps boxes safe beyond that.
    reach = cfg.limb_width + 1.0 + np.abs(ends).max(initial=0.0) * 2.0**-40
    size = ((cfg.map_width,), (cfg.map_height,))
    lo = np.clip(np.ceil(ends.min(axis=0) - reach), 0, size)
    hi = np.clip(np.floor(ends.max(axis=0) + reach) + 1, 0, size)
    return table, np.concatenate([lo, hi - lo]).astype(np.intp)


def _ragged_ranges(starts, sizes):
    """``concatenate([arange(s, s + n) for s, n in zip(starts, sizes)])``."""
    return np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes - starts, sizes)


def _scatter_bands(vec_sum, counts, table, box, limb_width) -> None:
    """Run the band test on every pixel of each box and add in the hits.

    The ``rel_x`` products are formed once per box column and the ``rel_y``
    products once per box row; each pixel adds its column's and its row's
    terms, the same float64 operations as on the full map.
    """
    _, h, w = vec_sum.shape
    x0, y0, width, height = box
    xs, ys = _ragged_ranges(x0, width), _ragged_ranges(y0, height)
    cols = np.repeat(table[0:3], width, axis=1)   # ax, ux, uy per box column
    rows = np.repeat(table[3:8], height, axis=1)  # ay, uy, ux, length, limb per box row
    col_terms = (xs - cols[0]) * cols[1:3]  # rel_x * ux, rel_x * uy
    row_terms = (ys - rows[0]) * rows[1:3]  # rel_y * uy, rel_y * ux
    # Every pixel of every box, row by row.
    row_width = np.repeat(width, height)
    row = np.repeat(np.arange(len(ys)), row_width)
    col = _ragged_ranges(np.repeat(np.cumsum(width) - width, height), row_width)
    c, r = col_terms.take(col, axis=1), row_terms.take(row, axis=1)
    proj = c[0] + r[0]
    perp = np.abs(c[1] - r[1])
    hit = np.flatnonzero((perp <= limb_width) & (proj >= 0.0) & (proj <= rows[3].take(row)))
    row = row.take(hit)
    _, uy, ux, _, limb = rows.take(row, axis=1)
    limb_offset = limb.astype(np.intp) * (h * w)
    plane = limb_offset + ys.take(row) * w + xs.take(col.take(hit))
    x_channel = plane + limb_offset  # in channel 2 * limb; channel 2 * limb + 1 follows
    np.add.at(vec_sum.reshape(-1), x_channel, ux)
    np.add.at(vec_sum.reshape(-1), x_channel + h * w, uy)
    np.add.at(counts.reshape(-1), plane, np.int32(1))


def _anchor_range(template, cfg: RenderConfig):
    off_x = [dx for dx, _ in template.values()]
    off_y = [dy for _, dy in template.values()]
    x_lo = _EDGE_MARGIN - min(off_x)
    x_hi = (cfg.map_width - 1 - _EDGE_MARGIN) - max(off_x)
    y_lo = _EDGE_MARGIN - min(off_y)
    y_hi = (cfg.map_height - 1 - _EDGE_MARGIN) - max(off_y)
    if x_hi < x_lo or y_hi < y_lo:
        return None
    return x_lo, x_hi, y_lo, y_hi


def _free_anchors(others_x, others_y, spots_x, spots_y) -> np.ndarray:
    """Placement's one test: which of a template's anchors keep every keypoint
    ``>= MIN_SAME_KIND_SEPARATION`` from those of its kind already placed.

    ``others_x``/``others_y`` are the placed ``(persons, kinds)`` coordinates,
    NaN where a person lacks a kind, which fails every ``<`` test;
    ``spots_x``/``spots_y`` are the template's, ``offsets + anchor``, kinds
    last. The result drops the kinds from their broadcast shape: ``()`` for
    one anchor, ``(y, x)`` for a range."""
    d = np.hypot(others_x - spots_x, others_y - spots_y)
    return ~(d < MIN_SAME_KIND_SEPARATION).any(axis=(-2, -1))


def _may_fit(uses, cfg: RenderConfig) -> bool:
    """False when a template of the ``(template, count)`` pairs is used more
    often than its anchor range has ``_ANCHOR_BLOCK``-square blocks, or has
    no anchor range: ``_try_place`` could then only return None. A template
    used 0 times is not checked."""
    for template, count in uses:
        if count == 0:
            continue
        rng_range = _anchor_range(template, cfg)
        if rng_range is None:
            return False
        x_lo, x_hi, y_lo, y_hi = rng_range
        blocks = (math.ceil((x_hi - x_lo + 1) / _ANCHOR_BLOCK)
                  * math.ceil((y_hi - y_lo + 1) / _ANCHOR_BLOCK))
        if count > blocks:
            return False
    return True


def _try_place(templates, cfg: RenderConfig, rng) -> list[GroundTruthPerson] | None:
    """Place ``templates`` in order, or None once one of them cannot be placed.
    Every template has an anchor range: ``_may_fit`` passed them. Each drawn
    anchor is tested with ``_free_anchors``, alone for the first
    ``_ATTEMPTS_BEFORE_MASK`` attempts and then through one mask of the range."""
    # Placed keypoints as (person, kind, xy), NaN where a person lacks a kind,
    # so each attempt is one array comparison instead of a loop over persons.
    placed = np.full((len(templates), NUM_KEYPOINTS, 2), np.nan)
    for n, template in enumerate(templates):
        x_lo, x_hi, y_lo, y_hi = _anchor_range(template, cfg)
        kinds = list(template)
        offsets = np.array([template[k] for k in kinds], dtype=np.float64)
        off_x, off_y = offsets.T
        # A person with none of the kinds is all NaN here, and NaN fails every
        # ``<`` test, so dropping it changes no decision.
        others = placed[:n, kinds]
        others_x, others_y = others[~np.isnan(others[..., 0]).all(axis=1)].transpose(2, 0, 1)
        free = None
        for attempt in range(_PLACEMENT_ATTEMPTS):
            if attempt == _ATTEMPTS_BEFORE_MASK:
                # With no free anchor every remaining attempt would fail.
                xs, ys = np.arange(x_lo, x_hi + 1), np.arange(y_lo, y_hi + 1)
                free = _free_anchors(others_x, others_y, off_x + xs[:, None, None],
                                     off_y + ys[:, None, None, None])
                if not free.any():
                    return None
            ax, ay = int(rng.integers(x_lo, x_hi + 1)), int(rng.integers(y_lo, y_hi + 1))
            if free is None:
                fits = _free_anchors(others_x, others_y, off_x + ax, off_y + ay)
            else:
                fits = free[ay - y_lo, ax - x_lo]
            if fits:
                placed[n, kinds] = offsets + (ax, ay)
                break
        else:
            return None
    return [GroundTruthPerson(tuple(None if math.isnan(x) else (x, y) for x, y in person))
            for person in placed.tolist()]


def generate_scene(num_persons: int, cfg: RenderConfig):
    """Deterministically place persons and render their maps.

    Returns ``(persons, heatmaps, pafs)``. Placement tries full bodies first
    and falls back to kind-disjoint partial bodies for dense scenes; if
    neither strategy fits after the attempt budget, raises
    PlacementInfeasibleError rather than overlapping silently.
    """
    num_persons = _require_integer(num_persons, "num_persons", 0)
    # Person i of a strategy uses template i % len(cycle). The counts are
    # arithmetic, so a request too large to fit is refused before any
    # per-person list is built. Zero persons fit at once and draw nothing.
    persons = None
    for strategy_idx, cycle in enumerate(((FULL_BODY_TEMPLATE,), MINI_TEMPLATES)):
        uses = [(t, len(range(k, num_persons, len(cycle)))) for k, t in enumerate(cycle)]
        if not _may_fit(uses, cfg):
            continue
        templates = [cycle[i % len(cycle)] for i in range(num_persons)]
        rng = np.random.default_rng([cfg.seed, strategy_idx])
        persons = _try_place(templates, cfg, rng)
        if persons is not None:
            break
    if persons is None:
        raise PlacementInfeasibleError(
            f"cannot place {num_persons} persons on a "
            f"{cfg.map_width}x{cfg.map_height} map at separation "
            f"{MIN_SAME_KIND_SEPARATION:g}"
        )
    _check_separation(persons)
    return persons, render_heatmaps(persons, cfg), render_pafs(persons, cfg)


def _check_separation(persons) -> None:
    # Restates _free_anchors' rule on purpose: calling it could not catch its faults.
    xy = _keypoint_array(persons)
    i, j = np.triu_indices(len(persons), k=1)
    d = np.hypot(xy[i, :, 0] - xy[j, :, 0], xy[i, :, 1] - xy[j, :, 1])  # (pair, kind)
    close = d < MIN_SAME_KIND_SEPARATION
    if close.any():
        raise PlacementInfeasibleError(
            f"placement produced same-kind keypoints {d[close].min():.2f} px apart"
        )
