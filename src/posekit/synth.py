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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PlacementInfeasibleError
from .featuremaps import FeatureMaps
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
        if min(self.map_height, self.map_width) < 1:
            raise ValueError("map dimensions must be >= 1")
        if self.sigma <= 0 or self.limb_width <= 0:
            raise ValueError("sigma and limb_width must be positive")


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
    """
    h, w = cfg.map_height, cfg.map_width
    vec_sum = np.zeros((NUM_PAF_CHANNELS, h, w), dtype=np.float64)
    counts = np.zeros((len(LIMBS), h, w), dtype=np.int32)
    ys = np.arange(h, dtype=np.float64)[:, None]
    xs = np.arange(w, dtype=np.float64)[None, :]
    for person in persons:
        for limb in LIMBS:
            a = person.keypoints[limb.from_kind]
            b = person.keypoints[limb.to_kind]
            if a is None or b is None:
                continue
            ax, ay = a
            bx, by = b
            dx, dy = bx - ax, by - ay
            length = float(np.hypot(dx, dy))
            if length == 0.0:
                continue  # degenerate limb has no direction
            ux, uy = dx / length, dy / length
            rel_x = xs - ax
            rel_y = ys - ay
            proj = rel_x * ux + rel_y * uy
            perp = np.abs(rel_x * uy - rel_y * ux)
            band = (perp <= cfg.limb_width) & (proj >= 0.0) & (proj <= length)
            vec_sum[limb.paf_x_channel][band] += ux
            vec_sum[limb.paf_y_channel][band] += uy
            counts[limb.id][band] += 1
    for limb in LIMBS:
        hit = counts[limb.id] > 0
        n = counts[limb.id][hit]
        vec_sum[limb.paf_x_channel][hit] /= n
        vec_sum[limb.paf_y_channel][hit] /= n
    return FeatureMaps(vec_sum.astype(np.float32))


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


def _free_anchors(offsets, others, x_lo, x_hi, y_lo, y_hi) -> np.ndarray:
    """Which anchors of a template's range keep it clear of ``others``.

    Returns a ``(y, x)`` mask, ``[0, 0]`` being ``(x_lo, y_lo)``. It applies
    the per-attempt test of ``_try_place`` to every anchor at once: the same
    float64 differences and the same ``< MIN_SAME_KIND_SEPARATION`` test.
    ``offsets`` is ``(kinds, 2)``; ``others`` is ``(persons, kinds, 2)``,
    NaN where a person lacks a kind; persons with none of the kinds are
    dropped before the broadcast.
    """
    others = others[~np.isnan(others[..., 0]).all(axis=1)]
    dx = others[..., 0] - (offsets[:, 0] + np.arange(x_lo, x_hi + 1)[:, None, None])
    dy = others[..., 1] - (offsets[:, 1] + np.arange(y_lo, y_hi + 1)[:, None, None])
    d = np.hypot(dx[None], dy[:, None])  # (y, x, persons, kinds)
    return ~(d < MIN_SAME_KIND_SEPARATION).any(axis=(2, 3))


def _try_place(templates, cfg: RenderConfig, rng) -> list[GroundTruthPerson] | None:
    # Placed keypoints as (person, kind, xy), NaN where a person lacks a kind,
    # so each attempt is one array comparison instead of a loop over persons.
    placed = np.empty((0, NUM_KEYPOINTS, 2))
    for template in templates:
        rng_range = _anchor_range(template, cfg)
        if rng_range is None:
            return None
        x_lo, x_hi, y_lo, y_hi = rng_range
        kinds = list(template)
        offsets = np.array([template[k] for k in kinds], dtype=np.float64)
        others = placed[:, kinds]
        free = None
        for attempt in range(_PLACEMENT_ATTEMPTS):
            if attempt == _ATTEMPTS_BEFORE_MASK:
                # With no free anchor every remaining attempt would fail.
                free = _free_anchors(offsets, others, x_lo, x_hi, y_lo, y_hi)
                if not free.any():
                    return None
            anchor = (int(rng.integers(x_lo, x_hi + 1)), int(rng.integers(y_lo, y_hi + 1)))
            spots = offsets + anchor
            if free is None:
                d = np.hypot(others[..., 0] - spots[:, 0], others[..., 1] - spots[:, 1])
                fits = not (d < MIN_SAME_KIND_SEPARATION).any()
            else:
                fits = free[anchor[1] - y_lo, anchor[0] - x_lo]
            if fits:
                placed = np.concatenate([placed, np.full((1, NUM_KEYPOINTS, 2), np.nan)])
                placed[-1, kinds] = spots
                break
        else:
            return None
    return [GroundTruthPerson(tuple(None if np.isnan(x) else (float(x), float(y))
                                    for x, y in person)) for person in placed]


def generate_scene(num_persons: int, cfg: RenderConfig):
    """Deterministically place persons and render their maps.

    Returns ``(persons, heatmaps, pafs)``. Placement tries full bodies first
    and falls back to kind-disjoint partial bodies for dense scenes; if
    neither strategy fits after the attempt budget, raises
    PlacementInfeasibleError rather than overlapping silently.
    """
    if num_persons < 0:
        raise ValueError(f"num_persons must be >= 0, got {num_persons}")
    persons: list[GroundTruthPerson] = []
    if num_persons > 0:
        strategies = (
            [FULL_BODY_TEMPLATE] * num_persons,
            [MINI_TEMPLATES[i % len(MINI_TEMPLATES)] for i in range(num_persons)],
        )
        placed = None
        for strategy_idx, templates in enumerate(strategies):
            rng = np.random.default_rng([cfg.seed, strategy_idx])
            placed = _try_place(templates, cfg, rng)
            if placed is not None:
                break
        if placed is None:
            raise PlacementInfeasibleError(
                f"cannot place {num_persons} persons on a "
                f"{cfg.map_width}x{cfg.map_height} map at separation "
                f"{MIN_SAME_KIND_SEPARATION:g}"
            )
        persons = placed
        _check_separation(persons)
    return persons, render_heatmaps(persons, cfg), render_pafs(persons, cfg)


def _check_separation(persons) -> None:
    xy = np.array([[(np.nan, np.nan) if p is None else p for p in person.keypoints]
                   for person in persons], dtype=np.float64)
    i, j = np.triu_indices(len(persons), k=1)
    d = np.hypot(xy[i, :, 0] - xy[j, :, 0], xy[i, :, 1] - xy[j, :, 1])  # (pair, kind)
    close = d < MIN_SAME_KIND_SEPARATION
    if close.any():
        raise PlacementInfeasibleError(
            f"placement produced same-kind keypoints {d[close].min():.2f} px apart"
        )
