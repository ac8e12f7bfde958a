"""Synthetic scene generation: analytic renderers and placement guarantees."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posekit import GroundTruthPerson, RenderConfig, generate_scene
from posekit.errors import PlacementInfeasibleError
from posekit.fileio import scene_truth_bytes
from posekit.featuremaps import FeatureMaps
from posekit.skeleton import (
    BACKGROUND_CHANNEL,
    LIMBS,
    NUM_HEATMAP_CHANNELS,
    NUM_KEYPOINTS,
    NUM_PAF_CHANNELS,
)
from posekit.synth import (
    _ANCHOR_BLOCK,
    _ATTEMPTS_BEFORE_MASK,
    _PLACEMENT_ATTEMPTS,
    FULL_BODY_TEMPLATE,
    MIN_SAME_KIND_SEPARATION,
    MINI_TEMPLATES,
    _anchor_range,
    _check_separation,
    _free_anchors,
    render_heatmaps,
    render_pafs,
)


def _person(positions: dict) -> GroundTruthPerson:
    return GroundTruthPerson(tuple(positions.get(k) for k in range(NUM_KEYPOINTS)))


# ---------------------------------------------------------------------------
# Heatmap renderer
# ---------------------------------------------------------------------------

def test_gaussian_values_at_known_distances():
    cfg = RenderConfig(map_height=24, map_width=24)  # sigma = 2
    heat = render_heatmaps([_person({0: (10.0, 12.0)})], cfg).data
    assert heat[0, 12, 10] == 1.0
    assert heat[0, 12, 11] == pytest.approx(math.exp(-0.125), abs=1e-7)
    assert heat[0, 13, 11] == pytest.approx(math.exp(-0.25), abs=1e-7)
    assert heat[0, 12, 14] == pytest.approx(math.exp(-2.0), abs=1e-7)
    # Other keypoint channels stay empty.
    assert not heat[1:NUM_KEYPOINTS].any()


def test_overlapping_gaussians_compose_with_max():
    cfg = RenderConfig(map_height=16, map_width=32)
    one = render_heatmaps([_person({3: (10.0, 8.0)})], cfg).data[3]
    two = render_heatmaps([_person({3: (14.0, 8.0)})], cfg).data[3]
    both = render_heatmaps([_person({3: (10.0, 8.0)}), _person({3: (14.0, 8.0)})], cfg).data[3]
    np.testing.assert_array_equal(both, np.maximum(one, two))


def test_background_channel_complements_foreground():
    _, heatmaps, _ = generate_scene(4, RenderConfig(32, 57, seed=2))
    fg = heatmaps.data[:NUM_KEYPOINTS].max(axis=0)
    np.testing.assert_allclose(heatmaps.data[BACKGROUND_CHANNEL], 1.0 - fg, atol=1e-6)


def test_heatmap_range_and_dtype():
    _, heatmaps, pafs = generate_scene(8, RenderConfig(32, 57, seed=5))
    assert heatmaps.data.dtype == np.float32
    assert heatmaps.channels == NUM_HEATMAP_CHANNELS
    assert heatmaps.data.min() >= 0.0
    assert heatmaps.data.max() <= 1.0
    assert pafs.channels == NUM_PAF_CHANNELS


# ---------------------------------------------------------------------------
# PAF renderer
# ---------------------------------------------------------------------------

def test_horizontal_limb_band_values():
    # Limb type 0 is neck(1) -> right shoulder(2); pointing along +x.
    cfg = RenderConfig(map_height=32, map_width=32)  # limb_width = 1.5
    pafs = render_pafs([_person({1: (10.0, 10.0), 2: (20.0, 10.0)})], cfg).data
    assert pafs[0, 10, 15] == 1.0
    assert pafs[1, 10, 15] == 0.0
    assert pafs[0, 11, 15] == 1.0   # perpendicular distance 1 <= 1.5
    assert pafs[0, 13, 15] == 0.0   # perpendicular distance 3 > 1.5
    assert pafs[0, 10, 25] == 0.0   # projection beyond the far endpoint
    assert pafs[0, 10, 10] == 1.0   # projection 0 is inside
    assert not pafs[2:].any()


def test_diagonal_limb_is_unit_length():
    cfg = RenderConfig(map_height=32, map_width=32)
    pafs = render_pafs([_person({1: (8.0, 8.0), 2: (16.0, 16.0)})], cfg).data
    mid = pafs[:2, 12, 12]
    assert mid[0] == pytest.approx(math.sqrt(0.5), abs=1e-6)
    assert mid[1] == pytest.approx(math.sqrt(0.5), abs=1e-6)


def test_opposite_overlapping_limbs_average_to_zero():
    cfg = RenderConfig(map_height=32, map_width=32)
    a = _person({1: (10.0, 10.0), 2: (20.0, 10.0)})
    b = _person({1: (20.0, 10.0), 2: (10.0, 10.0)})
    pafs = render_pafs([a, b], cfg).data
    assert pafs[0, 10, 15] == 0.0
    assert pafs[1, 10, 15] == 0.0


def test_paf_vectors_never_exceed_unit_norm():
    _, _, pafs = generate_scene(10, RenderConfig(32, 57, seed=3))
    xs = pafs.data[0::2].astype(np.float64)
    ys = pafs.data[1::2].astype(np.float64)
    assert np.sqrt(xs * xs + ys * ys).max() <= 1.0 + 1e-6


def test_degenerate_zero_length_limb_renders_nothing():
    cfg = RenderConfig(map_height=16, map_width=16)
    pafs = render_pafs([_person({1: (8.0, 8.0), 2: (8.0, 8.0)})], cfg).data
    assert not pafs.any()


def _reference_render_pafs(persons, cfg: RenderConfig) -> FeatureMaps:
    """The band test on every pixel of the map, one limb instance at a time."""
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
                continue
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


@st.composite
def _paf_scenes(draw):
    h = draw(st.integers(min_value=1, max_value=40))
    w = draw(st.integers(min_value=1, max_value=40))
    cfg = RenderConfig(h, w, limb_width=draw(st.floats(min_value=0.5, max_value=4.0)))

    # Positions reach 8 px past every edge, so limbs leave the map or cross it.
    def coordinate(size):
        return st.one_of(st.integers(min_value=-8, max_value=size + 8).map(float),
                         st.floats(min_value=-8.0, max_value=size + 8.0))

    point = st.tuples(coordinate(w), coordinate(h))
    persons = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        # Slots share a few positions, so some limbs have zero length.
        pool = draw(st.lists(point, min_size=1, max_size=6))
        slots = draw(st.lists(st.one_of(st.none(), st.sampled_from(pool)),
                              min_size=NUM_KEYPOINTS, max_size=NUM_KEYPOINTS))
        persons.append(GroundTruthPerson(tuple(slots)))
    return persons, cfg


# Limb type 0 runs neck (1) -> right shoulder (2); limb 12 neck -> nose (0).
_SPANNING = _person({1: (-5.0, -3.0), 2: (90.0, 50.0), 0: (3.5, 7.25)})
_ZERO_LENGTH = _person({1: (4.0, 0.0), 2: (4.0, 0.0), 0: (4.0, 3.0)})
_REVERSED = _person({1: (90.0, 50.0), 2: (-5.0, -3.0)})
# Three same-type bands over pixels x 0..2, y 4..6 whose x components are 1,
# -(1 - 1.25e-11) and 8e-17: added in person order the last one survives,
# added in reverse it is rounded away, and the float32 averages differ.
_ORDER_SENSITIVE = [_person({1: (-10.0, 5.0), 2: (40.0, 5.0)}),
                    _person({1: (40.0, 5.0), 2: (-40.0, 5.0004)}),
                    _person({1: (1.0, -20.0), 2: (1.0 + 6.4e-15, 60.0)})]


@settings(max_examples=200, deadline=None)
@given(scene=_paf_scenes())
@example(scene=([_SPANNING, _ZERO_LENGTH, _REVERSED], RenderConfig(40, 40, limb_width=4.0)))
@example(scene=([_SPANNING, _ZERO_LENGTH], RenderConfig(1, 1, limb_width=0.5)))
@example(scene=([_SPANNING, _REVERSED, _ZERO_LENGTH], RenderConfig(1, 37, limb_width=1.5)))
@example(scene=([_ZERO_LENGTH, _SPANNING], RenderConfig(29, 1, limb_width=2.25)))
@example(scene=([], RenderConfig(7, 9)))
@example(scene=(_ORDER_SENSITIVE, RenderConfig(10, 10)))
def test_render_pafs_matches_the_full_map_loop_bit_for_bit(scene):
    persons, cfg = scene
    assert render_pafs(persons, cfg).data.tobytes() == \
        _reference_render_pafs(persons, cfg).data.tobytes()


def _wide_persons():
    return generate_scene(3, RenderConfig(46, 82, seed=20))[0]


@pytest.mark.parametrize("scene", [
    lambda: (generate_scene(20, RenderConfig(32, 57, seed=20))[0], RenderConfig(32, 57)),
    lambda: (_wide_persons(), RenderConfig(46, 82)),
    lambda: ([*_wide_persons(), _SPANNING], RenderConfig(46, 82)),
], ids=["canonical", "wide", "wide-plus-spanning-limb"])
def test_render_pafs_peak_stays_below_two_accumulators(scene):
    # One box as large as the map must not make every box that large.
    persons, cfg = scene()
    render_pafs(persons, cfg)
    tracemalloc.start()
    try:
        render_pafs(persons, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * NUM_PAF_CHANNELS * cfg.map_height * cfg.map_width * 8  # float64 accumulator


# ---------------------------------------------------------------------------
# Templates
# ---------------------------------------------------------------------------

def test_full_template_covers_all_kinds_with_short_limbs():
    assert set(FULL_BODY_TEMPLATE) == set(range(NUM_KEYPOINTS))
    for limb in LIMBS:
        ax, ay = FULL_BODY_TEMPLATE[limb.from_kind]
        bx, by = FULL_BODY_TEMPLATE[limb.to_kind]
        assert 0 < math.hypot(bx - ax, by - ay) <= 5.0


def test_mini_templates_are_kind_disjoint():
    for i, first in enumerate(MINI_TEMPLATES):
        for second in MINI_TEMPLATES[i + 1:]:
            assert not set(first) & set(second)
    assert set().union(*MINI_TEMPLATES) == set(range(NUM_KEYPOINTS))


# ---------------------------------------------------------------------------
# Scene generation
# ---------------------------------------------------------------------------

def test_generate_scene_is_deterministic():
    cfg = RenderConfig(map_height=32, map_width=57, seed=7)
    persons_a, heat_a, paf_a = generate_scene(3, cfg)
    persons_b, heat_b, paf_b = generate_scene(3, cfg)
    assert persons_a == persons_b
    np.testing.assert_array_equal(heat_a.data, heat_b.data)
    np.testing.assert_array_equal(paf_a.data, paf_b.data)


def test_generate_scene_output_is_pinned():
    # Digest of truth documents and both tensors for the first ten acceptance
    # scenes, the canonical 20-person scene and a 46x82 three-person scene.
    # Placement must keep its random draw order, or every fixture changes.
    digest = hashlib.sha256()
    for num, size, seed in ([(s % 20 + 1, (32, 57), s) for s in range(10)]
                            + [(20, (32, 57), 20), (3, (46, 82), 20)]):
        cfg = RenderConfig(*size, seed=seed)
        persons, heatmaps, pafs = generate_scene(num, cfg)
        for blob in (scene_truth_bytes(persons, cfg), heatmaps.data.tobytes(),
                     pafs.data.tobytes()):
            digest.update(blob)
    assert digest.hexdigest() == \
        "80fc3be0791b00d1c45dcad61c724cbba5c0d1f4caa6537e5ed915879c98d8cb"


def test_generate_scene_seeds_differ():
    cfg_a = RenderConfig(map_height=32, map_width=57, seed=1)
    cfg_b = RenderConfig(map_height=32, map_width=57, seed=2)
    assert generate_scene(5, cfg_a)[0] != generate_scene(5, cfg_b)[0]


def test_empty_scene(counting_rng):
    # Zero persons draw nothing and need no room, even on a map no template fits.
    for size in (16, 1):
        persons, heatmaps, pafs = generate_scene(0, RenderConfig(size, size))
        assert persons == []
        assert not pafs.data.any()
        np.testing.assert_array_equal(heatmaps.data[BACKGROUND_CHANNEL], 1.0)
    assert counting_rng.draws == 0


def test_generate_scene_rejects_negative_count():
    # 2.0 raised a TypeError deep inside placement and True placed one person.
    for num in (-1, 2.0, 2.5, True):
        with pytest.raises(ValueError, match="num_persons must be an integer >= 0"):
            generate_scene(num, RenderConfig(16, 16))


def test_impossible_density_raises():
    with pytest.raises(PlacementInfeasibleError):
        generate_scene(50, RenderConfig(map_height=20, map_width=20, seed=0))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       num=st.integers(min_value=1, max_value=8))
def test_same_kind_keypoints_keep_minimum_separation(seed, num):
    persons, _, _ = generate_scene(num, RenderConfig(32, 57, seed=seed))
    assert len(persons) == num
    for i, a in enumerate(persons):
        for b in persons[i + 1:]:
            for pa, pb in zip(a.keypoints, b.keypoints):
                if pa is None or pb is None:
                    continue
                assert math.hypot(pa[0] - pb[0], pa[1] - pb[1]) >= MIN_SAME_KIND_SEPARATION


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       num=st.integers(min_value=1, max_value=8))
def test_keypoints_stay_inside_the_refinable_interior(seed, num):
    cfg = RenderConfig(32, 57, seed=seed)
    persons, _, _ = generate_scene(num, cfg)
    for person in persons:
        for pos in person.keypoints:
            if pos is None:
                continue
            assert 1 <= pos[0] <= cfg.map_width - 2
            assert 1 <= pos[1] <= cfg.map_height - 2


@pytest.mark.parametrize("widths", [
    dict(sigma=math.nan), dict(limb_width=math.nan), dict(limb_width=math.inf),
], ids=["sigma-nan", "limb-width-nan", "limb-width-inf"])
def test_render_config_rejects_non_finite_widths(widths):
    with pytest.raises(ValueError, match="finite and positive"):
        RenderConfig(map_height=10, map_width=10, **widths)


@pytest.mark.parametrize("pos", [(math.nan, 3.0), (3.0, math.inf), (-math.inf, math.nan)],
                         ids=["nan-x", "inf-y", "both"])
def test_person_rejects_non_finite_coordinates(pos):
    # render_heatmaps returned non-finite maps for such a person without an error.
    with pytest.raises(ValueError, match="finite"):
        _person({1: (4.0, 4.0), 2: pos})


def test_person_and_config_validation():
    with pytest.raises(ValueError):
        GroundTruthPerson((None,) * 5)
    with pytest.raises(ValueError):
        RenderConfig(map_height=0, map_width=10)
    with pytest.raises(ValueError):
        RenderConfig(map_height=10, map_width=10, sigma=0.0)
    # Each of these constructed, and the scene-truth file written from it
    # could not be read back.
    for args, kwargs in [((32.0, 57), {}), ((32, 57.5), {}), ((True, 57), {}),
                         ((32, 57), dict(seed=-1)), ((32, 57), dict(seed=1.0))]:
        with pytest.raises(ValueError, match="must be an integer"):
            RenderConfig(*args, **kwargs)
    # True rendered as 1; a string raised TypeError and 10**400 OverflowError.
    for build in (lambda: RenderConfig(10, 10, sigma=True),
                  lambda: RenderConfig(10, 10, limb_width="1.5"),
                  lambda: RenderConfig(10, 10, sigma=10**400),
                  lambda: _person({1: (4.0, 4.0), 2: (True, 1.0)}),
                  lambda: _person({1: (4.0, 4.0), 2: (3.0, "1")})):
        with pytest.raises(ValueError):
            build()


def test_person_stores_python_floats():
    person = _person({1: (np.float32(4.5), np.int64(4)), 2: (3, 2.0)})
    assert person == _person({1: (4.5, 4.0), 2: (3.0, 2.0)})
    assert all(type(v) is float for v in (*person.keypoints[1], *person.keypoints[2]))


def test_render_config_stores_python_numbers():
    cfg = RenderConfig(np.int64(32), np.int32(57), sigma=np.float32(2.0), limb_width=1,
                       seed=np.uint8(3))
    assert cfg == RenderConfig(32, 57, limb_width=1.0, seed=3)
    for name, kind in (("map_height", int), ("map_width", int), ("seed", int),
                       ("sigma", float), ("limb_width", float)):
        assert type(getattr(cfg, name)) is kind, name


# ---------------------------------------------------------------------------
# Placement against the per-attempt reference
# ---------------------------------------------------------------------------

def _blocked(offsets, others, anchor) -> bool:
    """The per-attempt separation test, one anchor at a time."""
    spots = offsets + anchor
    d = np.hypot(others[..., 0] - spots[:, 0], others[..., 1] - spots[:, 1])
    return bool((d < MIN_SAME_KIND_SEPARATION).any())


def _reference_placements(templates, cfg, rng):
    """The per-attempt placement loop, yielding each person as it is placed.

    Every template draws anchors until one passes ``_blocked`` or the attempt
    budget runs out; the generator stops at the first template that fails.
    """
    placed = np.empty((0, NUM_KEYPOINTS, 2))
    for template in templates:
        rng_range = _anchor_range(template, cfg)
        if rng_range is None:
            return
        x_lo, x_hi, y_lo, y_hi = rng_range
        kinds = list(template)
        offsets = np.array([template[k] for k in kinds], dtype=np.float64)
        others = placed[:, kinds]
        for _ in range(_PLACEMENT_ATTEMPTS):
            anchor = (int(rng.integers(x_lo, x_hi + 1)), int(rng.integers(y_lo, y_hi + 1)))
            if not _blocked(offsets, others, anchor):
                placed = np.concatenate([placed, np.full((1, NUM_KEYPOINTS, 2), np.nan)])
                placed[-1, kinds] = offsets + anchor
                break
        else:
            return
        yield GroundTruthPerson(tuple(None if np.isnan(x) else (float(x), float(y))
                                      for x, y in placed[-1]))


def test_anchors_in_one_block_always_collide():
    # Two instances of a template whose anchors lie in one _ANCHOR_BLOCK-square
    # block fail the per-attempt test, which is what lets a strategy that
    # needs more instances than blocks be skipped.
    for template in (FULL_BODY_TEMPLATE, *MINI_TEMPLATES):
        offsets = np.array(list(template.values()), dtype=np.float64)
        others = offsets[None]  # one instance anchored at (0, 0)
        for dx in range(1 - _ANCHOR_BLOCK, _ANCHOR_BLOCK):
            for dy in range(1 - _ANCHOR_BLOCK, _ANCHOR_BLOCK):
                assert _blocked(offsets, others, (dx, dy)), (dx, dy)


_MAX_PERSONS = 25


@pytest.mark.parametrize("map_size", [(16, 16), (20, 20), (24, 33), (32, 57), (46, 82)],
                         ids=lambda s: f"{s[1]}x{s[0]}")
def test_generate_scene_matches_the_per_attempt_reference(map_size):
    # Placement is sequential: a template's draws do not depend on the ones
    # after it, so the first n persons of a 25-person reference run are what
    # the loop places for n persons, and a run that stops after k persons
    # fails every request for more. One run per (seed, strategy) thus serves
    # every person count, and each exhausted budget is spent once.
    for seed in range(6):
        cfg = RenderConfig(*map_size, seed=seed)
        runs = [list(_reference_placements(templates, cfg, np.random.default_rng([seed, idx])))
                for idx, templates in enumerate((
                    [FULL_BODY_TEMPLATE] * _MAX_PERSONS,
                    [MINI_TEMPLATES[i % len(MINI_TEMPLATES)] for i in range(_MAX_PERSONS)]))]
        for num in range(_MAX_PERSONS + 1):
            expected = next((run[:num] for run in runs if len(run) >= num), None)
            if expected is None:
                with pytest.raises(PlacementInfeasibleError) as err:
                    generate_scene(num, cfg)
                assert str(err.value) == (
                    f"cannot place {num} persons on a {map_size[1]}x{map_size[0]} map "
                    f"at separation {MIN_SAME_KIND_SEPARATION:g}")
                continue
            persons, heatmaps, pafs = generate_scene(num, cfg)
            assert persons == expected, (num, seed)
            assert heatmaps.data.tobytes() == render_heatmaps(expected, cfg).data.tobytes()
            assert pafs.data.tobytes() == render_pafs(expected, cfg).data.tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       map_h=st.integers(min_value=16, max_value=48),
       map_w=st.integers(min_value=16, max_value=64),
       template_idx=st.integers(min_value=0, max_value=len(MINI_TEMPLATES)),
       num_placed=st.integers(min_value=0, max_value=6),
       missing=st.floats(min_value=0.0, max_value=1.0))
def test_free_anchor_mask_matches_the_per_attempt_test(seed, map_h, map_w, template_idx,
                                                       num_placed, missing):
    template = (FULL_BODY_TEMPLATE, *MINI_TEMPLATES)[template_idx]
    cfg = RenderConfig(map_h, map_w)
    rng_range = _anchor_range(template, cfg)
    if rng_range is None:
        return
    x_lo, x_hi, y_lo, y_hi = rng_range
    kinds = list(template)
    offsets = np.array([template[k] for k in kinds], dtype=np.float64)
    rng = np.random.default_rng(seed)
    # Placed persons anywhere on or near the map, sub-pixel or not, each
    # kind missing (NaN) with probability ``missing``.
    placed = rng.uniform(-4.0, max(map_h, map_w) + 4.0, size=(num_placed, NUM_KEYPOINTS, 2))
    on_grid = rng.random(num_placed) < 0.5
    placed[on_grid] = np.round(placed[on_grid])
    placed[rng.random((num_placed, NUM_KEYPOINTS)) < missing] = np.nan
    others = placed[:, kinds]
    # The mask and the one-anchor test, called as _try_place calls them.
    others_x, others_y = others.transpose(2, 0, 1)
    free = _free_anchors(others_x, others_y,
                         offsets[:, 0] + np.arange(x_lo, x_hi + 1)[:, None, None],
                         offsets[:, 1] + np.arange(y_lo, y_hi + 1)[:, None, None, None])
    assert free.shape == (y_hi - y_lo + 1, x_hi - x_lo + 1)
    for y in range(y_lo, y_hi + 1):
        for x in range(x_lo, x_hi + 1):
            assert free[y - y_lo, x - x_lo] == (not _blocked(offsets, others, (x, y)))
    for _ in range(4):
        x, y = int(rng.integers(x_lo, x_hi + 1)), int(rng.integers(y_lo, y_hi + 1))
        one = _free_anchors(others_x, others_y, offsets[:, 0] + x, offsets[:, 1] + y)
        assert one.shape == ()
        assert one == (not _blocked(offsets, others, (x, y)))


_REAL_DEFAULT_RNG = np.random.default_rng


class _CountingRng:
    """Stands in for a ``Generator``, records its seed and counts its
    ``integers`` draws."""

    draws = 0
    seeds: list = []

    def __init__(self, seed):
        _CountingRng.seeds.append(seed)
        self._rng = _REAL_DEFAULT_RNG(seed)

    def integers(self, *args, **kwargs):
        _CountingRng.draws += 1
        return self._rng.integers(*args, **kwargs)


@pytest.fixture
def counting_rng(monkeypatch):
    monkeypatch.setattr(_CountingRng, "draws", 0)
    monkeypatch.setattr(_CountingRng, "seeds", [])
    monkeypatch.setattr(np.random, "default_rng", _CountingRng)
    return _CountingRng


def test_canonical_scene_stops_drawing_once_no_anchor_is_free(counting_rng):
    persons, _, _ = generate_scene(20, RenderConfig(32, 57, seed=20))
    assert len(persons) == 20
    assert counting_rng.draws < 1000


def test_full_bodies_are_skipped_only_when_they_cannot_fit(counting_rng):
    # 20 or 9 full bodies on 32x57 maps need more than the range's 8 anchor
    # blocks, so that strategy never seeds its generator; 3 on 46x82 maps
    # (18 blocks) do.
    for num in (20, 9):
        counting_rng.seeds.clear()
        generate_scene(num, RenderConfig(32, 57, seed=20))
        assert counting_rng.seeds == [[20, 1]], num
    counting_rng.seeds.clear()
    persons, _, _ = generate_scene(3, RenderConfig(46, 82, seed=20))
    assert counting_rng.seeds[0] == [20, 0]
    assert persons[0].num_visible() == NUM_KEYPOINTS
    # 8 full bodies fit the 8 blocks in principle, so the strategy runs; it
    # places fewer and ends once no anchor is free.
    counting_rng.seeds.clear()
    counting_rng.draws = 0
    persons, _, _ = generate_scene(8, RenderConfig(32, 57, seed=20))
    assert counting_rng.seeds == [[20, 0], [20, 1]]
    assert len(persons) == 8 and counting_rng.draws < 1000


def test_impossible_density_fails_without_spending_the_attempt_budget(counting_rng):
    with pytest.raises(PlacementInfeasibleError, match="cannot place 50 persons"):
        generate_scene(50, RenderConfig(map_height=20, map_width=20))
    assert counting_rng.draws < 1000


def test_placement_fails_once_a_person_spends_every_attempt(monkeypatch):
    # With fewer attempts than it takes to build a free-anchor mask, the
    # canonical scene, which needs retries, runs out of attempts instead.
    monkeypatch.setattr("posekit.synth._PLACEMENT_ATTEMPTS", _ATTEMPTS_BEFORE_MASK // 2)
    with pytest.raises(PlacementInfeasibleError, match="cannot place 20 persons"):
        generate_scene(20, RenderConfig(32, 57, seed=20))


def test_impossible_crowd_is_refused_before_listing_its_persons():
    # A list of a million templates alone takes 8 MB; the refusal needs only
    # each template's count.
    tracemalloc.start()
    try:
        with pytest.raises(PlacementInfeasibleError, match="cannot place 1000000 persons"):
            generate_scene(10**6, RenderConfig(32, 57))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ---------------------------------------------------------------------------
# Post-placement separation check
# ---------------------------------------------------------------------------

def _reference_check_separation(persons) -> None:
    """The person-pair loop the array check replaces."""
    best = np.inf
    for i, a in enumerate(persons):
        for b in persons[i + 1:]:
            for pa, pb in zip(a.keypoints, b.keypoints):
                if pa is not None and pb is not None:
                    best = min(best, math.hypot(pa[0] - pb[0], pa[1] - pb[1]))
    if best < MIN_SAME_KIND_SEPARATION:
        raise PlacementInfeasibleError(f"placement produced same-kind keypoints {best:.2f} px apart")


def test_separation_check_rejects_persons_15_px_apart():
    a = _person({k: (x + 1.0, y + 1.0) for k, (x, y) in FULL_BODY_TEMPLATE.items()})
    b = _person({k: (x + 16.0, y + 1.0) for k, (x, y) in FULL_BODY_TEMPLATE.items()})
    with pytest.raises(PlacementInfeasibleError,
                       match=r"^placement produced same-kind keypoints 15\.00 px apart$"):
        _check_separation([a, b])


def test_separation_check_passes_persons_16_px_apart():
    a = _person({k: (x + 1.0, y + 1.0) for k, (x, y) in FULL_BODY_TEMPLATE.items()})
    b = _person({k: (x + 17.0, y + 1.0) for k, (x, y) in FULL_BODY_TEMPLATE.items()})
    _check_separation([a, b])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       num=st.integers(min_value=1, max_value=8),
       missing=st.floats(min_value=0.0, max_value=1.0))
def test_separation_check_matches_the_pair_loop(seed, num, missing):
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0.0, 48.0, size=(num, NUM_KEYPOINTS, 2))
    persons = [GroundTruthPerson(tuple(None if rng.random() < missing else (float(x), float(y))
                                       for x, y in person)) for person in xy]
    try:
        _reference_check_separation(persons)
    except PlacementInfeasibleError as err:
        with pytest.raises(PlacementInfeasibleError) as got:
            _check_separation(persons)
        assert str(got.value) == str(err)
    else:
        _check_separation(persons)
