"""Synthetic scene generation: analytic renderers and placement guarantees."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posekit import GroundTruthPerson, RenderConfig, generate_scene
from posekit.errors import PlacementInfeasibleError
from posekit.fileio import scene_truth_bytes
from posekit.skeleton import (
    BACKGROUND_CHANNEL,
    LIMBS,
    NUM_HEATMAP_CHANNELS,
    NUM_KEYPOINTS,
    NUM_PAF_CHANNELS,
)
from posekit.synth import (
    FULL_BODY_TEMPLATE,
    MIN_SAME_KIND_SEPARATION,
    MINI_TEMPLATES,
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


def test_empty_scene():
    persons, heatmaps, pafs = generate_scene(0, RenderConfig(16, 16))
    assert persons == []
    assert not pafs.data.any()
    np.testing.assert_array_equal(heatmaps.data[BACKGROUND_CHANNEL], 1.0)


def test_generate_scene_rejects_negative_count():
    with pytest.raises(ValueError):
        generate_scene(-1, RenderConfig(16, 16))


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


def test_person_and_config_validation():
    with pytest.raises(ValueError):
        GroundTruthPerson((None,) * 5)
    with pytest.raises(ValueError):
        RenderConfig(map_height=0, map_width=10)
    with pytest.raises(ValueError):
        RenderConfig(map_height=10, map_width=10, sigma=0.0)
