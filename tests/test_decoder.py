"""Peak extraction, limb scoring, greedy grouping, and skeleton assembly."""

import hashlib
import inspect
import math
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import posekit.bench
import posekit.decoder
import posekit.featuremaps
from posekit import (
    KEYPOINT_NAMES,
    DecoderConfig,
    FeatureMaps,
    Keypoint,
    LimbConnection,
    LimbType,
    LIMBS,
    NUM_KEYPOINTS,
    PoseDocument,
    PoseSkeleton,
    assemble_skeletons,
    collect_limb_candidates,
    decode,
    extract_keypoints,
    group_limbs,
    resize_bilinear,
    score_connections,
)
from posekit.bench import (
    _naive_assemble,
    _naive_extract,
    _naive_match,
    compare_skeletons,
    identity_geometry,
    make_canonical_scenario,
    naive_decode,
)
from posekit.errors import DimensionMismatchError
from posekit.featuremaps import compute_input_geometry
from posekit.fileio import pose_document_bytes
from posekit.skeleton import BACKGROUND_CHANNEL, NUM_HEATMAP_CHANNELS, NUM_PAF_CHANNELS
from posekit.synth import (
    FULL_BODY_TEMPLATE,
    GroundTruthPerson,
    RenderConfig,
    generate_scene,
    render_heatmaps,
    render_pafs,
)


def _gaussian(h, w, cx, cy, amp=1.0, sigma=2.0):
    ys = np.arange(h, dtype=np.float64)[:, None]
    xs = np.arange(w, dtype=np.float64)[None, :]
    return amp * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * sigma * sigma))


def _heat_stack(h, w, blobs) -> FeatureMaps:
    """19-channel heatmaps from (kind, plane) pairs, max-composed."""
    data = np.zeros((NUM_HEATMAP_CHANNELS, h, w), dtype=np.float32)
    for kind, plane in blobs:
        np.maximum(data[kind], plane.astype(np.float32), out=data[kind])
    data[BACKGROUND_CHANNEL] = 1.0 - data[:NUM_KEYPOINTS].max(axis=0)
    return FeatureMaps(data)


def _paf_stack(h, w, channels=None) -> FeatureMaps:
    data = np.zeros((NUM_PAF_CHANNELS, h, w), dtype=np.float32)
    for ch, value in (channels or {}).items():
        data[ch] = value
    return FeatureMaps(data)


# ---------------------------------------------------------------------------
# Peak extraction
# ---------------------------------------------------------------------------

def test_zero_heatmaps_have_no_keypoints():
    buckets = extract_keypoints(_heat_stack(16, 16, []))
    assert all(b == [] for b in buckets)


def test_single_gaussian_recovered_on_upsampled_map():
    heat = _heat_stack(32, 57, [(0, _gaussian(32, 57, 20.0, 14.0))])
    up = resize_bilinear(heat, 4)
    buckets = extract_keypoints(up)
    assert sum(len(b) for b in buckets) == 1
    (kp,) = buckets[0]
    # Integer source peak -> 2x2 plateau -> first pixel + 0.5 refinement.
    assert kp.x == pytest.approx(20 * 4 + 1.5, abs=0.25)
    assert kp.y == pytest.approx(14 * 4 + 1.5, abs=0.25)
    assert kp.score > 0.97


def test_two_nearby_peaks_resolved():
    plane = np.maximum(_gaussian(24, 40, 20.0, 10.0), _gaussian(24, 40, 23.0, 10.0, amp=0.9))
    buckets = extract_keypoints(_heat_stack(24, 40, [(3, plane)]))
    assert len(buckets[3]) == 2
    first, second = buckets[3]
    assert first.score == pytest.approx(1.0, abs=1e-6)
    assert second.score == pytest.approx(0.9, abs=1e-6)
    # Max composition keeps both profiles locally symmetric, so refinement
    # lands exactly on the integer centers.
    assert (first.x, first.y) == (pytest.approx(20.0, abs=1e-6), pytest.approx(10.0, abs=1e-6))
    assert (second.x, second.y) == (pytest.approx(23.0, abs=1e-6), pytest.approx(10.0, abs=1e-6))


def test_quadratic_refinement_recovers_fractional_apex():
    h, w = 20, 30
    ys = np.arange(h, dtype=np.float64)[:, None]
    xs = np.arange(w, dtype=np.float64)[None, :]
    plane = 1.0 - ((xs - 14.3) ** 2 + (ys - 9.7) ** 2) / 500.0
    buckets = extract_keypoints(_heat_stack(h, w, [(5, plane)]))
    (kp,) = buckets[5]
    # The refinement parabola matches the surface exactly.
    assert kp.x == pytest.approx(14.3, abs=1e-4)
    assert kp.y == pytest.approx(9.7, abs=1e-4)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       h=st.integers(min_value=1, max_value=12),
       w=st.integers(min_value=1, max_value=12),
       steps=st.one_of(st.none(), st.integers(min_value=2, max_value=8)),
       scale=st.sampled_from([1e-30, 1e-3, 1.0, 1e30]),
       threshold=st.floats(min_value=-0.5, max_value=0.3),
       factor=st.integers(min_value=1, max_value=8))
def test_every_refined_triple_is_strictly_concave(seed, h, w, steps, scale, threshold, factor):
    # A peak is strictly above its earlier neighbor and at least equal to its
    # later one, so both peak searches hand the refinement only finite,
    # strictly concave triples, whose vertex lies in (-0.5, 0.5].
    rng = np.random.default_rng(seed)
    data = rng.uniform(-0.5, 1.0, size=(NUM_HEATMAP_CHANNELS, h, w))
    if steps is not None:
        # Steps of 1/steps: plateaus and ties with the later neighbor.
        data = np.round(data * steps) / steps
    heat = FeatureMaps((data * scale).astype(np.float32))
    cfg = DecoderConfig(upsample_factor=factor, peak_threshold=threshold * scale)
    refine = posekit.decoder._refine_axis
    triples = []

    def spy(values, lo, hi):
        offset = refine(values, lo, hi)
        triples.append((values, lo, hi, offset))
        return offset

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(posekit.decoder, "_refine_axis", spy)
        cells = posekit.decoder._peak_cells(heat.data, cfg)
        posekit.decoder._block_peaks(heat, posekit.decoder._cell_blocks(cells, factor), cfg)
        extract_keypoints(resize_bilinear(heat, factor), cfg)
    assert len(triples) == 4
    for values, lo, hi, offset in triples:
        assert np.isfinite(lo).all() and np.isfinite(hi).all()
        assert (lo - 2.0 * values + hi < 0.0).all()
        assert ((offset > -0.5) & (offset <= 0.5)).all()
        if steps is not None:
            # A tie with the later neighbor puts the vertex half a step back.
            assert (offset[hi == values] == 0.5).all()


def test_plateau_yields_single_keypoint():
    plane = np.zeros((10, 10))
    plane[4:6, 4:6] = 0.8
    buckets = extract_keypoints(_heat_stack(10, 10, [(0, plane)]))
    assert len(buckets[0]) == 1


def test_border_ring_is_never_a_peak():
    plane = np.zeros((8, 8))
    plane[0, 3] = 0.9
    plane[5, 0] = 0.9
    plane[7, 7] = 0.9
    buckets = extract_keypoints(_heat_stack(8, 8, [(2, plane)]))
    assert buckets[2] == []


def test_threshold_is_strict():
    plane = np.zeros((8, 8))
    plane[4, 4] = 0.1
    cfg = DecoderConfig(peak_threshold=0.1)
    assert extract_keypoints(_heat_stack(8, 8, [(0, plane)]), cfg)[0] == []
    relaxed = DecoderConfig(peak_threshold=0.05)
    assert len(extract_keypoints(_heat_stack(8, 8, [(0, plane)]), relaxed)[0]) == 1


def test_ids_are_unique_and_ordered_across_kinds():
    blobs = [(0, _gaussian(30, 30, 8.0, 8.0)), (0, _gaussian(30, 30, 24.0, 24.0, amp=0.7)),
             (4, _gaussian(30, 30, 15.0, 15.0))]
    buckets = extract_keypoints(_heat_stack(30, 30, blobs))
    flat = [kp for b in buckets for kp in b]
    assert [kp.id for kp in flat] == list(range(len(flat)))
    assert [kp.score for kp in buckets[0]] == sorted((kp.score for kp in buckets[0]),
                                                     reverse=True)


def test_extract_rejects_wrong_channel_count():
    with pytest.raises(DimensionMismatchError):
        extract_keypoints(FeatureMaps.zeros(NUM_KEYPOINTS, 8, 8))


@settings(max_examples=40)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       t_lo=st.floats(min_value=0.05, max_value=0.4),
       t_hi=st.floats(min_value=0.4, max_value=0.9))
def test_raising_threshold_only_removes_peaks(seed, t_lo, t_hi):
    rng = np.random.default_rng(seed)
    data = np.zeros((NUM_HEATMAP_CHANNELS, 12, 12), dtype=np.float32)
    data[:NUM_KEYPOINTS] = rng.uniform(0.0, 1.0, size=(NUM_KEYPOINTS, 12, 12))
    maps = FeatureMaps(data)
    low = extract_keypoints(maps, DecoderConfig(peak_threshold=t_lo))
    high = extract_keypoints(maps, DecoderConfig(peak_threshold=t_hi))
    for lo_bucket, hi_bucket in zip(low, high):
        lo_pos = {(kp.x, kp.y) for kp in lo_bucket}
        assert {(kp.x, kp.y) for kp in hi_bucket} <= lo_pos


def test_extract_threads_do_not_change_results():
    rng = np.random.default_rng(3)
    data = np.zeros((NUM_HEATMAP_CHANNELS, 20, 20), dtype=np.float32)
    data[:NUM_KEYPOINTS] = rng.uniform(0.0, 1.0, size=(NUM_KEYPOINTS, 20, 20))
    maps = FeatureMaps(data)
    with pytest.warns(DeprecationWarning):
        assert extract_keypoints(maps, threads=1) == extract_keypoints(maps, threads=4)


def test_equal_scores_keep_row_then_column_order():
    # Isolated single-pixel peaks of one value refine to their own pixel.
    plane = np.zeros((12, 12))
    spots = [(9, 2), (3, 8), (3, 2), (6, 5), (9, 9), (6, 1)]
    for y, x in spots:
        plane[y, x] = 0.5
    plane[1, 10] = 0.7
    heat = _heat_stack(12, 12, [(6, plane)])
    (bucket,) = [b for b in extract_keypoints(heat) if b]
    assert [(kp.y, kp.x) for kp in bucket] == [(1.0, 10.0)] + sorted(spots)
    assert [kp.id for kp in bucket] == list(range(len(spots) + 1))
    # Decode's stages keep the same order at every factor, where pixel p's
    # centre sits at (p + 0.5) * f - 0.5 (about 3e-8 off at factor 3).
    for factor in (1, 2, 3, 4, 5, 8):
        cfg = DecoderConfig(upsample_factor=factor)
        cells = posekit.decoder._peak_cells(heat.data, cfg)
        kind, x, y, score = posekit.decoder._block_peaks(
            heat, posekit.decoder._cell_blocks(cells, factor), cfg)
        assert (kind == 6).all()
        assert score[0] > score[1] and (score[1:] == score[1]).all()
        centres = (np.array([(1, 10)] + sorted(spots)) + 0.5) * factor - 0.5
        np.testing.assert_allclose(np.column_stack((y, x)), centres, rtol=0, atol=1e-6)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       kind=st.sampled_from(["noise", "plateau"]))
def test_extract_order_and_ids_across_thread_counts(seed, kind):
    rng = np.random.default_rng(seed)
    shape = (NUM_KEYPOINTS, 10, 13)
    data = np.zeros((NUM_HEATMAP_CHANNELS, *shape[1:]), dtype=np.float32)
    if kind == "noise":
        data[:NUM_KEYPOINTS] = rng.uniform(0.0, 1.0, size=shape)
    else:
        data[:NUM_KEYPOINTS] = rng.integers(0, 3, size=shape) / 4.0
    up = resize_bilinear(FeatureMaps(data), int(rng.integers(1, 4)))
    with pytest.warns(DeprecationWarning):
        single = extract_keypoints(up, threads=1)
        assert extract_keypoints(up, threads=2) == single
    flat = [kp for bucket in single for kp in bucket]
    assert [kp.id for kp in flat] == list(range(len(flat)))
    for bucket in single:
        keys = [(-kp.score, kp.y, kp.x) for kp in bucket]
        assert keys == sorted(keys)


def _border_blobs(rng, h, w) -> np.ndarray:
    """Gaussian blobs centred on the map's border rows and columns."""
    plane = np.zeros((h, w))
    for _ in range(int(rng.integers(1, 4))):
        cy, cx = rng.choice([0, h - 1]), rng.uniform(0, w - 1)
        if rng.random() < 0.5:
            cy, cx = rng.uniform(0, h - 1), rng.choice([0, w - 1])
        plane = np.maximum(plane, _gaussian(h, w, cx, cy, amp=rng.uniform(0.2, 1.0),
                                            sigma=rng.uniform(0.5, 2.0)))
    return plane


@settings(max_examples=40, deadline=None)
@example(seed=6, kind="plateau", h=4, w=7, factor=3)  # the tie described below
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       kind=st.sampled_from(["noise", "plateau", "border"]),
       h=st.integers(min_value=1, max_value=9),
       w=st.integers(min_value=1, max_value=9),
       factor=st.integers(min_value=1, max_value=4))
def test_extract_matches_scalar_reference(seed, kind, h, w, factor):
    rng = np.random.default_rng(seed)
    data = np.zeros((NUM_HEATMAP_CHANNELS, h, w), dtype=np.float32)
    for c in range(NUM_KEYPOINTS):
        if kind == "noise":
            plane = rng.uniform(0.0, 1.0, size=(h, w))
        elif kind == "plateau":
            plane = rng.integers(0, 3, size=(h, w)) / 4.0  # many equal neighbors
        else:
            plane = _border_blobs(rng, h, w) + rng.normal(0.0, 0.02, size=(h, w))
        data[c] = plane
    up = resize_bilinear(FeatureMaps(data), factor)
    cfg = DecoderConfig()
    got = extract_keypoints(up, cfg)
    want = _naive_extract(list(up.data), cfg.peak_threshold)
    # The scalar reference refines in float32 and the batched path in
    # float64, so positions agree to float32 precision and equal scores may
    # come in another order (rows 7 - 9e-8 and 7 - 4e-8 are both 7.0 in
    # float32, leaving the column to decide): match each peak by exact score
    # and position within that precision. Peaks sit at least one pixel
    # apart, so a match is unique.
    for got_bucket, want_bucket in zip(got, want):
        assert {k.id for k in got_bucket} == {r.id for r in want_bucket}
        remaining = list(want_bucket)
        for k in got_bucket:
            (match,) = [r for r in remaining if r.score == k.score
                        and abs(r.x - k.x) <= 1e-4 and abs(r.y - k.y) <= 1e-4]
            remaining.remove(match)


# ---------------------------------------------------------------------------
# Connection scoring
# ---------------------------------------------------------------------------

def _kp(kp_id, kind, x, y):
    return Keypoint(id=kp_id, kind=kind, x=x, y=y, score=1.0)


def test_aligned_constant_field_scores_one():
    limb = LIMBS[0]  # neck -> right shoulder, channels 0/1
    pafs = _paf_stack(32, 32, {limb.paf_x_channel: 1.0})
    a = _kp(0, limb.from_kind, 5.0, 16.0)
    b = _kp(1, limb.to_kind, 25.0, 16.0)
    conn = score_connections(pafs, limb, [a], [b])[0]
    assert conn.affinity == pytest.approx(1.0)
    assert conn.valid_ratio == 1.0


def test_perpendicular_field_scores_zero():
    limb = LIMBS[0]
    pafs = _paf_stack(32, 32, {limb.paf_y_channel: 1.0})
    conn = score_connections(pafs, limb, [_kp(0, limb.from_kind, 5.0, 16.0)],
                             [_kp(1, limb.to_kind, 25.0, 16.0)])[0]
    assert conn.affinity == pytest.approx(0.0, abs=1e-12)
    assert conn.valid_ratio == 0.0


def test_antiparallel_field_scores_minus_one():
    limb = LIMBS[0]
    pafs = _paf_stack(32, 32, {limb.paf_x_channel: 1.0})
    conn = score_connections(pafs, limb, [_kp(0, limb.from_kind, 25.0, 16.0)],
                             [_kp(1, limb.to_kind, 5.0, 16.0)])[0]
    assert conn.affinity == pytest.approx(-1.0)
    assert conn.valid_ratio == 0.0


def test_coincident_endpoints_score_zero():
    limb = LIMBS[0]
    pafs = _paf_stack(16, 16, {limb.paf_x_channel: 1.0})
    # At a negative alignment threshold every zero sample would count as
    # aligned: a zero-length pair still gets no valid ratio.
    for cfg in (DecoderConfig(), DecoderConfig(paf_alignment_threshold=-0.1)):
        conn = score_connections(pafs, limb, [_kp(0, limb.from_kind, 8.0, 8.0)],
                                 [_kp(1, limb.to_kind, 8.0, 8.0)], cfg)[0]
        assert (conn.affinity, conn.valid_ratio) == (0.0, 0.0)
        assert conn.affinity.hex() == "0x0.0p+0"


def test_rendered_limb_scores_high_after_upsampling():
    limb = LIMBS[0]
    person = GroundTruthPerson(tuple(
        {1: (15.0, 10.0), 2: (20.0, 10.0)}.get(k) for k in range(NUM_KEYPOINTS)
    ))
    cfg = RenderConfig(map_height=32, map_width=57)
    up_paf = resize_bilinear(render_pafs([person], cfg), 4)
    a = _kp(0, limb.from_kind, 15 * 4 + 1.5, 10 * 4 + 1.5)
    b = _kp(1, limb.to_kind, 20 * 4 + 1.5, 10 * 4 + 1.5)
    conn = score_connections(up_paf, limb, [a], [b])[0]
    assert conn.affinity > 0.95
    assert conn.valid_ratio == 1.0


def test_connection_off_the_band_fails_the_ratio_filter():
    limb = LIMBS[0]
    person = GroundTruthPerson(tuple(
        {1: (10.0, 10.0), 2: (15.0, 10.0)}.get(k) for k in range(NUM_KEYPOINTS)
    ))
    cfg = RenderConfig(map_height=32, map_width=57)
    pafs = render_pafs([person], cfg)
    # Endpoints far above the rendered band: every sample reads zeros.
    conn = score_connections(pafs, limb, [_kp(0, limb.from_kind, 10.0, 25.0)],
                             [_kp(1, limb.to_kind, 15.0, 25.0)])[0]
    assert conn.valid_ratio < DecoderConfig().min_valid_ratio


@pytest.mark.parametrize("channels", [2, 40])
@pytest.mark.parametrize("scorer", [
    score_connections,
    collect_limb_candidates,
], ids=["score_connections", "collect_limb_candidates"])
def test_scorers_reject_wrong_paf_channel_count(scorer, channels):
    # The last limb reads channels beyond 2; 40 channels would score silently.
    limb = LIMBS[-1]
    pafs = FeatureMaps.zeros(channels, 16, 16)
    kps_a = [_kp(0, limb.from_kind, 2.0, 8.0)]
    kps_b = [_kp(1, limb.to_kind, 12.0, 8.0)]
    with pytest.raises(DimensionMismatchError):
        scorer(pafs, limb, kps_a, kps_b)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["x", "y"])
@pytest.mark.parametrize("scorer", [
    score_connections,
    collect_limb_candidates,
], ids=["score_connections", "collect_limb_candidates"])
def test_scorers_reject_a_non_finite_keypoint(scorer, field, value):
    # Unchecked, such a point reaches the PAF index with a wild value: a bare IndexError.
    limb = LIMBS[0]
    pafs = _paf_stack(16, 16, {limb.paf_x_channel: 1.0})
    kps_a = [_kp(0, limb.from_kind, 2.0, 8.0)]
    kps_b = [_kp(2, limb.to_kind, 10.0, 8.0),
             replace(_kp(3, limb.to_kind, 12.0, 8.0), **{field: value})]
    with pytest.raises(ValueError, match="keypoint 3 has a non-finite x or y"):
        scorer(pafs, limb, kps_a, kps_b)


@pytest.mark.parametrize("end", ["from", "to"])
@pytest.mark.parametrize("scorer", [
    score_connections,
    collect_limb_candidates,
], ids=["score_connections", "collect_limb_candidates"])
def test_scorers_reject_a_keypoint_not_of_the_limbs_kind(scorer, end):
    # Unchecked, such a pair is scored on this limb's field as if it fit.
    limb = LIMBS[0]
    pafs = _paf_stack(16, 16, {limb.paf_x_channel: 1.0})
    kps_a = [_kp(0, limb.from_kind, 2.0, 8.0), _kp(1, limb.from_kind, 3.0, 8.0)]
    kps_b = [_kp(2, limb.to_kind, 10.0, 8.0), _kp(3, limb.to_kind, 12.0, 8.0)]
    # Both points of one end get the other end's kind; the first is named.
    if end == "from":
        kps_a = [replace(kp, kind=limb.to_kind) for kp in kps_a]
        named, kind, wanted = 0, limb.to_kind, limb.from_kind
    else:
        kps_b = [replace(kp, kind=limb.from_kind) for kp in kps_b]
        named, kind, wanted = 2, limb.from_kind, limb.to_kind
    with pytest.raises(ValueError, match=f"^keypoint {named} has kind {kind}, but limb "
                                         f"{limb.id} takes kind {wanted} at its {end} end$"):
        scorer(pafs, limb, kps_a, kps_b)


def test_score_connections_covers_every_pair():
    limb = LIMBS[0]
    pafs = _paf_stack(16, 16, {limb.paf_x_channel: 0.5})
    kps_a = [_kp(0, limb.from_kind, 2.0, 8.0), _kp(1, limb.from_kind, 4.0, 8.0)]
    kps_b = [_kp(2, limb.to_kind, 10.0, 8.0), _kp(3, limb.to_kind, 12.0, 8.0),
             _kp(4, limb.to_kind, 14.0, 8.0)]
    conns = score_connections(pafs, limb, kps_a, kps_b)
    assert {(c.from_kp, c.to_kp) for c in conns} == {(a, b) for a in (0, 1)
                                                     for b in (2, 3, 4)}
    assert all(c.affinity == pytest.approx(0.5) for c in conns)


def test_collect_limb_candidates_matches_filtered_score_connections():
    rng = np.random.default_rng(9)
    limb = LIMBS[4]
    data = rng.uniform(-1.0, 1.0, size=(NUM_PAF_CHANNELS, 24, 24)).astype(np.float32)
    pafs = FeatureMaps(data)
    kps_a = [_kp(i, limb.from_kind, *rng.uniform(2, 21, 2)) for i in range(4)]
    kps_b = [_kp(10 + i, limb.to_kind, *rng.uniform(2, 21, 2)) for i in range(4)]
    cfg = DecoderConfig(min_valid_ratio=0.3)
    full = score_connections(pafs, limb, kps_a, kps_b, cfg)
    kept = [c for c in full if c.valid_ratio >= cfg.min_valid_ratio and c.affinity > 0.0]
    assert collect_limb_candidates(pafs, limb, kps_a, kps_b, cfg) == kept


def test_scoring_wrappers_score_a_against_b_on_a_same_kind_limb():
    # A caller-built limb whose two ends are one kind still pairs kps_a
    # with kps_b, not one list with itself.
    limb = LimbType(id=0, from_kind=1, to_kind=1, paf_x_channel=0, paf_y_channel=1)
    pafs = _paf_stack(16, 16, {0: 1.0})
    kps_a = [_kp(0, 1, 2.0, 8.0), _kp(1, 1, 4.0, 8.0)]
    kps_b = [_kp(2, 1, 12.0, 8.0)]
    conns = score_connections(pafs, limb, kps_a, kps_b)
    assert [(c.from_kp, c.to_kp) for c in conns] == [(0, 2), (1, 2)]
    assert all(c.affinity == pytest.approx(1.0) for c in conns)
    assert collect_limb_candidates(pafs, limb, kps_a, kps_b) == conns


@pytest.mark.parametrize("field, value", [
    ("paf_x_channel", -1), ("paf_y_channel", 38), ("paf_x_channel", 1.5),
    ("paf_y_channel", True), ("from_kind", -1), ("to_kind", 18),
])
def test_limb_type_rejects_values_outside_its_rule(field, value):
    # A scorer would read such a channel as another one, or fail far from the cause.
    with pytest.raises(ValueError, match=f"^limb 7 {field} must be"):
        replace(LIMBS[7], **{field: value})


def test_limb_type_stores_python_ints():
    limb = LimbType(3, np.int64(1), np.int16(1), np.intp(0), np.int32(37))
    assert [type(v) for v in (limb.from_kind, limb.to_kind, limb.paf_x_channel,
                              limb.paf_y_channel)] == [int] * 4


def _score_every_limb(pafs, factor, keypoints, cfg):
    """Every limb's candidates from ``_score_pairs`` on the columns
    ``_group_peaks`` builds: the points by kind, their per-kind starts and
    counts, and ``_LIMB_COLUMNS``."""
    flat = [kp for bucket in keypoints for kp in bucket]
    x, y = (np.array([getattr(kp, name) for kp in flat], dtype=np.float64) for name in "xy")
    counts = np.array([len(bucket) for bucket in keypoints], dtype=np.intp)
    starts = np.cumsum(counts) - counts
    from_kind, to_kind, x_channel, y_channel = posekit.decoder._LIMB_COLUMNS
    columns = posekit.decoder._score_pairs(
        pafs, factor, x, y, (starts[from_kind], counts[from_kind], starts[to_kind],
                             counts[to_kind], x_channel, y_channel), cfg)
    every = [[] for _ in LIMBS]
    for p, a, b, affinity, valid in zip(*(c.tolist() for c in columns)):
        every[p].append(LimbConnection(LIMBS[p], flat[a].id, flat[b].id, affinity, valid))
    return every


@pytest.mark.parametrize("factor", [1, 3, 4])
def test_batched_scorer_on_mixed_limbs(monkeypatch, factor):
    # Some kinds have no keypoints, some one, some several; kinds 1 and 2
    # hold a coincident pair.
    rng = np.random.default_rng(factor)
    h, w = 12, 17
    pafs = FeatureMaps(rng.uniform(-1.0, 1.0, size=(NUM_PAF_CHANNELS, h, w)).astype(np.float32))
    sizes = {1: 3, 2: 2, 3: 1, 4: 1, 0: 2, 14: 1, 8: 4}
    keypoints, next_id = [[] for _ in range(NUM_KEYPOINTS)], 0
    for kind, count in sizes.items():
        for _ in range(count):
            x, y = rng.uniform(0, w * factor - 1), rng.uniform(0, h * factor - 1)
            keypoints[kind].append(_kp(next_id, kind, float(x), float(y)))
            next_id += 1
    keypoints[2][1] = _kp(keypoints[2][1].id, 2, keypoints[1][0].x, keypoints[1][0].y)
    cfg = DecoderConfig(upsample_factor=factor, min_valid_ratio=0.3)
    every = _score_every_limb(pafs, factor, keypoints, cfg)
    up_paf = resize_bilinear(pafs, factor)
    # The scalar reference: the naive path's per-pair loop, captured on its
    # way into _naive_match.
    scalar = []
    monkeypatch.setattr(posekit.bench, "_naive_match",
                        lambda cands, cfg: scalar.extend(cands) or _naive_match(cands, cfg))
    posekit.bench._naive_group(up_paf.data, keypoints, cfg)
    for limb, conns, reference in zip(LIMBS, every, scalar):
        kps_a, kps_b = keypoints[limb.from_kind], keypoints[limb.to_kind]
        filtered = collect_limb_candidates(up_paf, limb, kps_a, kps_b, cfg)
        # Row-major (a, b) order, every pair, and the limb's own type.
        assert [(c.from_kp, c.to_kp) for c in conns] == \
            [(a.id, b.id) for a in kps_a for b in kps_b]
        assert all(c.limb is limb for c in conns)
        assert conns == score_connections(up_paf, limb, kps_a, kps_b, cfg)
        assert filtered == [c for c in conns
                            if c.valid_ratio >= cfg.min_valid_ratio and c.affinity > 0.0]
        assert [(c.from_kp, c.to_kp, c.valid_ratio) for c in conns] == \
            [(c.from_kp, c.to_kp, c.valid_ratio) for c in reference]
        for c, ref in zip(conns, reference):
            assert c.affinity == pytest.approx(ref.affinity, abs=1e-12)
    coincident = [c for c in every[0] if c.to_kp == keypoints[2][1].id
                  and c.from_kp == keypoints[1][0].id]
    assert [(c.affinity, c.valid_ratio) for c in coincident] == [(0.0, 0.0)]
    assert sum(map(len, every)) > 0
    assert every[LIMBS.index(_limb_for(1, 5))] == []  # kind 5 has no keypoints


def test_batched_scorer_single_pair_per_limb_and_no_peaks():
    limb = LIMBS[0]
    pafs = _paf_stack(16, 16, {limb.paf_x_channel: 1.0})
    keypoints = [[_kp(kind, kind, 2.0 + kind % 3, 8.0)] for kind in range(NUM_KEYPOINTS)]
    cfg = DecoderConfig(upsample_factor=1)
    every = _score_every_limb(pafs, 1, keypoints, cfg)
    assert [[(c.from_kp, c.to_kp) for c in conns] for conns in every] == \
        [[(limb.from_kind, limb.to_kind)] for limb in LIMBS]
    assert every[0][0].affinity == pytest.approx(1.0)
    empty = [[] for _ in range(NUM_KEYPOINTS)]
    assert _score_every_limb(pafs, 4, empty, cfg) == [[] for _ in LIMBS]
    # A frame without peaks decodes to nothing.
    heat = FeatureMaps.zeros(NUM_HEATMAP_CHANNELS, 16, 16)
    assert decode(heat, pafs, identity_geometry(16, 16)) == []


def _candidate_rows(candidates_by_type):
    return [(c.limb.id, c.from_kp, c.to_kp, c.affinity.hex(), c.valid_ratio.hex())
            for cands in candidates_by_type for c in cands]


# sha256 of the candidate rows, computed with the per-limb scorer that the
# batched one replaced: (score_connections over every pair on upsampled PAFs,
# the candidate lists decode hands to group_limbs).
SCORER_DIGESTS = {
    1: ("3448e945e77858a35e59195478ccc6c8ad834a2e3f3fb28935e159b59a91caf0",
        "5eeafa580747736103fdec46563f913b776bcfbef92125d899dffb4e533f876b"),
    4: ("a0787331dffa5c05131160ecf60ae9a79c659e51ec399c9dcfcd8ece40de95fe",
        "13ec9aa385f0d853d14ecf31611b536048db36528814ad953312b30c066d5f55"),
    8: ("f249854d53fb505decc20fdbe38f3e4bf02be2d5b6d2762acaa92412813ddc91",
        "e6687926acf907985b9dfe6a6bf456b4b233284b27031304b5ecd5329af1377f"),
}


def _canonical_variants():
    """The canonical scene and three sigma=0.02 noisy variants of it."""
    sc = make_canonical_scenario()
    rng = np.random.default_rng(5)
    variants = [(sc.heatmaps, sc.pafs)]
    for _ in range(3):
        variants.append(tuple(FeatureMaps.from_planes(m.data + rng.normal(0.0, 0.02, m.data.shape))
                              for m in (sc.heatmaps, sc.pafs)))
    return sc, variants


@pytest.mark.parametrize("factor", sorted(SCORER_DIGESTS))
def test_scorer_bits_are_pinned(monkeypatch, factor):
    sc, variants = _canonical_variants()
    cfg = DecoderConfig(upsample_factor=factor)
    seen, score_pairs = [], posekit.decoder._score_pairs

    def spy(*args):
        # The candidate columns that pass greedy matching's filter, as the
        # rows _candidate_rows makes of LimbConnection lists.
        columns = score_pairs(*args)
        seen.append([(p, a, b, aff.hex(), ratio.hex())
                     for p, a, b, aff, ratio in zip(*(c.tolist() for c in columns))
                     if ratio >= cfg.min_valid_ratio and aff > 0.0])
        return columns

    monkeypatch.setattr(posekit.decoder, "_score_pairs", spy)
    scored, grouped = hashlib.sha256(), hashlib.sha256()
    for heat, paf in variants:
        up_paf = resize_bilinear(paf, factor)
        keypoints = extract_keypoints(resize_bilinear(heat, factor), cfg)
        every = [score_connections(up_paf, limb, keypoints[limb.from_kind],
                                   keypoints[limb.to_kind], cfg) for limb in LIMBS]
        scored.update(repr(_candidate_rows(every)).encode())
        seen.clear()
        decode(heat, paf, sc.geometry, cfg)
        (rows,) = seen
        grouped.update(repr(rows).encode())
    assert (scored.hexdigest(), grouped.hexdigest()) == SCORER_DIGESTS[factor]


def _skeleton_bits(skeletons):
    return [(sk.score.hex(), sk.num_keypoints,
             [None if kp is None else (kp.id, kp.kind, kp.x.hex(), kp.y.hex(), kp.score.hex())
              for kp in sk.keypoints]) for sk in skeletons]


# sha256 of decode's skeletons as _skeleton_bits, computed with the
# object-based grouping, assembly and map-back that the column code replaced.
# decode and the public stages share that code now, so comparing the two
# cannot catch a change in it. Factors 2 and 3 (odd factors put a cell's
# first row on a shared source sample) were computed on the assembly that kept
# a liveness flag and an order key, not on the code they now check.
DECODE_DIGESTS = {
    1: "5d5305c61e57ec1d14e77cad4329c208f3e7a90925465997b4962417619e4ae3",
    2: "0cde577f8a8b49eebe6de8069c3130b78547fc3e12e80ec3e4ba31aaa815091b",
    3: "412feb45374061b319d9268850155ffccbe5328b1ed0ae71f97b6eccc70bf1e6",
    4: "f3a574e566fc8b3e5969993e90148c0c3da3787f9f437e2fbde394c6746d07e7",
    8: "f6a56af2565c55e730b2bd02b64f7d9e8f6a473d840e49e04a65cad61a339ce7",
}


@pytest.mark.parametrize("factor", sorted(DECODE_DIGESTS))
def test_decode_bits_are_pinned(factor):
    sc, variants = _canonical_variants()
    digest = hashlib.sha256()
    for heat, paf in variants:
        skeletons = decode(heat, paf, sc.geometry, DecoderConfig(upsample_factor=factor))
        digest.update(repr(_skeleton_bits(skeletons)).encode())
    assert digest.hexdigest() == DECODE_DIGESTS[factor]


# sha256 of decode's skeletons as _skeleton_bits on three 3-person 46x82
# scenes from a 720x1280 image at 368: the one padded, non-identity map-back
# that perfbench's `wide` workload decodes through. Pinned with the factor 2
# and 3 digests above.
PADDED_GEOMETRY_DIGEST = "15e8824f038f20f02221d46856aac2e43e0077c140a8860362142c3bf11e2335"


def test_padded_geometry_decode_bits_are_pinned():
    geometry = compute_input_geometry(720, 1280, 368)
    size = (geometry.net_input_height // geometry.stride,
            geometry.net_input_width // geometry.stride)
    assert size == (46, 82)
    digest = hashlib.sha256()
    for seed in range(3):
        _, heat, paf = generate_scene(3, RenderConfig(*size, seed=seed))
        digest.update(repr(_skeleton_bits(decode(heat, paf, geometry))).encode())
    assert digest.hexdigest() == PADDED_GEOMETRY_DIGEST


# sha256 of decode's skeletons as _skeleton_bits on noisy scenes whose
# fragments merge with affinities that round differently when the merged sum
# is reassociated.
MERGE_DIGEST = "60551a522810fe12c4bc87e648ec7d84189e1369f1c935a5dc80f560b146e8cb"


def test_fragment_merge_bits_are_pinned():
    relaxed = DecoderConfig(min_valid_ratio=0.3, min_keypoints=1, min_skeleton_score=0.0)
    digest = hashlib.sha256()
    for seed in range(4):
        _, heat, paf = generate_scene(seed + 1, RenderConfig(32, 57, seed=seed))
        rng = np.random.default_rng(seed)
        noisy = [FeatureMaps.from_planes(m.data + rng.normal(0.0, 0.1, m.data.shape))
                 for m in (heat, paf)]
        for cfg in (DecoderConfig(), relaxed):
            skeletons = decode(*noisy, identity_geometry(32, 57), cfg)
            digest.update(repr(_skeleton_bits(skeletons)).encode())
    assert digest.hexdigest() == MERGE_DIGEST


# ---------------------------------------------------------------------------
# Greedy grouping
# ---------------------------------------------------------------------------

def _conn(limb, from_kp, to_kp, affinity, valid_ratio=1.0):
    return LimbConnection(limb=limb, from_kp=from_kp, to_kp=to_kp,
                          affinity=affinity, valid_ratio=valid_ratio)


def test_greedy_prefers_affinity_order_not_total():
    limb = LIMBS[0]
    cands = [_conn(limb, 0, 2, 0.9), _conn(limb, 0, 3, 0.8),
             _conn(limb, 1, 2, 0.7), _conn(limb, 1, 3, 0.1)]
    accepted = group_limbs([cands])
    # 0.9 wins, blocking the 0.8 + 0.7 pairing an optimal matcher would take.
    assert [(c.from_kp, c.to_kp, c.affinity) for c in accepted] == \
        [(0, 2, 0.9), (1, 3, 0.1)]


def test_grouping_drops_low_ratio_and_nonpositive_affinity():
    limb = LIMBS[0]
    cands = [_conn(limb, 0, 2, 0.9, valid_ratio=0.5),
             _conn(limb, 0, 3, 0.0),
             _conn(limb, 1, 2, -0.4)]
    assert group_limbs([cands]) == []


def test_grouping_tie_break_is_by_endpoint_ids():
    limb = LIMBS[0]
    cands = [_conn(limb, 1, 3, 0.5), _conn(limb, 0, 2, 0.5),
             _conn(limb, 0, 3, 0.5), _conn(limb, 1, 2, 0.5)]
    accepted = group_limbs([cands])
    assert [(c.from_kp, c.to_kp) for c in accepted] == [(0, 2), (1, 3)]


@pytest.mark.parametrize("field, value", [
    ("affinity", math.inf), ("affinity", math.nan),
    ("valid_ratio", 1.5), ("valid_ratio", -0.2), ("valid_ratio", math.nan),
    ("from_kp", 1.7), ("to_kp", True),
])
def test_group_limbs_rejects_a_candidate_it_cannot_match(field, value):
    # Unchecked, each would be matched, dropped without a word or truncated to an id.
    bad = replace(_conn(LIMBS[1], 1, 3, 0.5), **{field: value})
    with pytest.raises(ValueError, match="candidate 1 of limb type list 1 has"):
        group_limbs([[_conn(LIMBS[0], 0, 2, 0.5)], [_conn(LIMBS[1], 0, 4, 0.5), bad]])


@settings(max_examples=60)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_group_limbs_matches_independent_oracle(seed):
    rng = np.random.default_rng(seed)
    candidates_by_type = []
    cfg = DecoderConfig()
    for limb in LIMBS[:4]:
        n_a, n_b = int(rng.integers(0, 6)), int(rng.integers(0, 6))
        cands = [
            _conn(limb, a, 100 + b, float(np.round(rng.uniform(-0.2, 1.0), 3)),
                  valid_ratio=float(rng.choice([0.6, 0.8, 1.0])))
            for a in range(n_a) for b in range(n_b)
        ]
        candidates_by_type.append(cands)
    assert group_limbs(candidates_by_type, cfg) == _naive_match(candidates_by_type, cfg)


@settings(max_examples=30)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_group_limbs_is_order_insensitive(seed):
    rng = np.random.default_rng(seed)
    limb = LIMBS[2]
    cands = [_conn(limb, a, 10 + b, float(np.round(rng.uniform(0.01, 1.0), 3)))
             for a in range(4) for b in range(4)]
    baseline = group_limbs([list(cands)])
    shuffled = list(cands)
    rng.shuffle(shuffled)
    assert group_limbs([shuffled]) == baseline


# ---------------------------------------------------------------------------
# Skeleton assembly
# ---------------------------------------------------------------------------

def _limb_for(from_kind, to_kind):
    for limb in LIMBS:
        if (limb.from_kind, limb.to_kind) == (from_kind, to_kind):
            return limb
    raise AssertionError(f"no limb {from_kind}->{to_kind}")


def test_assembly_chains_connections_into_one_skeleton():
    # Forward, each connection's free point is its `to` end; reversed, each
    # later connection's free point is its `from` end, which joins the
    # skeleton that owns the `to` end.
    kps = [_kp(0, 1, 10, 10), _kp(1, 2, 8, 10), _kp(2, 3, 8, 14), _kp(3, 4, 8, 18)]
    conns = [_conn(_limb_for(1, 2), 0, 1, 0.9),
             _conn(_limb_for(2, 3), 1, 2, 0.8),
             _conn(_limb_for(3, 4), 2, 3, 0.7)]
    cfg = DecoderConfig(min_keypoints=3, min_skeleton_score=0.0)
    for order in (conns, conns[::-1]):
        skeletons = assemble_skeletons(order, [kps], cfg)
        assert len(skeletons) == 1
        sk = skeletons[0]
        assert sk.num_keypoints == 4
        assert sk.keypoint(3) is kps[2]
        assert sk.slot_pattern() == tuple(k in (1, 2, 3, 4) for k in range(NUM_KEYPOINTS))
        assert sk.score == pytest.approx((4 * 1.0 + 0.9 + 0.8 + 0.7) / 4)


def test_assembly_merges_disjoint_fragments():
    kps = [_kp(0, 1, 10, 10), _kp(1, 2, 8, 10), _kp(2, 3, 8, 14), _kp(3, 4, 8, 18)]
    conns = [_conn(_limb_for(1, 2), 0, 1, 0.9),   # fragment A: kinds {1, 2}
             _conn(_limb_for(3, 4), 2, 3, 0.7),   # fragment B: kinds {3, 4}
             _conn(_limb_for(2, 3), 1, 2, 0.8)]   # bridges A and B
    cfg = DecoderConfig(min_keypoints=4, min_skeleton_score=0.0)
    skeletons = assemble_skeletons(conns, [kps], cfg)
    assert len(skeletons) == 1
    assert skeletons[0].num_keypoints == 4


def test_assembly_attaches_to_a_merged_fragment():
    # After the bridge merges fragment B into A, B's points belong to A: a
    # later connection from one of them grows the merged skeleton.
    kps = [_kp(0, 1, 10, 10), _kp(1, 2, 8, 10), _kp(2, 3, 8, 14), _kp(3, 4, 8, 18),
           _kp(4, 5, 8, 22)]
    conns = [_conn(_limb_for(1, 2), 0, 1, 0.9),
             _conn(_limb_for(3, 4), 2, 3, 0.7),
             _conn(_limb_for(2, 3), 1, 2, 0.8),   # merges B {3, 4} into A {1, 2}
             _conn(_limb_for(3, 4), 3, 4, 0.6)]   # from B's kind-4 point
    cfg = DecoderConfig(min_keypoints=1, min_skeleton_score=0.0)
    (skeleton,) = assemble_skeletons(conns, [kps], cfg)
    assert skeleton.num_keypoints == 5
    assert skeleton.keypoint(5) is kps[4]


def test_assembly_drops_conflicting_merge():
    # Two fragments both own a kind-2 keypoint; the bridging connection
    # cannot merge them and is discarded.
    kps = [_kp(0, 1, 10, 10), _kp(1, 2, 8, 10),
           _kp(2, 2, 30, 10), _kp(3, 3, 30, 14)]
    conns = [_conn(_limb_for(1, 2), 0, 1, 0.9),
             _conn(_limb_for(2, 3), 2, 3, 0.8),
             _conn(_limb_for(2, 3), 1, 3, 0.5)]  # endpoint 3 already taken
    cfg = DecoderConfig(min_keypoints=2, min_skeleton_score=0.0)
    skeletons = assemble_skeletons(conns, [kps], cfg)
    assert len(skeletons) == 2
    assert {sk.num_keypoints for sk in skeletons} == {2}


@pytest.mark.parametrize("free_end", ["to", "from"])
def test_assembly_drops_an_attach_to_a_taken_slot(free_end):
    # The skeleton {0, 1} holds kinds 1 and 2, so the free point 2, of kind 2
    # (free `to` end) or kind 1 (free `from` end), cannot join it: the
    # connection and its affinity are dropped.
    kps = [_kp(0, 1, 10, 10), _kp(1, 2, 8, 10), _kp(2, 2 if free_end == "to" else 1, 30, 10)]
    extra = _conn(_limb_for(1, 2), 0, 2, 0.5) if free_end == "to" else \
        _conn(_limb_for(1, 2), 2, 1, 0.5)
    conns = [_conn(_limb_for(1, 2), 0, 1, 0.75), extra]
    cfg = DecoderConfig(min_keypoints=1, min_skeleton_score=0.0)
    (skeleton,) = assemble_skeletons(conns, [kps], cfg)
    assert [kp.id for kp in skeleton.keypoints if kp is not None] == [0, 1]
    assert skeleton.score == (2 * 1.0 + 0.75) / 2


def test_assembly_counts_a_redundant_edge_inside_one_skeleton():
    # The shoulder-to-ear link closes the cycle neck-shoulder-ear-eye-nose.
    kinds = (1, 2, 0, 14, 16)
    kps = [_kp(i, k, 10 + i, 10) for i, k in enumerate(kinds)]
    conns = [_conn(_limb_for(1, 2), 0, 1, 0.5), _conn(_limb_for(1, 0), 0, 2, 0.25),
             _conn(_limb_for(0, 14), 2, 3, 0.125), _conn(_limb_for(14, 16), 3, 4, 0.0625),
             _conn(_limb_for(2, 16), 1, 4, 0.5)]  # both ends already in the skeleton
    cfg = DecoderConfig(min_keypoints=1, min_skeleton_score=0.0)
    (skeleton,) = assemble_skeletons(conns, [kps], cfg)
    assert skeleton.num_keypoints == 5
    assert skeleton.score == (5 * 1.0 + 0.5 + 0.25 + 0.125 + 0.0625 + 0.5) / 5


def test_assembly_joins_two_free_points_of_one_kind_into_one_point():
    # Only a caller-built limb joins two points of one kind: the second
    # cannot take the slot, and the skeleton keeps the first and the affinity.
    limb = LimbType(id=0, from_kind=3, to_kind=3, paf_x_channel=0, paf_y_channel=1)
    kps = [_kp(0, 3, 10, 10), _kp(1, 3, 20, 10)]
    cfg = DecoderConfig(min_keypoints=1, min_skeleton_score=0.0)
    (skeleton,) = assemble_skeletons([_conn(limb, 0, 1, 0.5)], [kps], cfg)
    assert skeleton.keypoint(3) is kps[0]
    assert skeleton.num_keypoints == 1
    assert skeleton.score == 1.0 + 0.5


def test_assembly_filters_small_and_low_score():
    kps = [_kp(0, 1, 10, 10), _kp(1, 2, 8, 10)]
    conns = [_conn(_limb_for(1, 2), 0, 1, 0.9)]
    assert assemble_skeletons(conns, [kps], DecoderConfig(min_keypoints=3)) == []
    high_bar = DecoderConfig(min_keypoints=2, min_skeleton_score=10.0)
    assert assemble_skeletons(conns, [kps], high_bar) == []


def test_assembly_orders_by_score():
    kps = [_kp(0, 1, 1, 1), _kp(1, 2, 2, 2), _kp(2, 1, 20, 20), _kp(3, 2, 21, 21)]
    conns = [_conn(_limb_for(1, 2), 0, 1, 0.2), _conn(_limb_for(1, 2), 2, 3, 0.9)]
    cfg = DecoderConfig(min_keypoints=2, min_skeleton_score=0.0)
    scores = [sk.score for sk in assemble_skeletons(conns, [kps], cfg)]
    assert scores == sorted(scores, reverse=True)
    # Exact ties keep creation order, also after a merge removed an earlier
    # fragment: A {3, 4} is created first, B, C and D {1, 2} after it; the
    # bridge from B's kind 2 to A's kind 3 folds A into B. B, C and D then
    # all score 1.25 and come out in creation order.
    kps = [_kp(0, 3, 8, 14), _kp(1, 4, 8, 18)] + \
        [_kp(2 + i, 1 + i % 2, 20 * (i // 2), 10) for i in range(6)]
    conns = [_conn(_limb_for(3, 4), 0, 1, 0.25),
             _conn(_limb_for(1, 2), 2, 3, 0.25),
             _conn(_limb_for(1, 2), 4, 5, 0.5),
             _conn(_limb_for(1, 2), 6, 7, 0.5),
             _conn(_limb_for(2, 3), 3, 0, 0.5)]
    skeletons = assemble_skeletons(conns, [kps], cfg)
    assert [sk.score for sk in skeletons] == [1.25] * 3
    assert [[kp.id for kp in sk.keypoints if kp is not None] for sk in skeletons] == \
        [[2, 3, 0, 1], [4, 5], [6, 7]]


def test_assembly_rejects_a_non_finite_keypoint():
    # A NaN score would pass min_skeleton_score (nan < x is False) and give a
    # skeleton of score NaN, which no pose document can hold.
    kps = [Keypoint(0, 0, 1.0, 1.0, math.nan), Keypoint(1, 1, 2.0, 2.0, 1.0)]
    conns = [_conn(_limb_for(1, 0), 1, 0, 0.5)]
    with pytest.raises(ValueError, match="keypoint 0 has a non-finite x, y or score"):
        assemble_skeletons(conns, [kps], DecoderConfig(min_keypoints=1))
    for field in ("x", "y"):
        kps = [_kp(0, 1, 10, 10), replace(_kp(1, 2, 8, 10), **{field: math.inf})]
        with pytest.raises(ValueError, match="keypoint 1 has a non-finite"):
            assemble_skeletons([_conn(_limb_for(1, 2), 0, 1, 0.5)], [kps])


def test_assembly_rejects_a_connection_to_an_unknown_id():
    kps = [_kp(0, 1, 10, 10), _kp(1, 2, 8, 10)]
    with pytest.raises(ValueError, match="connection end 7 is not a given keypoint id"):
        assemble_skeletons([_conn(_limb_for(1, 2), 0, 7, 0.5)], [kps])


def test_assembly_rejects_an_id_given_twice():
    # Across two lists, too: the second would silently replace the first.
    kps = [_kp(0, 1, 10, 10), _kp(1, 2, 8, 10)]
    with pytest.raises(ValueError, match="keypoint id 1 is given twice"):
        assemble_skeletons([_conn(_limb_for(1, 2), 0, 1, 0.5)], [kps, [_kp(1, 2, 30, 10)]])


@pytest.mark.parametrize("kind", [-1, NUM_KEYPOINTS])
def test_assembly_rejects_a_kind_out_of_range(kind):
    # Kind -1 would land in the last slot, l_ear.
    kps = [_kp(0, 1, 10, 10), _kp(1, kind, 8, 10)]
    with pytest.raises(ValueError, match=f"keypoint 1 has kind {kind}, not in 0..17"):
        assemble_skeletons([_conn(_limb_for(1, 2), 0, 1, 0.5)], [kps])


@st.composite
def _assembly_inputs(draw):
    """Points drawn from 2 to 18 kinds, so slots collide more or less often,
    and connections among them: new fragments, attaches, taken slots,
    redundant edges, merges that hold or conflict, same-kind pairs and a
    point joined to itself."""
    n = draw(st.integers(2, 16))
    kinds = draw(st.lists(st.integers(0, draw(st.integers(1, NUM_KEYPOINTS - 1))),
                          min_size=n, max_size=n))
    # Mostly uniform doubles, whose sums round, so two summation orders
    # differ; the small floats Hypothesis favours would add exactly. Some
    # simple values stay, for -0.0; one draw in four has only those, whose
    # sums are exact, so skeleton scores tie and their order shows.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    simple = st.sampled_from(([] if draw(st.integers(0, 3)) == 0 else [None] * 7)
                             + [-0.0, 0.5, 1.0])

    def value():
        v = draw(simple)
        return float(rng.uniform(-1.0, 2.0)) if v is None else v

    scores = [value() for _ in range(n)]
    # Disjoint pairs first, so later connections meet several fragments.
    pairs = draw(st.permutations([(2 * i, 2 * i + 1) for i in range(n // 2)]))
    ends = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40))
    connections = [(f, t, value()) for f, t in pairs + ends]
    cfg = DecoderConfig(min_keypoints=draw(st.integers(1, 4)),
                        min_skeleton_score=draw(st.sampled_from([-1.0, 0.0, 0.2, 1.0])))
    return connections, kinds, scores, cfg


@settings(max_examples=500, deadline=None)
@given(inputs=_assembly_inputs())
def test_assemble_matches_the_naive_assembler(inputs):
    # Same skeletons in the same order, and the same score bits: both add in
    # the order README step 4 states.
    connections, kinds, scores, cfg = inputs
    got = posekit.decoder._assemble(iter(connections), kinds, scores, cfg)
    want = _naive_assemble(iter(connections), kinds, scores, cfg)
    assert [(slots, total.hex(), count) for slots, total, count in got] == \
        [(slots, total.hex(), count) for slots, total, count in want]


def test_a_merge_adds_the_absorbed_affinity_sum_and_its_own_as_one_term():
    # 1 + (2**-53 + 2**-53) keeps a bit that (1 + 2**-53) + 2**-53 rounds away.
    tiny, cfg = 2.0 ** -53, DecoderConfig(min_keypoints=1, min_skeleton_score=-1.0)
    for assemble in (posekit.decoder._assemble, _naive_assemble):
        [(slots, total, count)] = assemble([(0, 1, 1.0), (2, 3, tiny), (1, 2, tiny)],
                                           range(4), [0.0] * 4, cfg)
        assert (slots[:5], total.hex(), count) == ([0, 1, 2, 3, -1], (0.25 + tiny / 2).hex(), 4)


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------

def test_decode_three_person_scene_exactly():
    cfg = RenderConfig(map_height=32, map_width=57, seed=7)
    persons, heatmaps, pafs = generate_scene(3, cfg)
    geometry = identity_geometry(32, 57)
    skeletons = decode(heatmaps, pafs, geometry)
    assert len(skeletons) == 3
    stride = geometry.stride
    for person in persons:
        for kind, pos in enumerate(person.keypoints):
            if pos is None:
                continue
            expected = (pos[0] * stride + stride / 2 - 0.5,
                        pos[1] * stride + stride / 2 - 0.5)
            candidates = [sk.keypoint(kind) for sk in skeletons
                          if sk.keypoint(kind) is not None]
            err = min(max(abs(kp.x - expected[0]), abs(kp.y - expected[1]))
                      for kp in candidates)
            assert err <= 0.5  # original-image pixels


def test_decode_keypoint_ids_partition_across_skeletons():
    _, heatmaps, pafs = generate_scene(5, RenderConfig(32, 57, seed=11))
    skeletons = decode(heatmaps, pafs, identity_geometry(32, 57))
    ids = [kp.id for sk in skeletons for kp in sk.keypoints if kp is not None]
    assert len(ids) == len(set(ids))
    for sk in skeletons:
        assert sk.num_keypoints == sum(1 for kp in sk.keypoints if kp is not None)
        assert sk.num_keypoints >= DecoderConfig().min_keypoints


def test_decode_thread_counts_are_bit_identical():
    _, heatmaps, pafs = generate_scene(6, RenderConfig(32, 57, seed=13))
    geometry = identity_geometry(32, 57)
    with pytest.warns(DeprecationWarning):
        assert decode(heatmaps, pafs, geometry, threads=1) == \
            decode(heatmaps, pafs, geometry, threads=4)


def test_threads_is_deprecated_and_changes_nothing():
    _, heatmaps, pafs = generate_scene(3, RenderConfig(32, 57, seed=13))
    geometry = identity_geometry(32, 57)
    up = resize_bilinear(heatmaps, 4)
    calls = [lambda **kw: decode(heatmaps, pafs, geometry, **kw),
             lambda **kw: extract_keypoints(up, **kw)]
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plain = call()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert call(threads=2) == plain
        assert [w.category for w in caught] == [DeprecationWarning]
        assert caught[0].filename == __file__  # attributed to the caller
        with pytest.raises(ValueError, match="threads must be >= 0, got -1"):
            call(threads=-1)


def test_decode_validates_shapes():
    geometry = identity_geometry(16, 16)
    heat = FeatureMaps.zeros(NUM_HEATMAP_CHANNELS, 16, 16)
    pafs = FeatureMaps.zeros(NUM_PAF_CHANNELS, 16, 16)
    with pytest.raises(DimensionMismatchError):
        decode(FeatureMaps.zeros(7, 16, 16), pafs, geometry)
    with pytest.raises(DimensionMismatchError):
        decode(heat, FeatureMaps.zeros(4, 16, 16), geometry)
    with pytest.raises(DimensionMismatchError):
        decode(heat, FeatureMaps.zeros(NUM_PAF_CHANNELS, 8, 16), geometry)
    with pytest.raises(DimensionMismatchError):
        decode(heat, pafs, identity_geometry(8, 8))


def test_decoder_config_validation():
    bad = [
        {"upsample_factor": 0}, {"upsample_factor": True}, {"upsample_factor": 2.0},
        {"upsample_factor": 2.5}, {"paf_sample_count": 1}, {"paf_sample_count": 2.5},
        {"min_valid_ratio": 1.5}, {"min_keypoints": 0}, {"min_keypoints": 3.0},
        {"peak_threshold": math.nan}, {"paf_alignment_threshold": math.nan},
        {"min_skeleton_score": math.nan}, {"peak_threshold": math.inf},
        # True thresholded as 1.0; a string raised TypeError.
        {"peak_threshold": True}, {"peak_threshold": "0.1"}, {"min_valid_ratio": "0.8"},
        {"paf_alignment_threshold": np.bool_(False)}, {"min_skeleton_score": 10**400},
    ]
    for kwargs in bad:
        with pytest.raises(ValueError):
            DecoderConfig(**kwargs)
    # NumPy integers are integers, for the config as for resize_bilinear, and
    # the config keeps them as int.
    cfg = DecoderConfig(upsample_factor=np.int64(2), paf_sample_count=np.int32(5))
    assert [type(v) for v in (cfg.upsample_factor, cfg.paf_sample_count)] == [int, int]
    assert cfg == DecoderConfig(upsample_factor=2, paf_sample_count=5)
    # NumPy reals are kept as float, with the same value.
    cfg = DecoderConfig(peak_threshold=np.float32(0.2), min_valid_ratio=np.float64(0.5),
                        paf_alignment_threshold=np.int8(0), min_skeleton_score=1)
    assert cfg.peak_threshold == np.float32(0.2)
    assert [type(getattr(cfg, name)) for name in ("peak_threshold", "paf_alignment_threshold",
                                                  "min_valid_ratio", "min_skeleton_score")] \
        == [float] * 4


def test_decode_rejects_non_finite_maps():
    _, heatmaps, pafs = generate_scene(3, RenderConfig(32, 57, seed=7))
    geometry = identity_geometry(32, 57)
    heat = heatmaps.data.copy()
    heat[4, 10, 20] = np.inf
    paf = pafs.data.copy()
    paf[LIMBS[0].paf_x_channel, 5, 5] = np.nan
    with pytest.raises(ValueError, match="finite"):
        decode(FeatureMaps(heat), pafs, geometry)
    with pytest.raises(ValueError, match="finite"):
        decode(heatmaps, FeatureMaps(paf), geometry)


def test_maps_at_the_value_bound_resize_and_decode_without_warnings():
    # FeatureMaps accepts the largest float32 below 2**127 of either sign,
    # and the resize's b - a of two such values stays finite.
    big = np.nextafter(np.float32(2.0 ** 127), np.float32(0.0))
    _, heatmaps, pafs = generate_scene(3, RenderConfig(32, 57, seed=7))
    heat = np.where(heatmaps.data > 0.5, big, -big).astype(np.float32)
    heat[:, 10, 10] = big
    paf = (np.sign(pafs.data) * big).astype(np.float32)
    heat, paf = FeatureMaps(heat), FeatureMaps(paf)
    geometry = identity_geometry(32, 57)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for factor in (2, 3, 4, 8):
            for maps in (heat, paf):
                up = resize_bilinear(maps, factor).data
                assert up.min() == -big and up.max() == big
            assert decode(heat, paf, geometry, DecoderConfig(upsample_factor=factor))


@pytest.mark.parametrize("dtype", [np.float64, np.int32])
def test_decode_rejects_maps_that_are_not_float32(dtype):
    # decode would round float64 data to float32 before interpolating, where
    # the dense resize interpolates in float64; a noisy scene then decodes
    # to other keypoints than the public stages give.
    _, heatmaps, pafs = generate_scene(3, RenderConfig(32, 57, seed=7))
    geometry = identity_geometry(32, 57)
    rng = np.random.default_rng(1)
    heat, paf = ((m.data + rng.normal(0.0, 0.02, m.data.shape)).astype(dtype)
                 for m in (heatmaps, pafs))
    with pytest.raises(ValueError, match="float32"):
        decode(FeatureMaps(heat), pafs, geometry)
    with pytest.raises(ValueError, match="float32"):
        decode(heatmaps, FeatureMaps(paf), geometry)


def test_decode_never_upsamples_the_paf_stack(monkeypatch):
    # Nor the heatmap stack: decode resizes no stack at all.
    resized, resize = [], posekit.featuremaps._resize_planes
    monkeypatch.setattr(posekit.featuremaps, "_resize_planes",
                        lambda src, *args, **kwargs: resized.append(src.shape)
                        or resize(src, *args, **kwargs))
    geometry = compute_input_geometry(720, 1280, 368)
    _, heatmaps, pafs = generate_scene(3, RenderConfig(46, 82, seed=7))
    for factor in (4, 8):
        # Decode keeps nothing between calls, so every allocation a call
        # makes counts.
        tracemalloc.start()
        try:
            result = decode(heatmaps, pafs, geometry, DecoderConfig(upsample_factor=factor))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result) == 3
        assert resized == []
        # Everything decode holds at once stays below one upsampled stack of
        # the keypoint channels.
        assert peak < NUM_KEYPOINTS * (46 * factor) * (82 * factor) * 4


def _peak_bits(keypoints):
    return [(kp.id, kp.kind, kp.x.hex(), kp.y.hex(), kp.score.hex())
            for bucket in keypoints for kp in bucket]


def _dense_peak_pixels(up, threshold):
    """Where the peaks of a dense upsample's keypoint planes sit, as (kind,
    y, x): the peak rule written out on shifted views of the whole planes."""
    planes = up[:BACKGROUND_CHANNEL]
    _, height, width = planes.shape
    center = planes[:, 1:-1, 1:-1]
    mask = center > np.float32(threshold)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy or dx:
                other = planes[:, 1 + dy:height - 1 + dy, 1 + dx:width - 1 + dx]
                # Earlier neighbors in scan order must be strictly smaller.
                mask &= (center > other) if (dy, dx) < (0, 0) else (center >= other)
    kind, y, x = np.nonzero(mask)
    return kind, y + 1, x + 1


def _hot_cell_peaks(heat, cfg):
    """``decode``'s cell filter, resize and extract stages, checked sample by
    sample against the dense upsample; returns the peaks as bits, and which
    pixels of the upsample are kept cells' own samples (None at factor 1)."""
    up = resize_bilinear(FeatureMaps(heat), cfg.upsample_factor).data
    dense_peaks = _dense_peak_pixels(up, cfg.peak_threshold)
    cells = posekit.decoder._peak_cells(heat, cfg)
    blocks = posekit.decoder._cell_blocks(cells, cfg.upsample_factor)
    own = None
    if blocks is not None:
        kind, top, left, v = blocks
        assert (np.diff(cells[1]) > 0).all()
        height, width = up.shape[1:]
        i, j, n = np.indices(v.shape)
        kind, y, x = kind[n], top[n] + i, left[n] + j
        inside = (y >= 0) & (y < height) & (x >= 0) & (x < width)
        # Every block sample inside the map, ring included, is the dense
        # upsample's, whether its cell is kept, dropped or cold.
        np.testing.assert_array_equal(v[inside].view(np.uint32),
                                      up[kind[inside], y[inside], x[inside]].view(np.uint32))
        # No two kept cells share an own sample, and every peak of the dense
        # upsample is one.
        mine = inside & (i > 0) & (i < v.shape[0] - 1) & (j > 0) & (j < v.shape[1] - 1)
        own = np.zeros(up.shape, dtype=bool)
        own[kind[mine], y[mine], x[mine]] = True
        assert own.sum() == mine.sum()
        assert own[dense_peaks].all()
    kind, x, y, score = (c.tolist() for c in posekit.decoder._block_peaks(FeatureMaps(heat),
                                                                          blocks, cfg))
    # A peak's id is its row.
    got = [(row, k, px.hex(), py.hex(), s.hex())
           for row, (k, px, py, s) in enumerate(zip(kind, x, y, score))]
    assert got == _peak_bits(extract_keypoints(FeatureMaps(up), cfg))
    assert len(got) == dense_peaks[0].size
    return got, own


@settings(max_examples=150, deadline=None)
@example(seed=1, kind="edge_zero", h=5, w=7, factor=3, threshold=-0.05)
@example(seed=2, kind="edge_zero", h=6, w=4, factor=4, threshold=0.0)
@example(seed=3, kind="edge_zero", h=1, w=6, factor=3, threshold=-0.05)
@example(seed=4, kind="near", h=23, w=31, factor=4, threshold=0.1)
@example(seed=5, kind="spikes", h=9, w=7, factor=4, threshold=0.1)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       kind=st.sampled_from(["noise", "plateau", "spikes", "near", "edge_zero"]),
       h=st.sampled_from([1, 2, 3, 5, 9, 23]),
       w=st.sampled_from([1, 2, 3, 7, 9, 31]),
       factor=st.integers(min_value=1, max_value=8),
       threshold=st.sampled_from([0.1, 0.0, -0.05, 0.5]))
def test_hot_cell_peaks_match_the_dense_upsample(seed, kind, h, w, factor, threshold):
    rng = np.random.default_rng(seed)
    shape = (NUM_HEATMAP_CHANNELS, h, w)
    t32 = np.float32(threshold)
    if kind == "noise":
        data = rng.uniform(-0.2, 1.0, size=shape)
    elif kind == "plateau":
        data = rng.integers(-1, 3, size=shape) / 4.0  # many equal neighbors
    elif kind == "spikes":
        # Isolated source samples above the threshold: cells with a single
        # hot corner.
        data = np.where(rng.random(shape) < 0.1, rng.uniform(0.6, 1.0, shape), -0.2)
    elif kind == "near":
        # Within a few ulps of the float32 threshold, on either side.
        steps = rng.integers(-3, 4, size=shape)
        data = t32 + steps * np.spacing(np.float32(max(abs(threshold), 0.1)))
        data = np.where(rng.random(shape) < 0.3, t32 - rng.random(shape), data)
    else:
        # Negative maps with -0.0 planted on the edge: the resize copies
        # clamped edge samples, so a peak there keeps the sign of its zero.
        data = -rng.uniform(0.1, 1.0, size=shape)
        edge = np.zeros((h, w), dtype=bool)
        edge[[0, -1], :] = edge[:, [0, -1]] = True
        data[:, edge & (rng.random((h, w)) < 0.5)] = -0.0
    heat = np.ascontiguousarray(data, dtype=np.float32)
    _hot_cell_peaks(heat, DecoderConfig(upsample_factor=factor, peak_threshold=threshold))


@pytest.mark.parametrize("factor", [2, 3, 4, 8])
def test_hot_cell_peaks_keep_a_negative_zero_score(factor):
    # A -0.0 source corner whose copies reach the last interior row and
    # column is a peak under a negative threshold.
    heat = np.full((NUM_HEATMAP_CHANNELS, 5, 6), -1.0, dtype=np.float32)
    heat[:, -1, -1] = heat[:, 0, 0] = -0.0
    got, _ = _hot_cell_peaks(heat, DecoderConfig(upsample_factor=factor, peak_threshold=-0.5))
    if factor > 2:
        assert len(got) == NUM_KEYPOINTS and {p[4] for p in got} == {"-0x0.0p+0"}


@pytest.mark.parametrize("factor", [2, 3, 4, 5, 8])
def test_hot_cell_peaks_next_to_cold_cells(factor):
    # One spike on a flat background under a threshold just above it: the
    # hot cells' samples above the threshold reach their edges, next to
    # cold cells on every side. At odd factors a cell's first row and
    # column lie on source samples it shares with the cold cells before it,
    # so only its last row and column can.
    heat = np.full((NUM_HEATMAP_CHANNELS, 7, 8), -1.0, dtype=np.float32)
    heat[:, 3, 4] = 1.0
    cfg = DecoderConfig(upsample_factor=factor, peak_threshold=-0.999)
    got, hot = _hot_cell_peaks(heat, cfg)
    assert len(got) == NUM_KEYPOINTS
    above = resize_bilinear(FeatureMaps(heat), factor).data > np.float32(-0.999)
    for axis in (1, 2):
        for step in (1, -1) if factor % 2 == 0 else (1,):
            # An above-threshold own sample whose neighbor ``step`` away is cold.
            assert (above & hot & ~np.roll(hot, -step, axis)).any()


@pytest.mark.parametrize("factor", [2, 3, 4, 5, 8])
def test_hot_cell_peaks_under_a_cold_cell_with_a_hot_one_above_left(factor):
    # Spikes at source (2, 2) and (3, 4) make cell (3, 4) hot, the cell
    # above it, (2, 4), cold and the one above-left, (2, 3), hot; the
    # diagonal neighbor of cell (3, 4)'s first sample is above the threshold.
    heat = np.full((NUM_HEATMAP_CHANNELS, 7, 8), -1.0, dtype=np.float32)
    heat[:, 2, 2] = heat[:, 3, 4] = 1.0
    cfg = DecoderConfig(upsample_factor=factor, peak_threshold=-0.999)
    _, hot = _hot_cell_peaks(heat, cfg)
    hot = hot[:NUM_KEYPOINTS]
    y, x = (np.array([3, 4]) * factor - (factor + 1) // 2).tolist()
    assert hot[:, y, x].all() and not hot[:, y - 1, x].any() and hot[:, y - 1, x - 1].all()
    up = resize_bilinear(FeatureMaps(heat), factor).data
    assert (up[:, y - 1, x - 1] > np.float32(-0.999)).all()


@pytest.mark.parametrize("factor", [2, 3, 4, 5, 8])
@pytest.mark.parametrize("h, w", [(1, 1), (1, 6), (7, 1), (2, 2), (2, 5), (6, 2), (5, 8)])
def test_hot_cell_samples_are_the_dense_resize_bits(h, w, factor):
    # Every cell is hot, and the resize stage gets every cell, kept or not.
    # Inner cells take the resize body's phase weights; edge cells copy
    # their edge sample, whose -0.0 a weighted sum with a positive weight
    # would turn into +0.0.
    rng = np.random.default_rng([h, w, factor])
    heat = rng.uniform(-1.0, 1.0, (NUM_HEATMAP_CHANNELS, h, w)).astype(np.float32)
    edge = np.zeros((h, w), dtype=bool)
    edge[[0, -1], :] = edge[:, [0, -1]] = True
    heat[edge & (rng.random(heat.shape) < 0.5)] = -0.0
    cfg = DecoderConfig(upsample_factor=factor, peak_threshold=-2.0)
    padded, kept = posekit.decoder._peak_cells(heat, cfg)
    # Cell (kind, a, b) is the position of its 4x4 source neighbourhood's
    # first sample in the padded stack.
    cell = np.ravel_multi_index(np.indices((BACKGROUND_CHANNEL, h + 1, w + 1)),
                                padded.shape).reshape(-1)
    assert np.isin(kept, cell).all()
    kind, top, left, v = posekit.decoder._cell_blocks((padded, cell), factor)
    i, j, n = np.indices(v.shape)
    kind, y, x = kind[n], top[n] + i, left[n] + j
    inside = (y >= 0) & (y < h * factor) & (x >= 0) & (x < w * factor)
    dense = posekit.featuremaps._resize_planes(heat, factor)
    assert (dense[:BACKGROUND_CHANNEL].view(np.uint32) == np.float32(-0.0).view(np.uint32)).any()
    np.testing.assert_array_equal(v[inside].view(np.uint32),
                                  dense[kind[inside], y[inside], x[inside]].view(np.uint32))


@settings(max_examples=300)
@given(corners=st.lists(st.floats(min_value=-1.0, max_value=1.0, width=32),
                        min_size=4, max_size=4),
       scale=st.sampled_from([2.0 ** e for e in (-140, -126, -20, 0, 20, 126)]),
       wx=st.floats(min_value=0.0, max_value=1.0, exclude_max=True, width=32),
       wy=st.floats(min_value=0.0, max_value=1.0, exclude_max=True, width=32))
def test_hot_margin_bounds_the_resize_rounding(corners, scale, wx, wy):
    # The two resize passes over four corners, in the resize's float32 steps.
    a, b, c, d = (np.float32(v * scale) for v in corners)
    wx, wy = np.float32(wx), np.float32(wy)
    top = (b - a) * wx + a
    bottom = (d - c) * wx + c
    value = float((bottom - top) * wy + top)
    exact = [float(v) for v in (a, b, c, d)]
    big = max(abs(v) for v in exact)
    # The docstring's bound: within 10Mu(1 + 6u) of the corners' range,
    # and the margin leaves room for it three times over.
    u = 2.0 ** -24
    slack = 10.0 * big * u * (1.0 + 6.0 * u) + 2.0 ** -149 * 8
    assert min(exact) - slack <= value <= max(exact) + slack
    assert posekit.decoder._hot_margin(big) >= 3.0 * slack


def _just_over(base: np.float32, delta: float) -> np.float32:
    """The smallest float32 that exceeds ``base`` by more than ``delta``, exactly."""
    def rises(value):
        return Fraction(float(value)) - Fraction(float(base)) > Fraction(delta)

    value = np.float32(float(base) + delta)
    while not rises(value):
        value = np.nextafter(value, np.float32(np.inf))
    while rises(np.nextafter(value, np.float32(-np.inf))):
        value = np.nextafter(value, np.float32(-np.inf))
    return value


@settings(max_examples=300)
@given(starts=st.lists(st.floats(min_value=-1.0, max_value=1.0, width=32),
                       min_size=2, max_size=2),
       scale=st.sampled_from([2.0 ** e for e in (-140, -126, -20, 0, 20, 126)]),
       factor=st.integers(min_value=2, max_value=8),
       columns=st.booleans())
def test_slope_prune_bound_leaves_no_peak_in_a_dropped_cell(starts, scale, factor, columns):
    # Two corner rows (or, transposed, columns) that each rise by just over
    # delta = 8 * f * _hot_margin(M) through two adjacent source intervals,
    # for a bound M on every value: the float32 samples rise strictly
    # through the cell between the first two sources and into the next
    # cell, on every row, so the cell holds no peak. Negation is exact in
    # float32, so falling rows are the same case mirrored.
    u = 2.0 ** -24
    first = [np.float32(v * scale) for v in starts]
    grow = 2 * 8 * factor * 32 * u
    # Rounding each rise up to float32 adds at most an ulp twice.
    bound = (max(abs(float(v)) for v in first) * (1.0 + 2.0 ** -20) + grow) / (1.0 - grow)
    delta = 8 * factor * posekit.decoder._hot_margin(bound)
    rows = []
    for value in first:
        line = [value]
        for _ in range(2):
            line.append(_just_over(line[-1], delta))
        rows.append(line)
    src = np.array(rows, dtype=np.float32)
    assert np.abs(src).max() <= bound
    up = posekit.featuremaps._resize_planes((src.T if columns else src)[None], factor)[0]
    up = up.T if columns else up
    # Cell 1 starts at sample f // 2; the next cell's first sample closes the run.
    run = up[:, factor // 2:factor // 2 + factor + 1]
    assert (np.diff(run.astype(np.float64), axis=1) > 0).all()


def test_slope_prune_keeps_few_of_the_hot_cells_on_a_crowded_frame():
    # The canonical frame's 20 persons make thousands of hot cells at factor
    # 4, but only the cells near a crest or a flat top can hold a peak.
    sc = make_canonical_scenario()
    cfg = DecoderConfig()
    src = sc.heatmaps.data[:BACKGROUND_CHANNEL]
    corners = np.pad(src, ((0, 0), (1, 1), (1, 1)), mode="edge")
    above = corners > (np.float32(cfg.peak_threshold)
                       - posekit.decoder._hot_margin(float(np.abs(src).max())))
    hot = above[:, :-1, :-1] | above[:, 1:, :-1] | above[:, :-1, 1:] | above[:, 1:, 1:]
    _, kept = posekit.decoder._peak_cells(sc.heatmaps.data, cfg)
    assert kept.size * 10 < hot.sum()


@pytest.mark.parametrize("factor", [2, 3, 4, 5, 8])
def test_no_cell_when_every_keypoint_sample_is_below_the_limit(factor):
    # Keypoint channels far below the threshold and the background at 1.0:
    # no corner is hot, so the filter keeps no cell and decode finds nothing.
    cfg = DecoderConfig(upsample_factor=factor)
    rng = np.random.default_rng(factor)
    heat = rng.uniform(-0.5, cfg.peak_threshold / 2, (NUM_HEATMAP_CHANNELS, 32, 57))
    heat[BACKGROUND_CHANNEL] = 1.0
    maps = FeatureMaps(heat.astype(np.float32))
    padded, kept = posekit.decoder._peak_cells(maps.data, cfg)
    assert padded.shape == (BACKGROUND_CHANNEL, 36, 61)
    assert kept.size == 0 and kept.dtype == np.intp
    assert decode(maps, _paf_stack(32, 57), identity_geometry(32, 57), cfg) == []


def test_decode_from_concurrent_threads_matches_serial():
    scenes = []
    for persons, (h, w), geometry in ((20, (32, 57), identity_geometry(32, 57)),
                                      (3, (46, 82), compute_input_geometry(720, 1280, 368))):
        _, heatmaps, pafs = generate_scene(persons, RenderConfig(h, w, seed=persons))
        scenes.append((heatmaps, pafs, geometry))
    serial = [_decode_bytes(*scene, DecoderConfig()) for scene in scenes]
    workers_count, rounds = 4, 8
    start = threading.Barrier(workers_count)
    results = [[] for _ in range(workers_count)]

    def run(slot):
        start.wait(timeout=60)
        for k in range(rounds):
            # Threads decode different map sizes at the same time.
            results[slot].append(_decode_bytes(*scenes[(k + slot) % 2], DecoderConfig()))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=run, args=(slot,)) for slot in range(workers_count)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert not worker.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for slot in range(workers_count):
        assert results[slot] == [serial[(k + slot) % 2] for k in range(rounds)]


def test_stage_results_are_values():
    # A stage's result is its own: calling the cell filter on another frame
    # in between leaves the first frame's padded stack and cells as they were.
    a = make_canonical_scenario().heatmaps
    _, b, _ = generate_scene(3, RenderConfig(32, 57, seed=5))
    cfg = DecoderConfig()
    cells_a = posekit.decoder._peak_cells(a.data, cfg)
    posekit.decoder._peak_cells(b.data, cfg)
    got = posekit.decoder._block_peaks(a, posekit.decoder._cell_blocks(cells_a, 4), cfg)
    fresh_cells = posekit.decoder._peak_cells(a.data, cfg)
    fresh = posekit.decoder._block_peaks(a, posekit.decoder._cell_blocks(fresh_cells, 4), cfg)
    assert len(fresh[0]) == 72
    for column, expected in zip(got, fresh):
        np.testing.assert_array_equal(column, expected)


@pytest.mark.parametrize("factor", [2, 4, 8])
@pytest.mark.parametrize("shape", [(32, 57), (46, 82)])
def test_shared_per_shape_tables_are_read_only(shape, factor):
    # Concurrent decodes share only these cached tables, so none may be written.
    tables = {"_axis_tables": [], "_cell_layout": [], "_sample_offsets": []}

    def spy(module, name):
        original = getattr(module, name)

        def record(*args):
            result = original(*args)
            tables[name].extend(result if isinstance(result, tuple) else (result,))
            return result
        return record

    _, heatmaps, pafs = generate_scene(3, RenderConfig(*shape, seed=factor))
    with pytest.MonkeyPatch.context() as patch:
        for module, name in ((posekit.featuremaps, "_axis_tables"),
                             (posekit.decoder, "_axis_tables"),
                             (posekit.decoder, "_cell_layout"),
                             (posekit.decoder, "_sample_offsets")):
            patch.setattr(module, name, spy(module, name))
        assert decode(heatmaps, pafs, identity_geometry(*shape),
                      DecoderConfig(upsample_factor=factor))
    for name, arrays in tables.items():
        assert arrays, name
        for arr in arrays:
            assert not arr.flags.writeable, name
            first = (0,) * arr.ndim
            with pytest.raises(ValueError):
                arr[first] = arr[first]


def test_decode_faults_in_no_fresh_pages_per_frame():
    # A decode whose temporaries made the allocator trim and refault the heap
    # read hundreds of minor faults per frame; a steady loop reads ~0.
    resource = pytest.importorskip("resource")
    sc = make_canonical_scenario()
    cfg = DecoderConfig()
    for _ in range(20):
        decode(sc.heatmaps, sc.pafs, sc.geometry, cfg)
    frames = 200
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(frames):
        decode(sc.heatmaps, sc.pafs, sc.geometry, cfg)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / frames < 1.0


def _dense_decode(heatmaps, pafs, geometry, cfg) -> list[PoseSkeleton]:
    """``decode`` as the composition of the public stages on upsampled maps."""
    up_heat = resize_bilinear(heatmaps, cfg.upsample_factor)
    up_paf = resize_bilinear(pafs, cfg.upsample_factor)
    keypoints = extract_keypoints(up_heat, cfg)
    candidates = [collect_limb_candidates(up_paf, limb, keypoints[limb.from_kind],
                                          keypoints[limb.to_kind], cfg)
                  for limb in LIMBS]
    skeletons = assemble_skeletons(group_limbs(candidates, cfg), keypoints, cfg)
    moved = []
    for sk in skeletons:
        kps = []
        for kp in sk.keypoints:
            if kp is not None:
                x, y = geometry.map_to_original(kp.x, kp.y, cfg.upsample_factor)
                kp = Keypoint(id=kp.id, kind=kp.kind, x=x, y=y, score=kp.score)
            kps.append(kp)
        moved.append(PoseSkeleton(tuple(kps), sk.score, sk.num_keypoints))
    return moved


def _dense_decode_bytes(heatmaps, pafs, geometry, cfg) -> bytes:
    skeletons = _dense_decode(heatmaps, pafs, geometry, cfg)
    return pose_document_bytes(PoseDocument(geometry, tuple(skeletons)))


def _decode_bytes(heatmaps, pafs, geometry, cfg) -> bytes:
    skeletons = decode(heatmaps, pafs, geometry, cfg)
    return pose_document_bytes(PoseDocument(geometry, tuple(skeletons)))


def test_decode_matches_dense_composition_on_acceptance_scenes():
    # The 50 scenes of acceptance criterion 5, clean and with sigma=0.02 noise.
    geometry = identity_geometry(32, 57)
    cfg = DecoderConfig()
    rng = np.random.default_rng(2)
    mismatches = []
    for seed in range(50):
        _, heatmaps, pafs = generate_scene(seed % 20 + 1, RenderConfig(32, 57, seed=seed))
        noisy = [FeatureMaps.from_planes(m.data + rng.normal(0.0, 0.02, m.data.shape))
                 for m in (heatmaps, pafs)]
        for variant, (heat, paf) in (("clean", (heatmaps, pafs)), ("noisy", noisy)):
            if (_decode_bytes(heat, paf, geometry, cfg)
                    != _dense_decode_bytes(heat, paf, geometry, cfg)):
                mismatches.append((seed, variant))
    assert mismatches == []


@pytest.mark.parametrize("factor", [1, 2, 3, 4, 8])
def test_decode_matches_dense_composition_at_other_factors(factor):
    cfg = DecoderConfig(upsample_factor=factor)
    _, heatmaps, pafs = generate_scene(2, RenderConfig(23, 31, seed=factor))
    geometry = identity_geometry(23, 31)
    assert _decode_bytes(heatmaps, pafs, geometry, cfg) == \
        _dense_decode_bytes(heatmaps, pafs, geometry, cfg)
    # A padded, scaled geometry with the wide-frame map size.
    geometry = compute_input_geometry(720, 1280, 368)
    _, heatmaps, pafs = generate_scene(3, RenderConfig(46, 82, seed=20 + factor))
    assert _decode_bytes(heatmaps, pafs, geometry, cfg) == \
        _dense_decode_bytes(heatmaps, pafs, geometry, cfg)


def _differential_maps(rng, kind, sigma=None):
    """Heatmap and PAF planes of one ``kind`` of differential-test input.

    Scenes get N(0, sigma) noise, with sigma drawn from {0, 0.02, 0.1} when
    not given; the sub-pixel body only when ``sigma`` is given.
    """
    if kind == "thin":
        # 1xn, nx1 and other tiny maps of noise.
        n = int(rng.integers(1, 12))
        h, w = ((1, n), (n, 1), tuple(int(v) for v in rng.integers(1, 5, 2)))[rng.integers(3)]
        return rng.uniform(0.0, 1.0, (NUM_HEATMAP_CHANNELS, h, w)), \
            rng.uniform(-1.0, 1.0, (NUM_PAF_CHANNELS, h, w))
    if kind == "noise":
        h, w = (int(v) for v in rng.integers(3, 10, 2))
        return rng.uniform(0.0, 1.0, (NUM_HEATMAP_CHANNELS, h, w)), \
            rng.uniform(-1.0, 1.0, (NUM_PAF_CHANNELS, h, w))
    if kind == "subpixel":
        # One full body rendered here at a fractional anchor.
        h, w = 22, 19
        ax, ay = rng.uniform(0.0, w - 13), rng.uniform(0.0, h - 17)
        spots = {k: (ax + dx, ay + dy) for k, dx, dy in
                 ((k, *FULL_BODY_TEMPLATE[k]) for k in range(NUM_KEYPOINTS))}
        heat = _heat_stack(h, w, [(k, _gaussian(h, w, x, y)) for k, (x, y) in spots.items()])
        person = GroundTruthPerson(tuple(spots[k] for k in range(NUM_KEYPOINTS)))
        heat, paf = heat.data, render_pafs([person], RenderConfig(h, w)).data
        if sigma is None:
            return heat, paf
        return heat + rng.normal(0.0, sigma, heat.shape), paf + rng.normal(0.0, sigma, paf.shape)
    _, heat, paf = generate_scene(int(rng.integers(1, 6)),
                                  RenderConfig(32, 57, seed=int(rng.integers(2**31))))
    heat, paf = heat.data, paf.data
    if kind == "crop":
        # Persons cut off by the map border.
        top, left = (int(v) for v in rng.integers(0, 16, 2))
        h, w = (int(v) for v in rng.integers(6, 17, 2))
        heat, paf = heat[:, top:top + h, left:left + w], paf[:, top:top + h, left:left + w]
    if sigma is None:
        sigma = rng.choice([0.0, 0.02, 0.1])
    return heat + rng.normal(0.0, sigma, heat.shape), paf + rng.normal(0.0, sigma, paf.shape)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       kind=st.sampled_from(["thin", "noise", "scene", "subpixel", "crop"]),
       factor=st.integers(min_value=1, max_value=8),
       relaxed=st.booleans(),
       padded=st.booleans())
def test_decode_equals_the_dense_public_composition(seed, kind, factor, relaxed, padded):
    # Objects, ids included, and bits: pose documents would omit the ids.
    rng = np.random.default_rng(seed)
    heat, paf = (FeatureMaps.from_planes(m) for m in _differential_maps(rng, kind))
    h, w = heat.height, heat.width
    geometry = identity_geometry(h, w)
    if padded:
        # Scale 0.5 and 3 px of right padding.
        geometry = compute_input_geometry(16 * h, 2 * (8 * w - 3), 8 * h)
    # Relaxed limits let noise through to merges and slot conflicts.
    cfg = DecoderConfig(upsample_factor=factor, min_valid_ratio=0.3, min_keypoints=1,
                        min_skeleton_score=0.0) if relaxed else \
        DecoderConfig(upsample_factor=factor)
    got = decode(heat, paf, geometry, cfg)
    want = _dense_decode(heat, paf, geometry, cfg)
    assert got == want
    assert _skeleton_bits(got) == _skeleton_bits(want)


@pytest.mark.parametrize("factor", [2, 3, 4, 8])
def test_decode_agrees_with_the_scalar_naive_decode(factor):
    # The bench gate's comparison (1e-4 px) against the float64 scalar
    # pipeline, beyond ideal scenes: a body at a sub-pixel anchor and
    # persons cut off by the border, under noise.
    rng = np.random.default_rng(factor)
    cfg = DecoderConfig(upsample_factor=factor)
    found = 0
    for sigma in (0.0, 0.02, 0.1):
        for kind in ("subpixel", "crop", "crop"):
            heat, paf = (FeatureMaps.from_planes(m) for m in _differential_maps(rng, kind, sigma))
            geometry = identity_geometry(heat.height, heat.width)
            got = decode(heat, paf, geometry, cfg)
            assert compare_skeletons(naive_decode(heat, paf, geometry, cfg), got) is None
            found += len(got)
    assert found > 0


@pytest.mark.parametrize("entry_point", [
    decode, extract_keypoints, score_connections, collect_limb_candidates, group_limbs,
    assemble_skeletons, naive_decode, posekit.bench.run_benchmark,
], ids=lambda f: f.__name__)
def test_every_entry_point_defaults_to_the_default_config(entry_point):
    assert inspect.signature(entry_point).parameters["cfg"].default == DecoderConfig()


def test_decode_builds_each_output_object_once(monkeypatch):
    sc = make_canonical_scenario()
    built = {"Keypoint": 0, "PoseSkeleton": 0, "LimbConnection": 0}
    for name in built:
        def counting(*args, _cls=getattr(posekit.decoder, name), _name=name, **kwargs):
            built[_name] += 1
            return _cls(*args, **kwargs)
        monkeypatch.setattr(posekit.decoder, name, counting)
    skeletons = decode(sc.heatmaps, sc.pafs, sc.geometry)
    monkeypatch.undo()
    assert skeletons == _dense_decode(sc.heatmaps, sc.pafs, sc.geometry, DecoderConfig())
    # Leaving cfg out is the same decode as passing the default config.
    assert pose_document_bytes(PoseDocument(sc.geometry, tuple(skeletons))) == \
        _decode_bytes(sc.heatmaps, sc.pafs, sc.geometry, DecoderConfig())
    assert len(skeletons) == 20
    assert built == {"Keypoint": sum(sk.num_keypoints for sk in skeletons),
                     "PoseSkeleton": len(skeletons), "LimbConnection": 0}


# ---------------------------------------------------------------------------
# Metamorphic: a left-right mirror
# ---------------------------------------------------------------------------

def _mirror_name(name):
    side = {"r_": "l_", "l_": "r_"}.get(name[:2])
    return name if side is None else side + name[2:]


# The kind and the limb each kind and limb becomes in a left-right mirror.
_MIRROR_KIND = [KEYPOINT_NAMES.index(_mirror_name(name)) for name in KEYPOINT_NAMES]
_MIRROR_LIMB = [_limb_for(_MIRROR_KIND[limb.from_kind], _MIRROR_KIND[limb.to_kind])
                for limb in LIMBS]


def _mirror_maps(heat, paf):
    """Both stacks flipped along x, with the left and right kinds swapped and
    each limb's field moved to its mirror limb, x component negated."""
    heat_m, paf_m = np.empty_like(heat), np.empty_like(paf)
    heat_m[_MIRROR_KIND + [BACKGROUND_CHANNEL]] = heat[:, :, ::-1]
    for limb, mirror in zip(LIMBS, _MIRROR_LIMB):
        paf_m[mirror.paf_x_channel] = -paf[limb.paf_x_channel, :, ::-1]
        paf_m[mirror.paf_y_channel] = paf[limb.paf_y_channel, :, ::-1]
    return heat_m, paf_m


def _mirror_skeleton(sk, width):
    slots = [None] * NUM_KEYPOINTS
    for kp in sk.keypoints:
        if kp is not None:
            kind = _MIRROR_KIND[kp.kind]
            slots[kind] = replace(kp, kind=kind, x=width - 1 - kp.x)
    return PoseSkeleton(tuple(slots), sk.score, sk.num_keypoints)


def test_mirror_tables_pair_the_sides():
    assert sorted(_MIRROR_KIND) == list(range(NUM_KEYPOINTS))
    assert sum(k != m for k, m in enumerate(_MIRROR_KIND)) == 16
    assert all(_MIRROR_KIND[m] == k for k, m in enumerate(_MIRROR_KIND))
    assert sum(limb is mirror for limb, mirror in zip(LIMBS, _MIRROR_LIMB)) == 1  # neck -> nose


# Inputs of the metamorphic tests: 1-5 persons at sub-pixel anchors under
# small noise, at every factor a decode is asked for.
_METAMORPHIC_INPUTS = dict(seed=st.integers(min_value=0, max_value=2**31 - 1),
                           persons=st.integers(min_value=1, max_value=5),
                           factor=st.integers(min_value=1, max_value=8),
                           sigma=st.floats(min_value=0.005, max_value=0.05))


def _noisy_subpixel_scene(seed, persons, sigma):
    """Heatmap and PAF arrays of a 32x57 scene whose persons are moved by up
    to half a pixel each, with Gaussian noise of ``sigma`` on every value.
    Continuous noise keeps exact ties, which a transform may break the
    other way, out of the draw."""
    rng = np.random.default_rng(seed)
    cfg = RenderConfig(32, 57, seed=seed)
    placed, _, _ = generate_scene(persons, cfg)
    shifted = []
    for person in placed:
        dx, dy = rng.uniform(-0.5, 0.5, 2)
        shifted.append(GroundTruthPerson(tuple(
            None if p is None else (p[0] + dx, p[1] + dy) for p in person.keypoints)))
    heat, paf = (m.data + rng.normal(0.0, sigma, m.data.shape)
                 for m in (render_heatmaps(shifted, cfg), render_pafs(shifted, cfg)))
    return heat, paf


def _decode_arrays(heat, paf, geometry, factor):
    return decode(FeatureMaps.from_planes(heat), FeatureMaps.from_planes(paf), geometry,
                  DecoderConfig(upsample_factor=factor))


@settings(max_examples=40, deadline=None)
@given(**_METAMORPHIC_INPUTS)
def test_decode_commutes_with_a_left_right_mirror(seed, persons, factor, sigma):
    # No truth and no second implementation: a mirrored input must decode
    # to the mirrored skeletons. One tie no noise removes: the upsample
    # copies each edge column into the ring beside it, and the peak rule
    # then keeps a maximum on the last column and drops one on the first.
    # So the heatmaps' edge columns are zero, below the threshold.
    heat, paf = _noisy_subpixel_scene(seed, persons, sigma)
    heat[:, :, [0, -1]] = 0.0
    geometry = identity_geometry(*heat.shape[1:])
    got = _decode_arrays(*_mirror_maps(heat, paf), geometry, factor)
    want = [_mirror_skeleton(sk, geometry.original_width)
            for sk in _decode_arrays(heat, paf, geometry, factor)]
    assert want
    # Same count and slot patterns, and coordinates within bench.COORD_TOL.
    assert compare_skeletons(want, got) is None


# ---------------------------------------------------------------------------
# Metamorphic: a vertical flip and a shift
# ---------------------------------------------------------------------------

def _move_skeleton(sk, x=lambda x: x, y=lambda y: y):
    return PoseSkeleton(tuple(None if kp is None else replace(kp, x=x(kp.x), y=y(kp.y))
                              for kp in sk.keypoints), sk.score, sk.num_keypoints)


@settings(max_examples=40, deadline=None)
@given(**_METAMORPHIC_INPUTS)
def test_decode_commutes_with_a_vertical_flip(seed, persons, factor, sigma):
    # The body model has no top-bottom pairs, so a flip swaps no kind: both
    # stacks flip along y and every limb's y component is negated. The
    # heatmaps' edge rows are zero for the edge tie the mirror test names.
    heat, paf = _noisy_subpixel_scene(seed, persons, sigma)
    heat[:, [0, -1], :] = 0.0
    geometry = identity_geometry(*heat.shape[1:])
    flipped_heat, flipped_paf = heat[:, ::-1], paf[:, ::-1].copy()
    for limb in LIMBS:
        flipped_paf[limb.paf_y_channel] *= -1.0
    got = _decode_arrays(flipped_heat, flipped_paf, geometry, factor)
    height = geometry.original_height
    want = [_move_skeleton(sk, y=lambda y: height - 1 - y)
            for sk in _decode_arrays(heat, paf, geometry, factor)]
    assert want
    assert compare_skeletons(want, got) is None


@settings(max_examples=40, deadline=None)
@given(shift=st.integers(min_value=1, max_value=5), **_METAMORPHIC_INPUTS)
def test_decode_commutes_with_a_shift(shift, seed, persons, factor, sigma):
    # ``shift`` zero rows and columns at the top left move every keypoint
    # by ``shift`` strides on both axes. The padding turns the maps' first
    # row and column from ring into interior, so they are zero: a noise
    # peak there would be found only in the shifted maps.
    heat, paf = _noisy_subpixel_scene(seed, persons, sigma)
    heat[:, 0, :] = heat[:, :, 0] = 0.0
    h, w = heat.shape[1:]
    pad = ((0, 0), (shift, 0), (shift, 0))
    got = _decode_arrays(np.pad(heat, pad), np.pad(paf, pad),
                         identity_geometry(h + shift, w + shift), factor)
    step = shift * identity_geometry(h, w).stride
    want = [_move_skeleton(sk, x=lambda x: x + step, y=lambda y: y + step)
            for sk in _decode_arrays(heat, paf, identity_geometry(h, w), factor)]
    assert want
    assert compare_skeletons(want, got) is None
