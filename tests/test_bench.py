"""Naive/optimized pipeline agreement and the timing harness contract."""

import json
import statistics

import numpy as np
import pytest

import posekit.bench
import posekit.decoder
from posekit import (
    DecoderConfig,
    FeatureMaps,
    PoseDocument,
    decode,
    write_scene_truth,
    write_tensor,
)
from posekit.bench import (
    MIN_FRAMES,
    MODES,
    STAGE_HEADERS,
    WARMUPS,
    Scenario,
    _config_digest,
    compare_skeletons,
    format_report,
    identity_geometry,
    load_scenario,
    make_canonical_scenario,
    naive_decode,
    run_benchmark,
)
from posekit.errors import DimensionMismatchError, GateFailureError
from posekit.fileio import pose_document_bytes
from posekit.synth import RenderConfig, generate_scene


def _scenario(num_persons: int, height=32, width=57, seed=4) -> Scenario:
    persons, heatmaps, pafs = generate_scene(num_persons, RenderConfig(height, width, seed=seed))
    return Scenario(label=f"test-{num_persons}p", heatmaps=heatmaps, pafs=pafs,
                    geometry=identity_geometry(height, width), persons=tuple(persons))


# ---------------------------------------------------------------------------
# Pipeline agreement
# ---------------------------------------------------------------------------

def test_naive_and_optimized_pipelines_agree():
    sc = _scenario(4)
    cfg = DecoderConfig()
    naive = naive_decode(sc.heatmaps, sc.pafs, sc.geometry, cfg)
    optimized = decode(sc.heatmaps, sc.pafs, sc.geometry, cfg)
    assert len(naive) == 4
    assert compare_skeletons(naive, optimized) is None


def _check_naive_decode_without(monkeypatch, *names):
    # The naive path groups with its own scalar code, so the gate checks decode's
    # matching and assembly against a second implementation, not themselves.
    sc = _scenario(4)
    optimized = decode(sc.heatmaps, sc.pafs, sc.geometry)

    def refuse(*args):
        raise AssertionError(f"naive_decode reached one of decoder's {names}")

    for name in names:
        monkeypatch.setattr(posekit.decoder, name, refuse)
    naive = naive_decode(sc.heatmaps, sc.pafs, sc.geometry)
    assert len(naive) == 4
    assert compare_skeletons(naive, optimized) is None


def test_naive_decode_matches_without_the_decoders_matcher(monkeypatch):
    _check_naive_decode_without(monkeypatch, "_match")


def test_naive_decode_assembles_without_the_decoders_assembler(monkeypatch):
    _check_naive_decode_without(monkeypatch, "_assemble", "assemble_skeletons")


def test_compare_skeletons_reports_count_mismatch():
    sc = _scenario(2)
    skeletons = decode(sc.heatmaps, sc.pafs, sc.geometry, DecoderConfig())
    diff = compare_skeletons(skeletons, skeletons[:1])
    assert diff is not None and "count" in diff


def test_compare_skeletons_reports_coordinate_drift():
    sc = _scenario(2)
    skeletons = decode(sc.heatmaps, sc.pafs, sc.geometry, DecoderConfig())
    moved = list(skeletons)
    sk = moved[0]
    kps = list(sk.keypoints)
    idx = next(i for i, kp in enumerate(kps) if kp is not None)
    kps[idx] = kps[idx].__class__(id=kps[idx].id, kind=kps[idx].kind,
                                  x=kps[idx].x + 1.0, y=kps[idx].y, score=kps[idx].score)
    moved[0] = sk.__class__(tuple(kps), sk.score, sk.num_keypoints)
    diff = compare_skeletons(skeletons, moved)
    assert diff is not None and "coordinates differ" in diff


def test_compare_skeletons_reports_slot_pattern_difference():
    sc = _scenario(2)
    skeletons = decode(sc.heatmaps, sc.pafs, sc.geometry, DecoderConfig())
    sk = skeletons[0]
    kps = list(sk.keypoints)
    kps[next(i for i, kp in enumerate(kps) if kp is not None)] = None
    fewer = [sk.__class__(tuple(kps), sk.score, sk.num_keypoints - 1), *skeletons[1:]]
    diff = compare_skeletons(skeletons, fewer)
    assert diff is not None and "slot pattern differs" in diff


def test_naive_refine_keeps_its_flat_triple_guard():
    # The naive planes are float64, where lo - 2c can round to -c: this
    # concave triple rounds to a zero denominator. The guard gives 0.0
    # instead of a ZeroDivisionError.
    lo = 1.0 - 2.0 ** -53
    assert lo - 2.0 * 1.0 + 1.0 == 0.0
    assert posekit.bench._naive_refine(lo, 1.0, 1.0) == 0.0


def test_compare_skeletons_ignores_ordering():
    sc = _scenario(3)
    skeletons = decode(sc.heatmaps, sc.pafs, sc.geometry, DecoderConfig())
    assert compare_skeletons(skeletons, list(reversed(skeletons))) is None


# ---------------------------------------------------------------------------
# Harness contract
# ---------------------------------------------------------------------------

def test_run_benchmark_rejects_bad_arguments():
    sc = _scenario(1, height=24, width=33)
    with pytest.raises(ValueError):
        run_benchmark(sc, "fastest")
    with pytest.raises(ValueError):
        run_benchmark(sc, "optimized", frames=1)


@pytest.mark.parametrize("frames", [40.0, "40", True])
def test_run_benchmark_rejects_non_integer_frames_before_the_gate(monkeypatch, frames):
    gated = []
    monkeypatch.setattr(posekit.bench, "naive_decode", lambda *args: gated.append(args))
    with pytest.raises(ValueError, match="^frames must be an integer >= 30"):
        run_benchmark(_scenario(1, height=24, width=33), "optimized", frames=frames)
    assert gated == []


def test_run_benchmark_gate_passes_on_noisy_canonical_scene():
    # Noise moves peaks off the lattice, where positions refined at the
    # stride and at the upsample factor differ by up to ~0.1 px.
    sc = make_canonical_scenario()
    rng = np.random.default_rng(7)
    heat, pafs = (FeatureMaps.from_planes(m.data + rng.normal(0.0, 0.02, m.data.shape))
                  for m in (sc.heatmaps, sc.pafs))
    noisy = Scenario(label="noisy", heatmaps=heat, pafs=pafs, geometry=sc.geometry)
    report = run_benchmark(noisy, "optimized")
    assert report.frames == MIN_FRAMES


def test_run_benchmark_gate_failure_raises(monkeypatch):
    sc = _scenario(1, height=24, width=33)
    monkeypatch.setattr("posekit.bench.compare_skeletons", lambda *a, **k: "forced diff")
    with pytest.raises(GateFailureError) as err:
        run_benchmark(sc, "optimized")
    assert "forced diff" in str(err.value)


def test_naive_group_stage_maps_back_every_frame(monkeypatch):
    # The optimized group stage ends with map-back and the output objects,
    # so the naive one does too: once per warm-up and timed frame, at the
    # stride it resized by, after the gate's one call at the decode factor.
    sc = _scenario(1, height=12, width=16)
    calls, map_back = [], posekit.bench._naive_map_back

    def spy(skeletons, geometry, factor):
        calls.append((len(skeletons), factor))
        return map_back(skeletons, geometry, factor)

    monkeypatch.setattr(posekit.bench, "_naive_map_back", spy)
    run_benchmark(sc, "naive")
    assert calls == [(1, DecoderConfig().upsample_factor)] + \
        [(1, sc.geometry.stride)] * (WARMUPS + MIN_FRAMES)


def test_run_benchmark_digests_numpy_config_values():
    # A float32 threshold made the config digest raise "not JSON serializable".
    sc = _scenario(1, height=24, width=33)
    report = run_benchmark(sc, "optimized", cfg=DecoderConfig(peak_threshold=np.float32(0.2)))
    same = DecoderConfig(peak_threshold=float(np.float32(0.2)))
    assert report.config_digest == _config_digest(same, 24, 33)


def test_report_invariants_and_fps_arithmetic():
    sc = _scenario(2, height=24, width=33)
    report = run_benchmark(sc, "optimized", frames=MIN_FRAMES)
    ns = report.median_ns
    assert report.mode in MODES
    assert report.scenario == sc.label
    assert report.frames == MIN_FRAMES
    assert tuple(ns) == STAGE_HEADERS
    assert min(ns.values()) >= 1
    assert ns["Total"] >= max(ns[name] for name in STAGE_HEADERS[:-1])
    assert len(report.config_digest) == 16
    int(report.config_digest, 16)  # hex
    fps = report.fps
    assert set(fps) == set(STAGE_HEADERS)
    assert fps["Total"] == float(f"{1e9 / ns['Total']:.3g}")
    assert report.pipeline_fps == fps["Total"]


def test_report_text_and_json_carry_the_same_numbers():
    sc = _scenario(2, height=24, width=33)
    report = run_benchmark(sc, "optimized")
    payload = json.loads(json.dumps(report.to_json_dict()))
    text = format_report(report)
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith(f"Scenario: {sc.label}  Mode: optimized")
    assert lines[1].startswith("Machine: ")
    header_cells = lines[2]
    assert header_cells.startswith("     ")
    pos = 0
    for header in STAGE_HEADERS:
        found = header_cells.find(header)
        assert found > pos  # exact names, left to right
        pos = found
    assert lines[3].startswith("Fps  ")
    cells = lines[3][5:].split()
    assert [float(c) for c in cells] == [payload["fps"][h] for h in STAGE_HEADERS]
    assert list(payload) == ["scenario", "mode", "machine", "frames", "config_digest",
                             "median_ns", "fps"]
    assert payload["median_ns"] == report.median_ns
    assert payload["config_digest"] == report.config_digest


def test_config_digest_tracks_config_and_shape():
    sc_a = _scenario(1, height=24, width=33)
    rep_base = run_benchmark(sc_a, "optimized")
    rep_cfg = run_benchmark(sc_a, "optimized", cfg=DecoderConfig(peak_threshold=0.2))
    assert rep_base.config_digest != rep_cfg.config_digest
    # Reports from different commits compare only while these bits hold.
    assert _config_digest(DecoderConfig(), 32, 57) == "10c32ddaf13d89b5"
    assert _config_digest(DecoderConfig(upsample_factor=8), 46, 82) == "4e037a8f70e750c7"


def test_resize_time_grows_with_upsample_factor():
    sc = _scenario(1, height=24, width=33)
    # Factor 8 interpolates (8 + 2)**2 samples per hot cell against (4 + 2)**2,
    # but finding the hot cells costs the same at both, so the stage takes
    # only ~1.3x as long, and host speed swings more than that from run to
    # run. Each run's resize time is therefore taken relative to its own
    # grouping time, whose work does not depend on the factor, and the
    # factors alternate over five runs each.
    ratios = {4: [], 8: []}
    for _ in range(5):
        for factor, runs in ratios.items():
            ns = run_benchmark(sc, "optimized",
                               cfg=DecoderConfig(upsample_factor=factor)).median_ns
            runs.append(ns["Resize feature maps"] / ns["Group keypoints"])
    assert statistics.median(ratios[8]) > statistics.median(ratios[4])


def test_empty_scene_makes_grouping_the_fastest_stage():
    sc = _scenario(0)
    report = run_benchmark(sc, "optimized")
    fps = report.fps
    assert fps["Group keypoints"] >= fps["Resize feature maps"]
    assert fps["Group keypoints"] >= fps["Extract keypoints"]


# ---------------------------------------------------------------------------
# Scenario plumbing
# ---------------------------------------------------------------------------

def test_make_canonical_scenario_shape():
    sc = make_canonical_scenario()
    assert sc.label == "canonical"
    assert (sc.heatmaps.height, sc.heatmaps.width) == (32, 57)
    assert len(sc.persons) == 20
    assert sc.geometry.net_input_width == 57 * 8


def test_load_scenario_round_trip(tmp_path):
    persons, heatmaps, pafs = generate_scene(2, RenderConfig(32, 57, seed=9))
    write_tensor(heatmaps, tmp_path / "heatmaps.ptns")
    write_tensor(pafs, tmp_path / "pafs.ptns")
    write_scene_truth(persons, RenderConfig(32, 57, seed=9), tmp_path / "truth.json")
    sc = load_scenario(tmp_path)
    assert sc.label == tmp_path.name
    assert len(sc.persons) == 2
    np.testing.assert_array_equal(sc.heatmaps.data, heatmaps.data)


def test_load_scenario_rejects_mismatched_truth(tmp_path):
    persons, heatmaps, pafs = generate_scene(2, RenderConfig(32, 57, seed=9))
    write_tensor(heatmaps, tmp_path / "heatmaps.ptns")
    write_tensor(pafs, tmp_path / "pafs.ptns")
    write_scene_truth(persons, RenderConfig(16, 57, seed=9), tmp_path / "truth.json")
    with pytest.raises(DimensionMismatchError):
        load_scenario(tmp_path)


def test_decode_alternating_map_sizes_without_drift():
    # Crowd- and wide-size maps in turn: a frame's pose document does not
    # depend on the size or content of the frame decoded before it.
    frames = [_scenario(20, seed=20), _scenario(3, height=46, width=82, seed=21)]
    cfg = DecoderConfig()

    def document(sc):
        skeletons = decode(sc.heatmaps, sc.pafs, sc.geometry, cfg)
        return pose_document_bytes(PoseDocument(sc.geometry, tuple(skeletons)))

    first = [document(sc) for sc in frames]
    for _ in range(3):
        assert [document(sc) for sc in frames] == first
        assert [document(sc) for sc in reversed(frames)] == first[::-1]
