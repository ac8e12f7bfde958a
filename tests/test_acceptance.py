"""Acceptance gate: ten checks, one verdict line each.

Every test measures one end-to-end property at its stated tolerance and
records a PASS/FAIL line (replayed in the terminal summary). Tolerances are
deliberate; do not widen them to make a red check green.
"""

import json
import math
import struct
import time

import numpy as np
import pytest
from conftest import record_criterion

from posekit import (
    DecoderConfig,
    FeatureMaps,
    LIMBS,
    LimbConnection,
    PoseDocument,
    decode,
    group_limbs,
)
from posekit.bench import (
    _naive_match,
    identity_geometry,
    make_canonical_scenario,
    naive_decode,
    run_benchmark,
)
from posekit.cli import main
from posekit.fileio import TENSOR_HEADER_SIZE, parse_tensor, pose_document_bytes, tensor_bytes
from posekit.synth import RenderConfig, generate_scene

BASELINE_PUBLISHED = (37.8, 40.3, 40.9, 43.1, 61.7, 80.3, 98.9, 117.5, 136.1)
VARIANT_ORDER = (
    ("mobilenet_v1_conv4_1", 23.3),
    ("dilated_mobilenet_v2_conv6_3", 27.2),
    ("dilated_mobilenet_v1_conv5_5", 27.7),
    ("dilated_mobilenet_v1_conv5_6", 31.3),
)

SCENE_COUNT = 50
SCENE_HEIGHT, SCENE_WIDTH = 32, 57


def _verdict(number: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {number:2d} {'PASS' if ok else 'FAIL'}  {description}"
    if detail:
        line += f"  [{detail}]"
    record_criterion(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def fifty_scenes():
    """50 seeded scenes with 1..20 persons each, plus generation time."""
    start = time.perf_counter()
    scenes = []
    for seed in range(SCENE_COUNT):
        cfg = RenderConfig(map_height=SCENE_HEIGHT, map_width=SCENE_WIDTH, seed=seed)
        persons, heatmaps, pafs = generate_scene(seed % 20 + 1, cfg)
        scenes.append((persons, heatmaps, pafs))
    return scenes, time.perf_counter() - start


def test_criterion_01_baseline_flops(capsys):
    start = time.perf_counter()
    assert main(["flops", "--arch", "baseline", "--input", "368x368", "--json"]) == 0
    elapsed = time.perf_counter() - start
    payload = json.loads(capsys.readouterr().out)
    cumulative = [g["cumulative_gflops"] for g in payload["groups"]]
    errors = [abs(got - want) / want
              for got, want in zip(cumulative, BASELINE_PUBLISHED)]
    ok = (len(cumulative) == len(BASELINE_PUBLISHED)
          and max(errors) < 0.02 and elapsed < 1.0)
    _verdict(1, "baseline cumulative GFLOPs within 2% of the published table",
             ok, f"max err {max(errors):.2%}, {elapsed * 1e3:.0f} ms")


def test_criterion_02_lightweight_flops(capsys):
    start = time.perf_counter()
    assert main(["flops", "--arch", "lightweight", "--input", "368x368", "--json"]) == 0
    elapsed = time.perf_counter() - start
    payload = json.loads(capsys.readouterr().out)
    groups = {g["name"]: g["gflops"] for g in payload["groups"]}
    backbone = groups["backbone"]
    refinement = groups["refinement_stage_1"]
    total = payload["total_gflops"]
    params = payload["total_params"]
    ok = (abs(backbone - 3.7) / 3.7 <= 0.03
          and abs(refinement - 3.4) <= 0.15
          and 8.5 <= total <= 9.5
          and 3_900_000 <= params <= 4_300_000
          and elapsed < 1.0)
    _verdict(2, "lightweight backbone/refinement/total GFLOPs and params in range",
             ok, f"backbone {backbone:.3f}, refinement {refinement:.3f}, "
                 f"total {total:.3f}, params {params:,}")


def test_criterion_03_block_ratio():
    from posekit import ArchSpec, LayerGroup, LayerSpec, conv7x7_replacement_block, evaluate, layer_flops
    conv = LayerSpec(name="conv7", kind="conv", in_channels=128, out_channels=128, kernel=7)
    block = ArchSpec(name="block", input_height=46, input_width=46, groups=(
        LayerGroup(name="b", layers=conv7x7_replacement_block("b", 128)),))
    ratio = layer_flops(conv, 46, 46) / (evaluate(block).total_gflops * 1e9)
    ok = 2.3 <= ratio <= 2.7
    _verdict(3, "7x7 conv to replacement block cost ratio in [2.3, 2.7]",
             ok, f"ratio {ratio:.4f}")


def test_criterion_04_variant_ordering(capsys):
    assert main(["flops", "--arch", "variants", "--input", "368x368", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    names = [entry["arch"] for entry in payload]
    totals = [entry["total_gflops"] for entry in payload]
    ok = (names == [name for name, _ in VARIANT_ORDER]
          and all(a < b for a, b in zip(totals, totals[1:])))
    _verdict(4, "backbone variant totals strictly ordered like the published table",
             ok, " < ".join(f"{t:.1f}" for t in totals))


def test_criterion_05_round_trip_decoding(fifty_scenes):
    scenes, gen_seconds = fifty_scenes
    geometry = identity_geometry(SCENE_HEIGHT, SCENE_WIDTH)
    cfg = DecoderConfig()  # upsample factor 4
    step = geometry.stride / cfg.upsample_factor  # original px per upsampled px
    start = time.perf_counter()
    exact_counts = 0
    worst_up_px = 0.0
    for persons, heatmaps, pafs in scenes:
        skeletons = decode(heatmaps, pafs, geometry, cfg)
        if len(skeletons) == len(persons):
            exact_counts += 1
        for person in persons:
            for kind, pos in enumerate(person.keypoints):
                if pos is None:
                    continue
                expected = (pos[0] * geometry.stride + geometry.stride / 2 - 0.5,
                            pos[1] * geometry.stride + geometry.stride / 2 - 0.5)
                dists = [math.hypot(kp.x - expected[0], kp.y - expected[1])
                         for sk in skeletons
                         for kp in (sk.keypoint(kind),) if kp is not None]
                err = min(dists) / step if dists else math.inf
                worst_up_px = max(worst_up_px, err)
    elapsed = gen_seconds + (time.perf_counter() - start)
    ok = exact_counts == SCENE_COUNT and worst_up_px <= 1.0 and elapsed < 30.0
    _verdict(5, "50 scenes decode to exact person counts, keypoints within 1 up-px",
             ok, f"counts {exact_counts}/{SCENE_COUNT}, worst {worst_up_px:.4f} up-px, "
                 f"{elapsed:.1f} s")


def test_criterion_06_upsample_factor_equivalence(fifty_scenes):
    scenes, _ = fifty_scenes
    geometry = identity_geometry(SCENE_HEIGHT, SCENE_WIDTH)
    factor8 = DecoderConfig(upsample_factor=8)
    full = DecoderConfig(upsample_factor=geometry.stride)  # resize to input size

    def signature(skeletons):
        return sorted((sk.num_keypoints, sk.slot_pattern()) for sk in skeletons)

    mismatches = 0
    for _, heatmaps, pafs in scenes:
        a = decode(heatmaps, pafs, geometry, factor8)
        b = naive_decode(heatmaps, pafs, geometry, full)
        if signature(a) != signature(b):
            mismatches += 1
    _verdict(6, "factor-8 decode equals full resize-to-input-size decode",
             mismatches == 0, f"{SCENE_COUNT - mismatches}/{SCENE_COUNT} scenes identical")


def test_criterion_07_grouping_oracle():
    rng = np.random.default_rng(2024)
    cfg = DecoderConfig()
    agreements = 0
    instances = 200
    for _ in range(instances):
        limb = LIMBS[int(rng.integers(len(LIMBS)))]
        n_a, n_b = int(rng.integers(0, 6)), int(rng.integers(0, 6))
        cands = [
            LimbConnection(limb=limb, from_kp=a, to_kp=100 + b,
                           affinity=float(np.round(rng.uniform(-0.2, 1.0), 3)),
                           valid_ratio=float(rng.choice([0.0, 0.6, 0.8, 1.0])))
            for a in range(n_a) for b in range(n_b)
        ]
        if group_limbs([cands], cfg) == _naive_match([cands], cfg):
            agreements += 1
    _verdict(7, "group_limbs matches the brute-force greedy oracle on 200 instances",
             agreements == instances, f"{agreements}/{instances} agree")


def test_criterion_08_optimization_speedup():
    scenario = make_canonical_scenario()
    naive = run_benchmark(scenario, "naive")
    optimized = run_benchmark(scenario, "optimized")
    ratio = optimized.pipeline_fps / naive.pipeline_fps
    ok = ratio >= 20.0
    _verdict(8, "optimized pipeline at least 20x the naive fps (gate enforced)",
             ok, f"naive {naive.pipeline_fps:g} fps, optimized "
                 f"{optimized.pipeline_fps:g} fps, {ratio:.1f}x")


def test_criterion_09_thread_determinism(fifty_scenes):
    scenes, _ = fifty_scenes
    geometry = identity_geometry(SCENE_HEIGHT, SCENE_WIDTH)
    canonical = make_canonical_scenario()
    workloads = [(heat, pafs) for _, heat, pafs in scenes]
    workloads.append((canonical.heatmaps, canonical.pafs))
    identical = 0
    for heatmaps, pafs in workloads:
        with pytest.warns(DeprecationWarning):
            docs = [
                pose_document_bytes(PoseDocument(
                    geometry=geometry,
                    skeletons=tuple(decode(heatmaps, pafs, geometry, threads=threads)),
                ))
                for threads in (1, 4)
            ]
        if docs[0] == docs[1]:
            identical += 1
    _verdict(9, "decode output documents are bit-identical across thread counts",
             identical == len(workloads), f"{identical}/{len(workloads)} workloads identical")


def test_criterion_10_format_stability():
    golden = (
        b"PTNS" b"\x01\x00"
        b"\x01\x00\x00\x00" b"\x01\x00\x00\x00" b"\x01\x00\x00\x00"
        b"\x01" b"\x04\x00\x00\x00"
        + struct.pack("<f", 0.5)
    )
    blob = tensor_bytes(FeatureMaps(np.array([[[0.5]]], dtype=np.float32)))
    parsed = parse_tensor(golden)
    ok = (blob == golden
          and TENSOR_HEADER_SIZE == 23
          and parsed.data.shape == (1, 1, 1)
          and parsed.data[0, 0, 0] == np.float32(0.5))
    _verdict(10, "tensor header and canonical 1x1x1 file are byte-stable",
             ok, f"{len(blob)}-byte golden file")
