"""Stage-level benchmark of the decoding pipeline: naive vs optimized.

Three timed stages per frame: resize feature maps, extract keypoints, group
keypoints (scoring, greedy matching, assembly, coordinate mapping). The
naive mode mirrors a first straightforward implementation: heatmaps and PAFs
are resized all the way to network input size channel by channel in float64
with fresh allocations, extraction walks every pixel in Python
single-threaded, and pair scoring loops over samples one candidate at a
time. The optimized mode runs ``decoder.decode``'s stages one by one: its
resize stage evaluates the heatmap upsample only in the hot cells that can
hold a peak, its extract stage applies the peak rule there and sorts the
peak columns, and its group stage scores every limb's candidates in one
batch on the stride-level PAFs, matches and assembles them on peak ids,
maps the survivors back and builds the output objects. It upsamples no map
stack. The naive mode maps each keypoint back on its own with the same
float64 formula.

Before any timing, both paths decode the scenario once at the configured
upsample factor and their skeletons are compared (counts, slot patterns,
coordinates); a mismatch aborts with a diff. Scores are excluded from the
comparison since the two paths accumulate in different float widths.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import decoder
from .decoder import assemble_skeletons, group_limbs, resolve_threads
from .errors import DimensionMismatchError, GateFailureError
from .featuremaps import STRIDE, FeatureMaps, InputGeometry
from .fileio import read_scene_truth, read_tensor
from .skeleton import (
    LIMBS,
    NUM_KEYPOINTS,
    DecoderConfig,
    Keypoint,
    LimbConnection,
    PoseSkeleton,
)
from .synth import RenderConfig, generate_scene

MODES = ("naive", "optimized")
MIN_FRAMES = 30
MIN_WARMUPS = 5

STAGE_HEADERS = ("Resize feature maps", "Extract keypoints", "Group keypoints", "Total")


def identity_geometry(map_height: int, map_width: int) -> InputGeometry:
    """Geometry for maps that came from an unscaled, unpadded input."""
    return InputGeometry(
        net_input_height=map_height * STRIDE,
        net_input_width=map_width * STRIDE,
        original_height=map_height * STRIDE,
        original_width=map_width * STRIDE,
        stride=STRIDE,
        pad=(0, 0, 0, 0),
    )


@dataclass(frozen=True)
class Scenario:
    """A fixed decode workload: maps, geometry, and an optional truth scene."""

    label: str
    heatmaps: FeatureMaps
    pafs: FeatureMaps
    geometry: InputGeometry
    persons: tuple = ()


CANONICAL_PERSONS = 20
CANONICAL_RENDER = RenderConfig(map_height=32, map_width=57, seed=20)


def make_canonical_scenario() -> Scenario:
    """The 456x256-derived scenario: 57x32 maps crowded with 20 persons."""
    persons, heatmaps, pafs = generate_scene(CANONICAL_PERSONS, CANONICAL_RENDER)
    return Scenario(
        label="canonical",
        heatmaps=heatmaps,
        pafs=pafs,
        geometry=identity_geometry(CANONICAL_RENDER.map_height, CANONICAL_RENDER.map_width),
        persons=tuple(persons),
    )


def load_scenario(directory) -> Scenario:
    """Load a fixture directory written by the synth command."""
    directory = Path(directory)
    heatmaps = read_tensor(directory / "heatmaps.ptns")
    pafs = read_tensor(directory / "pafs.ptns")
    persons, render_cfg = read_scene_truth(directory / "truth.json")
    if (heatmaps.height, heatmaps.width) != (render_cfg.map_height, render_cfg.map_width):
        raise DimensionMismatchError(
            f"heatmaps are {heatmaps.height}x{heatmaps.width}, truth says "
            f"{render_cfg.map_height}x{render_cfg.map_width}"
        )
    return Scenario(
        label=directory.name,
        heatmaps=heatmaps,
        pafs=pafs,
        geometry=identity_geometry(heatmaps.height, heatmaps.width),
        persons=persons,
    )


# ---------------------------------------------------------------------------
# Naive pipeline
# ---------------------------------------------------------------------------

def _naive_resize_plane(plane: np.ndarray, factor: int) -> np.ndarray:
    """Textbook separable bilinear upsample of one plane in float64.

    Index and weight tables are recomputed on every call; output and
    intermediates are freshly allocated.
    """
    h, w = plane.shape
    src = plane.astype(np.float64)
    ys = (np.arange(h * factor, dtype=np.float64) + 0.5) / factor - 0.5
    xs = (np.arange(w * factor, dtype=np.float64) + 0.5) / factor - 0.5
    y_base = np.floor(ys)
    x_base = np.floor(xs)
    wy = (ys - y_base)[:, None]
    wx = xs - x_base
    y0 = np.clip(y_base, 0, h - 1).astype(np.intp)
    y1 = np.clip(y_base + 1, 0, h - 1).astype(np.intp)
    x0 = np.clip(x_base, 0, w - 1).astype(np.intp)
    x1 = np.clip(x_base + 1, 0, w - 1).astype(np.intp)
    rows = src[y0, :] * (1.0 - wy) + src[y1, :] * wy
    return rows[:, x0] * (1.0 - wx) + rows[:, x1] * wx


def _naive_resize(heatmaps: FeatureMaps, pafs: FeatureMaps, factor: int):
    up_heat = [_naive_resize_plane(heatmaps.data[c], factor)
               for c in range(heatmaps.channels)]
    up_paf = [_naive_resize_plane(pafs.data[c], factor)
              for c in range(pafs.channels)]
    return up_heat, up_paf


def _naive_refine(lo: float, c: float, hi: float) -> float:
    denom = lo - 2.0 * c + hi
    if denom >= 0.0:
        return 0.0
    return min(0.5, max(-0.5, (lo - hi) / (2.0 * denom)))


def _naive_extract(up_heat: list, threshold: float) -> list:
    """Single-threaded peak extraction: walks each channel pixel by pixel.

    The full-resolution planes are scanned row-major with scalar element
    reads; the threshold test, all eight neighborhood comparisons, and the
    quadratic refinement run one value at a time. Same decision rules as the
    optimized path, including the excluded border ring.
    """
    result = []
    next_id = 0
    for kind in range(NUM_KEYPOINTS):
        plane = up_heat[kind]
        h, w = plane.shape
        found = []
        for y in range(1, h - 1):
            for x in range(1, w - 1):
                v = plane[y, x]
                if v <= threshold:
                    continue
                # Earlier neighbors (row-major) must be strictly smaller ...
                if (v <= plane[y - 1, x - 1] or v <= plane[y - 1, x]
                        or v <= plane[y - 1, x + 1] or v <= plane[y, x - 1]):
                    continue
                # ... later ones may tie; plateaus keep their first pixel.
                if (v < plane[y, x + 1] or v < plane[y + 1, x - 1]
                        or v < plane[y + 1, x] or v < plane[y + 1, x + 1]):
                    continue
                dx = _naive_refine(plane[y, x - 1], v, plane[y, x + 1])
                dy = _naive_refine(plane[y - 1, x], v, plane[y + 1, x])
                found.append((-v, y + dy, x + dx, v))
        found.sort()
        bucket = []
        for _, y, x, v in found:
            bucket.append(Keypoint(id=next_id, kind=kind,
                                   x=float(x), y=float(y), score=float(v)))
            next_id += 1
        result.append(bucket)
    return result


def _naive_group(up_paf: list, keypoints: list, cfg: DecoderConfig) -> list:
    """Per-pair Python-loop scoring followed by the greedy matching.

    Scores the full cross-product of keypoints for every limb type and hands
    all of it to ``group_limbs``, which filters. Coincident endpoints have no
    direction to project on and score (0, 0).
    """
    ts = [float(t) for t in np.linspace(0.0, 1.0, cfg.paf_sample_count)]
    candidates_by_type = []
    for limb in LIMBS:
        plane_x = up_paf[limb.paf_x_channel]
        plane_y = up_paf[limb.paf_y_channel]
        h, w = plane_x.shape
        cands = []
        for a in keypoints[limb.from_kind]:
            for b in keypoints[limb.to_kind]:
                dx = b.x - a.x
                dy = b.y - a.y
                length = math.hypot(dx, dy)
                if length == 0.0:
                    cands.append(LimbConnection(limb=limb, from_kp=a.id, to_kp=b.id,
                                                affinity=0.0, valid_ratio=0.0))
                    continue
                ux = dx / length
                uy = dy / length
                total = 0.0
                valid = 0
                for t in ts:
                    px = a.x + dx * t
                    py = a.y + dy * t
                    ix = min(max(int(math.floor(px + 0.5)), 0), w - 1)
                    iy = min(max(int(math.floor(py + 0.5)), 0), h - 1)
                    aligned = float(plane_x[iy, ix]) * ux + float(plane_y[iy, ix]) * uy
                    total += aligned
                    if aligned > cfg.paf_alignment_threshold:
                        valid += 1
                cands.append(
                    LimbConnection(limb=limb, from_kp=a.id, to_kp=b.id,
                                   affinity=total / cfg.paf_sample_count,
                                   valid_ratio=valid / cfg.paf_sample_count)
                )
        candidates_by_type.append(cands)
    accepted = group_limbs(candidates_by_type, cfg)
    return assemble_skeletons(accepted, keypoints, cfg)


def naive_decode(heatmaps: FeatureMaps, pafs: FeatureMaps, geometry: InputGeometry,
                 cfg: DecoderConfig | None = None) -> list:
    """Naive decode upsampling by ``cfg.upsample_factor``."""
    cfg = cfg or DecoderConfig()
    factor = cfg.upsample_factor
    up_heat, up_paf = _naive_resize(heatmaps, pafs, factor)
    keypoints = _naive_extract(up_heat, cfg.peak_threshold)
    # One keypoint at a time through the float64 formula decode applies to arrays.
    skeletons = []
    for sk in _naive_group(up_paf, keypoints, cfg):
        moved = []
        for kp in sk.keypoints:
            if kp is not None:
                x, y = geometry.map_to_original(kp.x, kp.y, factor)
                kp = replace(kp, x=x, y=y)
            moved.append(kp)
        skeletons.append(PoseSkeleton(tuple(moved), sk.score, sk.num_keypoints))
    return skeletons


# ---------------------------------------------------------------------------
# Optimized pipeline
# ---------------------------------------------------------------------------

def optimized_decode(heatmaps: FeatureMaps, pafs: FeatureMaps, geometry: InputGeometry,
                     cfg: DecoderConfig | None = None, threads: int = 0) -> list:
    """``decoder.decode``, whose stages the optimized mode times one by one."""
    return decoder.decode(heatmaps, pafs, geometry, cfg, threads=threads)


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def _canonical_rows(skeletons) -> list:
    rows = []
    for sk in skeletons:
        coords = tuple(
            (kp.kind, round(kp.x, 6), round(kp.y, 6))
            for kp in sk.keypoints if kp is not None
        )
        rows.append((sk.num_keypoints, sk.slot_pattern(), coords))
    rows.sort()
    return rows


def compare_skeletons(expected, actual, coord_tol: float = 1e-4) -> str | None:
    """Order-insensitive comparison; returns a diff string or None.

    Skeletons are matched by sorted (count, slot pattern, coordinates) rows.
    Scores are deliberately not compared: the two pipelines accumulate them
    at different precisions.
    """
    if len(expected) != len(actual):
        return f"skeleton count: expected {len(expected)}, got {len(actual)}"
    exp_rows = _canonical_rows(expected)
    act_rows = _canonical_rows(actual)
    for i, (e, a) in enumerate(zip(exp_rows, act_rows)):
        if e[1] != a[1]:
            return (f"skeleton {i}: slot pattern differs\n"
                    f"  expected {e[1]}\n  actual   {a[1]}")
        for (kind, ex, ey), (_, ax, ay) in zip(e[2], a[2]):
            if abs(ex - ax) > coord_tol or abs(ey - ay) > coord_tol:
                return (f"skeleton {i}, kind {kind}: coordinates differ by "
                        f"({ax - ex:+.6g}, {ay - ey:+.6g}) "
                        f"(tolerance {coord_tol:g})")
    return None


# ---------------------------------------------------------------------------
# Timing harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StageTimings:
    """Median per-frame wall-clock nanoseconds for each stage."""

    resize_ns: int
    extract_ns: int
    group_ns: int
    total_ns: int
    frames: int
    config_digest: str


@dataclass(frozen=True)
class BenchReport:
    scenario: str
    mode: str
    machine: str
    timings: StageTimings

    @property
    def fps(self) -> dict:
        t = self.timings
        ns = (t.resize_ns, t.extract_ns, t.group_ns, t.total_ns)
        return {name: _sig3(1e9 / v) for name, v in zip(STAGE_HEADERS, ns)}

    @property
    def pipeline_fps(self) -> float:
        return _sig3(1e9 / self.timings.total_ns)

    def to_json_dict(self) -> dict:
        t = self.timings
        return {
            "scenario": self.scenario,
            "mode": self.mode,
            "machine": self.machine,
            "frames": t.frames,
            "config_digest": t.config_digest,
            "median_ns": {
                "Resize feature maps": t.resize_ns,
                "Extract keypoints": t.extract_ns,
                "Group keypoints": t.group_ns,
                "Total": t.total_ns,
            },
            "fps": self.fps,
        }


def _sig3(value: float) -> float:
    return float(f"{value:.3g}")


def _config_digest(cfg: DecoderConfig, height: int, width: int) -> str:
    blob = json.dumps({
        "upsample_factor": cfg.upsample_factor,
        "peak_threshold": cfg.peak_threshold,
        "paf_sample_count": cfg.paf_sample_count,
        "paf_alignment_threshold": cfg.paf_alignment_threshold,
        "min_valid_ratio": cfg.min_valid_ratio,
        "min_keypoints": cfg.min_keypoints,
        "min_skeleton_score": cfg.min_skeleton_score,
        "height": height,
        "width": width,
    }, sort_keys=True)
    return hashlib.sha256(blob.encode("ascii")).hexdigest()[:16]


def _machine_descriptor() -> str:
    return (f"{platform.system()} {platform.machine()}, "
            f"Python {platform.python_version()}, NumPy {np.__version__}, "
            f"{os.cpu_count()} cores")


def run_benchmark(scenario: Scenario, mode: str, cfg: DecoderConfig | None = None,
                  frames: int = MIN_FRAMES, warmups: int = MIN_WARMUPS,
                  threads: int = 0) -> BenchReport:
    """Time one mode on a scenario, gating on naive/optimized agreement first.

    The gate runs both pipelines once at ``cfg.upsample_factor``, whatever
    ``mode`` says; benchmark numbers for incorrect decoding are worthless.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if frames < MIN_FRAMES:
        raise ValueError(f"frames must be >= {MIN_FRAMES}, got {frames}")
    warmups = max(warmups, MIN_WARMUPS)
    cfg = cfg or DecoderConfig()
    threads = resolve_threads(threads)
    heat, pafs, geometry = scenario.heatmaps, scenario.pafs, scenario.geometry

    # Off-lattice peaks refine to other positions at another upsample factor.
    naive_sk = naive_decode(heat, pafs, geometry, cfg)
    opt_sk = optimized_decode(heat, pafs, geometry, cfg, threads=threads)
    diff = compare_skeletons(naive_sk, opt_sk)
    if diff is not None:
        raise GateFailureError(diff)

    resize_ns, extract_ns, group_ns, total_ns = [], [], [], []
    for frame in range(warmups + frames):
        if mode == "optimized":
            t0 = time.perf_counter_ns()
            cells = decoder._upsample_hot_cells(heat.data, cfg)
            t1 = time.perf_counter_ns()
            peaks = decoder._cell_peaks(heat, cells, cfg)
            t2 = time.perf_counter_ns()
            decoder._group_peaks(pafs, peaks, cfg, geometry)
            t3 = time.perf_counter_ns()
        else:
            t0 = time.perf_counter_ns()
            up_heat, up_paf = _naive_resize(heat, pafs, geometry.stride)
            t1 = time.perf_counter_ns()
            keypoints = _naive_extract(up_heat, cfg.peak_threshold)
            t2 = time.perf_counter_ns()
            _naive_group(up_paf, keypoints, cfg)
            t3 = time.perf_counter_ns()
        if frame < warmups:
            continue
        resize_ns.append(t1 - t0)
        extract_ns.append(t2 - t1)
        group_ns.append(t3 - t2)
        total_ns.append(t3 - t0)

    timings = StageTimings(
        resize_ns=max(1, round(statistics.median(resize_ns))),
        extract_ns=max(1, round(statistics.median(extract_ns))),
        group_ns=max(1, round(statistics.median(group_ns))),
        total_ns=max(1, round(statistics.median(total_ns))),
        frames=frames,
        config_digest=_config_digest(cfg, heat.height, heat.width),
    )
    return BenchReport(scenario=scenario.label, mode=mode,
                       machine=_machine_descriptor(), timings=timings)


def format_report(report: BenchReport) -> str:
    """Plain-text table: stage names as columns, one fps row."""
    fps = report.fps
    cells = [f"{fps[name]:.3g}" for name in STAGE_HEADERS]
    widths = [max(len(h), len(c)) for h, c in zip(STAGE_HEADERS, cells)]
    t = report.timings
    lines = [
        f"Scenario: {report.scenario}  Mode: {report.mode}  Frames: {t.frames}  "
        f"Config: {t.config_digest}",
        f"Machine: {report.machine}",
        "     " + "  ".join(h.ljust(w) for h, w in zip(STAGE_HEADERS, widths)),
        "Fps  " + "  ".join(c.ljust(w) for c, w in zip(cells, widths)),
    ]
    return "\n".join(lines)
