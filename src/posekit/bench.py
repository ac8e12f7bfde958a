"""Stage-level benchmark of the decoding pipeline: naive vs optimized.

Three timed stages per frame: resize feature maps, extract keypoints, group
keypoints (scoring, greedy matching, assembly, coordinate mapping). The
naive mode mirrors a first straightforward implementation: heatmaps and PAFs
are resized all the way to network input size channel by channel in float64
with fresh allocations, extraction walks every pixel in Python
single-threaded, pair scoring loops over samples one candidate at a
time, and greedy matching and assembly take one candidate or connection
at a time in their own code, not ``decoder``'s.
The optimized mode runs ``decoder.decode``'s stages one by one: its
extract stage finds the cells that can hold a peak, its resize stage
interpolates one block of the heatmap upsample around each, the extract
stage then applies the peak rule in the blocks and sorts the peak columns,
and its group stage scores every limb's candidates in one
batch on the stride-level PAFs, matches and assembles them on peak ids,
maps the survivors back and builds the output objects. It upsamples no map
stack. The naive group stage ends at the same point: it maps each keypoint
back on its own with the same float64 formula.

Before any timing, ``naive_decode`` and ``decoder.decode`` decode the
scenario once at the configured upsample factor and their skeletons are
compared (counts, slot patterns, coordinates); a mismatch aborts with a
diff. Scores are excluded from the comparison since the two paths
accumulate in different float widths. Both take one ``DecoderConfig``.

A run's result is one ``BenchReport``. ``STAGE_HEADERS`` is the one stage
list: the report's ``median_ns`` and ``fps`` are keyed by it, in its order,
and the text table takes its columns from it.

Stage medians are wall-clock numbers from one process, with no calibration
against the host's speed, so they compare stages and modes within a run.
Compare commits with alternating ``perfbench/run.py`` runs instead.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import decoder
from .errors import DimensionMismatchError, GateFailureError
from .featuremaps import (
    STRIDE,
    FeatureMaps,
    InputGeometry,
    _require_integer,
    compute_input_geometry,
)
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
WARMUPS = 5
# Largest coordinate difference, in original-image pixels, the gate accepts.
COORD_TOL = 1e-4

STAGE_HEADERS = ("Resize feature maps", "Extract keypoints", "Group keypoints", "Total")


def identity_geometry(map_height: int, map_width: int) -> InputGeometry:
    """Geometry for maps that came from an unscaled, unpadded input."""
    return compute_input_geometry(map_height * STRIDE, map_width * STRIDE, map_height * STRIDE)


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


def _naive_match(candidates_by_type, cfg: DecoderConfig) -> list:
    """Greedy matching by selection, written from the grouping rule, not
    from ``group_limbs``.

    Drops the candidates whose valid ratio is below ``cfg.min_valid_ratio``
    or whose affinity is not positive. Then, one limb-type list at a time,
    it takes the remaining candidate with the smallest ``(-affinity, from
    id, to id)`` and accepts it unless one of its ends is already used in
    that list. Returns the accepted candidates by limb type, in acceptance
    order.
    """
    accepted = []
    for cands in candidates_by_type:
        remaining = [c for c in cands
                     if c.valid_ratio >= cfg.min_valid_ratio and c.affinity > 0.0]
        used_from, used_to = set(), set()
        while remaining:
            best = min(remaining, key=lambda c: (-c.affinity, c.from_kp, c.to_kp))
            remaining.remove(best)
            if best.from_kp in used_from or best.to_kp in used_to:
                continue
            used_from.add(best.from_kp)
            used_to.add(best.to_kp)
            accepted.append(best)
    return accepted


def _naive_assemble(connections, kind, score, cfg: DecoderConfig) -> list:
    """Greedy part assembly, written from README step 4 and the
    ``assemble_skeletons`` docstring, not from ``decoder._assemble``.

    ``connections`` holds accepted ``(from, to, affinity)`` point triples, and
    ``kind[p]`` and ``score[p]`` describe point ``p``. Returns each kept skeleton
    as ``(slots, score, count)``, ``slots[k]`` its point of kind ``k`` or -1.
    """
    skeletons = {}  # number of the starting connection -> partial skeleton
    home = {}  # point -> number of the skeleton that holds it

    def join(number, point):
        skeleton = skeletons[number]
        skeleton["slots"][kind[point]] = point
        skeleton["keypoint_sum"] += score[point]
        home[point] = number

    for number, (f, t, affinity) in enumerate(connections):
        if f not in home and t not in home:  # start a skeleton
            skeletons[number] = {"slots": {}, "keypoint_sum": 0.0, "affinity_sum": 0.0}
            join(number, f)
            if kind[t] != kind[f]:
                join(number, t)
        elif f not in home or t not in home:  # attach the free end
            number, free = (home[t], f) if f not in home else (home[f], t)
            if kind[free] in skeletons[number]["slots"]:
                continue  # the slot is taken: drop
            join(number, free)
        elif home[f] != home[t]:  # merge the to point's skeleton into the from point's
            number, absorbed = home[f], skeletons[home[t]]
            if absorbed["slots"].keys() & skeletons[number]["slots"].keys():
                continue  # both hold a kind: drop
            del skeletons[home[t]]
            for point in absorbed["slots"].values():
                home[point] = number
            skeletons[number]["slots"].update(absorbed["slots"])
            skeletons[number]["keypoint_sum"] += absorbed["keypoint_sum"]
            affinity = absorbed["affinity_sum"] + affinity
        else:  # a redundant edge inside one skeleton
            number = home[f]
        skeletons[number]["affinity_sum"] += affinity

    kept = []
    for skeleton in skeletons.values():
        count = len(skeleton["slots"])
        total = (skeleton["keypoint_sum"] + skeleton["affinity_sum"]) / count
        if count >= cfg.min_keypoints and total >= cfg.min_skeleton_score:
            kept.append(([skeleton["slots"].get(k, -1) for k in range(NUM_KEYPOINTS)],
                         total, count))
    kept.sort(key=lambda item: item[1], reverse=True)  # stable: ties keep creation order
    return kept


def _naive_group(up_paf: list, keypoints: list, cfg: DecoderConfig) -> list:
    """Per-pair Python-loop scoring, then ``_naive_match`` and ``_naive_assemble``.

    Scores the full cross-product of keypoints for every limb type and hands
    all of it to ``_naive_match``, which filters. Coincident endpoints have
    no direction to project on and score (0, 0).
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
    by_id = {kp.id: kp for bucket in keypoints for kp in bucket}
    skeletons = _naive_assemble(
        [(c.from_kp, c.to_kp, c.affinity) for c in _naive_match(candidates_by_type, cfg)],
        {i: kp.kind for i, kp in by_id.items()}, {i: kp.score for i, kp in by_id.items()}, cfg)
    return [PoseSkeleton(tuple(None if p == -1 else by_id[p] for p in slots), total, count)
            for slots, total, count in skeletons]


def _naive_map_back(skeletons: list, geometry: InputGeometry, factor: int) -> list:
    """Skeletons found on maps upsampled by ``factor``, in original-image
    pixels: one keypoint at a time through the float64 formula decode
    applies to arrays."""
    result = []
    for sk in skeletons:
        moved = []
        for kp in sk.keypoints:
            if kp is not None:
                x, y = geometry.map_to_original(kp.x, kp.y, factor)
                kp = replace(kp, x=x, y=y)
            moved.append(kp)
        result.append(PoseSkeleton(tuple(moved), sk.score, sk.num_keypoints))
    return result


def naive_decode(heatmaps: FeatureMaps, pafs: FeatureMaps, geometry: InputGeometry,
                 cfg: DecoderConfig = DecoderConfig()) -> list:
    """Naive decode upsampling by ``cfg.upsample_factor``, as ``decode`` would."""
    factor = cfg.upsample_factor
    up_heat, up_paf = _naive_resize(heatmaps, pafs, factor)
    keypoints = _naive_extract(up_heat, cfg.peak_threshold)
    return _naive_map_back(_naive_group(up_paf, keypoints, cfg), geometry, factor)


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


def compare_skeletons(expected, actual) -> str | None:
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
            if abs(ex - ax) > COORD_TOL or abs(ey - ay) > COORD_TOL:
                return (f"skeleton {i}, kind {kind}: coordinates differ by "
                        f"({ax - ex:+.6g}, {ay - ey:+.6g}) "
                        f"(tolerance {COORD_TOL:g})")
    return None


# ---------------------------------------------------------------------------
# Timing harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchReport:
    """One benchmark run: what was timed, where, and its stage medians.

    ``median_ns`` maps each name in ``STAGE_HEADERS``, in that order, to
    the median per-frame wall-clock nanoseconds of that stage. The mapping
    is the run's own: the frozen record does not freeze it.
    """

    scenario: str
    mode: str
    machine: str
    frames: int
    config_digest: str
    median_ns: dict

    @property
    def fps(self) -> dict:
        return {name: _sig3(1e9 / ns) for name, ns in self.median_ns.items()}

    @property
    def pipeline_fps(self) -> float:
        return self.fps["Total"]

    def to_json_dict(self) -> dict:
        return {**asdict(self), "fps": self.fps}


def _sig3(value: float) -> float:
    return float(f"{value:.3g}")


def _config_digest(cfg: DecoderConfig, height: int, width: int) -> str:
    blob = json.dumps({**asdict(cfg), "height": height, "width": width}, sort_keys=True)
    return hashlib.sha256(blob.encode("ascii")).hexdigest()[:16]


def _machine_descriptor() -> str:
    return (f"{platform.system()} {platform.machine()}, "
            f"Python {platform.python_version()}, NumPy {np.__version__}, "
            f"{os.cpu_count()} cores")


def run_benchmark(scenario: Scenario, mode: str, cfg: DecoderConfig = DecoderConfig(),
                  frames: int = MIN_FRAMES) -> BenchReport:
    """Time one mode on a scenario, gating on naive/optimized agreement first.

    The gate runs both pipelines once at ``cfg.upsample_factor``, whatever
    ``mode`` says; benchmark numbers for incorrect decoding are worthless.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    frames = _require_integer(frames, "frames", MIN_FRAMES)
    heat, pafs, geometry = scenario.heatmaps, scenario.pafs, scenario.geometry

    # Off-lattice peaks refine to other positions at another upsample factor.
    # Decode goes first: its channel checks run before the naive path indexes.
    opt_sk = decoder.decode(heat, pafs, geometry, cfg)
    naive_sk = naive_decode(heat, pafs, geometry, cfg)
    diff = compare_skeletons(naive_sk, opt_sk)
    if diff is not None:
        raise GateFailureError(diff)

    samples = []
    for frame in range(WARMUPS + frames):
        if mode == "optimized":
            t0 = time.perf_counter_ns()
            cells = decoder._peak_cells(heat.data, cfg)
            t1 = time.perf_counter_ns()
            blocks = decoder._cell_blocks(cells, cfg.upsample_factor)
            t2 = time.perf_counter_ns()
            peaks = decoder._block_peaks(heat, blocks, cfg)
            t3 = time.perf_counter_ns()
            decoder._group_peaks(pafs, peaks, cfg, geometry)
            t4 = time.perf_counter_ns()
            # The cell filter only narrows the peak search: it counts as extract.
            stages = (t2 - t1, t1 - t0 + t3 - t2, t4 - t3)
        else:
            t0 = time.perf_counter_ns()
            up_heat, up_paf = _naive_resize(heat, pafs, geometry.stride)
            t1 = time.perf_counter_ns()
            keypoints = _naive_extract(up_heat, cfg.peak_threshold)
            t2 = time.perf_counter_ns()
            _naive_map_back(_naive_group(up_paf, keypoints, cfg), geometry, geometry.stride)
            t3 = time.perf_counter_ns()
            stages = (t1 - t0, t2 - t1, t3 - t2)
        if frame >= WARMUPS:
            samples.append((*stages, sum(stages)))

    # One median per stage: the sample columns are in STAGE_HEADERS' order.
    medians = (max(1, round(statistics.median(stage))) for stage in zip(*samples))
    return BenchReport(scenario=scenario.label, mode=mode, machine=_machine_descriptor(),
                       frames=frames, config_digest=_config_digest(cfg, heat.height, heat.width),
                       median_ns=dict(zip(STAGE_HEADERS, medians)))


def format_report(report: BenchReport) -> str:
    """Plain-text table: stage names as columns, one fps row."""
    fps = report.fps
    cells = [f"{fps[name]:.3g}" for name in STAGE_HEADERS]
    widths = [max(len(h), len(c)) for h, c in zip(STAGE_HEADERS, cells)]
    lines = [
        f"Scenario: {report.scenario}  Mode: {report.mode}  Frames: {report.frames}  "
        f"Config: {report.config_digest}",
        f"Machine: {report.machine}",
        "     " + "  ".join(h.ljust(w) for h, w in zip(STAGE_HEADERS, widths)),
        "Fps  " + "  ".join(c.ljust(w) for c, w in zip(cells, widths)),
    ]
    return "\n".join(lines)
