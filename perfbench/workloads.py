"""The benchmark's workloads, driven only through posekit's public functions.

Each workload has a set-up, an end-to-end op (what a library user calls), a
replay of that op as the sequence of public calls ``decode`` makes at
``threads=1`` with a span around each call, and a check of the op's output
against the scene truth. See README.md for why each workload exists.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from pathlib import Path

import posekit.synth as synth
from posekit import (
    LIMBS,
    NUM_KEYPOINTS,
    DecoderConfig,
    Keypoint,
    PlacementInfeasibleError,
    PoseDocument,
    PoseSkeleton,
    assemble_skeletons,
    collect_limb_candidates,
    compute_input_geometry,
    decode,
    extract_keypoints,
    generate_scene,
    group_limbs,
    read_poses,
    read_tensor,
    resize_bilinear,
    write_poses,
    write_tensor,
)
from posekit.fileio import pose_document_bytes
from posekit.synth import RenderConfig

from spans import NULL_TRACER, Tracer

CFG = DecoderConfig()

# 32x57 maps are what a stride-8 network gives for a 256x456 input; the
# identity geometry maps them back to that input unscaled.
SMALL_MAP = (32, 57)
SMALL_GEOMETRY = compute_input_geometry(256, 456, 256)


# ---------------------------------------------------------------------------
# Calls shared by the workloads, each with its span and counts
# ---------------------------------------------------------------------------

@contextmanager
def _traced_renders(tr: Tracer):
    """Give the renders ``generate_scene`` calls internally their own spans.

    ``generate_scene`` looks the render functions up in ``posekit.synth`` at
    call time, so wrapping the module attributes nests their spans under the
    generate span; its self time is then placement alone.
    """
    if not tr.enabled:
        yield
        return
    originals = synth.render_heatmaps, synth.render_pafs

    def wrap(name, fn):
        def traced(*args, **kwargs):
            with tr.span(name):
                return fn(*args, **kwargs)
        return traced

    synth.render_heatmaps = wrap("synth.render_heatmaps", originals[0])
    synth.render_pafs = wrap("synth.render_pafs", originals[1])
    try:
        yield
    finally:
        synth.render_heatmaps, synth.render_pafs = originals


# Placement of 20 persons on 32x57 maps exhausts its random attempt budget
# for a few seeds (seed 202 is one). Such a seed is followed
# by the next candidate, seed + k * RETRY_STRIDE, so every workload seed
# yields a scene. Retries stay inside the generate span and are counted.
RETRY_STRIDE = 10**12
MAX_PLACEMENT_TRIES = 10


def make_scene(persons: int, map_size, seed: int, tr: Tracer):
    """Returns ``(truth, heatmaps, pafs, retries)``."""
    with tr.span("synth.generate_scene") as s, _traced_renders(tr):
        for retries in range(MAX_PLACEMENT_TRIES):
            cfg = RenderConfig(*map_size, seed=seed + retries * RETRY_STRIDE)
            try:
                truth, heat, pafs = generate_scene(persons, cfg)
                break
            except PlacementInfeasibleError:
                continue
        else:
            raise PlacementInfeasibleError(
                f"no placement for {persons} persons from seed {seed} "
                f"in {MAX_PLACEMENT_TRIES} tries")
    s.count("synth.scenes", 1)
    s.count("synth.full_bodies", int(bool(truth) and truth[0].num_visible() == NUM_KEYPOINTS))
    return truth, heat, pafs, retries


def tensor_roundtrip(heat, pafs, workdir: Path, tr: Tracer):
    """Write both stacks with ``write_tensor`` and read them back."""
    out = []
    for label, maps in (("heatmaps", heat), ("pafs", pafs)):
        path = workdir / f"{label}.ptns"
        with tr.span("fileio.write_tensor") as s:
            write_tensor(maps, path)
        size = path.stat().st_size
        s.count("fileio.bytes_written", size)
        with tr.span("fileio.read_tensor") as s:
            out.append(read_tensor(path))
        s.count("fileio.bytes_read", size)
    return out


def poses_roundtrip(doc: PoseDocument, workdir: Path, tr: Tracer) -> PoseDocument:
    path = workdir / "poses.json"
    with tr.span("fileio.write_poses") as s:
        write_poses(doc, path)
    size = path.stat().st_size
    s.count("fileio.bytes_written", size)
    with tr.span("fileio.read_poses") as s:
        back = read_poses(path)
    s.count("fileio.bytes_read", size)
    return back


def map_back(skeletons, geometry, factor: int) -> list[PoseSkeleton]:
    """Upsampled-map skeletons to original-image pixels, as ``decode`` returns them."""
    out = []
    for sk in skeletons:
        moved = []
        for kp in sk.keypoints:
            if kp is None:
                moved.append(None)
                continue
            x, y = geometry.map_to_original(kp.x, kp.y, factor)
            moved.append(Keypoint(id=kp.id, kind=kp.kind, x=x, y=y, score=kp.score))
        out.append(PoseSkeleton(tuple(moved), sk.score, sk.num_keypoints))
    return out


def replay_decode(heat, pafs, geometry, threads: int, tr: Tracer) -> list[PoseSkeleton]:
    """``decode`` as the public calls it makes at ``threads=1``, one span each.

    Only ``extract_keypoints`` takes a thread count; ``resize_bilinear`` has
    none, so resizing is single-threaded here whatever ``threads`` says.
    Input validation and map-back have no public entry point; map-back runs
    in the caller's span.
    """
    factor = CFG.upsample_factor
    stacks = []
    for label, maps in (("heat", heat), ("paf", pafs)):
        with tr.span(f"featuremaps.resize_{label}") as s:
            up = resize_bilinear(maps, factor)
        s.count("featuremaps.out_mpix", up.data.size / 1e6)
        stacks.append(up)
    up_heat, up_paf = stacks
    with tr.span("decoder.extract_keypoints") as s:
        keypoints = extract_keypoints(up_heat, CFG, threads=threads)
    s.count("decoder.peaks", sum(len(bucket) for bucket in keypoints))
    candidates = []
    for limb in LIMBS:
        kps_a, kps_b = keypoints[limb.from_kind], keypoints[limb.to_kind]
        with tr.span("decoder.collect_limb_candidates") as s:
            kept = collect_limb_candidates(up_paf, limb, kps_a, kps_b, CFG)
        pairs = len(kps_a) * len(kps_b)
        s.count("decoder.pairs_scored", pairs)
        s.count("decoder.pairs_kept", len(kept))
        s.count("decoder.paf_samples", pairs * CFG.paf_sample_count)
        candidates.append(kept)
    with tr.span("decoder.group_limbs") as s:
        accepted = group_limbs(candidates, CFG)
    s.count("decoder.connections", len(accepted))
    with tr.span("decoder.assemble_skeletons") as s:
        skeletons = assemble_skeletons(accepted, keypoints, CFG)
    s.count("decoder.skeletons", len(skeletons))
    return map_back(skeletons, geometry, factor)


def matches_truth(truth, skeletons, geometry) -> bool:
    """Person count equals the truth and every truth keypoint has a decoded
    keypoint of its kind within 1 upsampled pixel."""
    if len(skeletons) != len(truth):
        return False
    factor = CFG.upsample_factor
    unit = geometry.stride / factor / geometry.scale  # original px per upsampled px
    centre = (factor - 1) / 2  # upsampled position of a map pixel's centre
    for person in truth:
        for kind, pos in enumerate(person.keypoints):
            if pos is None:
                continue
            ex, ey = geometry.map_to_original(pos[0] * factor + centre,
                                              pos[1] * factor + centre, factor)
            best = min((math.hypot(kp.x - ex, kp.y - ey)
                        for sk in skeletons
                        if (kp := sk.keypoints[kind]) is not None), default=math.inf)
            if best > unit:
                return False
    return True


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class FrameWorkload:
    """Decode one fixed frame per op (``crowd`` and ``wide``).

    Set-up generates the seeded scene, writes it as tensor files and reads
    them back (the path ``posekit decode`` takes), decodes once and keeps
    that pose document as the reference every op must reproduce byte for
    byte.
    """

    def __init__(self, persons, map_size, geometry, threads, seed, workdir):
        self.persons = persons
        self.map_size = map_size
        self.geometry = geometry
        self.threads = threads
        self.seed = seed
        self.workdir = Path(workdir)
        self.placement_retries = 0

    def setup(self, tr: Tracer) -> None:
        truth, heat, pafs, retries = make_scene(self.persons, self.map_size, self.seed, tr)
        self.placement_retries += retries
        self.heat, self.pafs = tensor_roundtrip(heat, pafs, self.workdir, tr)
        skeletons = decode(self.heat, self.pafs, self.geometry, CFG, threads=self.threads)
        doc = PoseDocument(self.geometry, tuple(skeletons))
        poses_roundtrip(doc, self.workdir, tr)
        self.truth = truth
        self.reference = pose_document_bytes(doc)

    def op(self, index: int):
        return decode(self.heat, self.pafs, self.geometry, CFG, threads=self.threads)

    def replay(self, index: int, tr: Tracer):
        return replay_decode(self.heat, self.pafs, self.geometry, self.threads, tr)

    def check(self, skeletons) -> bool:
        doc = PoseDocument(self.geometry, tuple(skeletons))
        return (pose_document_bytes(doc) == self.reference
                and matches_truth(self.truth, skeletons, self.geometry))


class RoundtripWorkload:
    """One new scene per op, through files and back (``roundtrip``).

    Op ``i`` generates a scene of ``20 - i % 20`` persons, writes and reads
    both tensors, decodes at ``threads=1``, then writes and reads the pose
    document. Set-up runs op 0 once, so the first set-up warms the caches.
    """

    map_size = SMALL_MAP
    geometry = SMALL_GEOMETRY
    threads = 1
    max_persons = 20

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self.placement_retries = 0

    def setup(self, tr: Tracer) -> None:
        self._run(0, tr, replay=False)

    def _run(self, index: int, tr: Tracer, replay: bool):
        persons = self.max_persons - index % self.max_persons
        # Distinct scenes for every (seed, op) pair; a run stays far below 10**6 ops.
        truth, heat, pafs, retries = make_scene(persons, self.map_size,
                                                self.seed * 10**6 + index, tr)
        self.placement_retries += retries
        heat, pafs = tensor_roundtrip(heat, pafs, self.workdir, tr)
        if replay:
            skeletons = replay_decode(heat, pafs, self.geometry, self.threads, tr)
        else:
            skeletons = decode(heat, pafs, self.geometry, CFG, threads=self.threads)
        doc = PoseDocument(self.geometry, tuple(skeletons))
        return truth, doc, poses_roundtrip(doc, self.workdir, tr)

    def op(self, index: int):
        return self._run(index, NULL_TRACER, replay=False)

    def replay(self, index: int, tr: Tracer):
        return self._run(index, tr, replay=True)

    def check(self, output) -> bool:
        truth, written, read = output
        return (pose_document_bytes(read) == pose_document_bytes(written)
                and matches_truth(truth, read.skeletons, self.geometry))


# BENCHMARK.json lists crowd and wide; roundtrip is run by hand only, because
# its op_ms_p50 spreads too far across seeds for the bounds (README.md).
WORKLOADS = ("crowd", "wide", "roundtrip")


def build(name: str, seed: int, workdir) -> FrameWorkload | RoundtripWorkload:
    if name == "crowd":
        return FrameWorkload(20, SMALL_MAP, SMALL_GEOMETRY, 1, seed, workdir)
    if name == "wide":
        # A 720x1280 image scaled to a 368x656 network input (2 px right pad).
        geometry = compute_input_geometry(720, 1280, 368)
        map_size = (geometry.net_input_height // geometry.stride,
                    geometry.net_input_width // geometry.stride)
        # Two pool threads, but one core stays free for the caller and the
        # host: on a 2-vCPU machine a 2-thread op waits for whichever vCPU
        # the host preempts, and its tail measures the scheduler (README.md).
        threads = max(1, min(2, (os.cpu_count() or 1) - 1))
        return FrameWorkload(3, map_size, geometry, threads, seed, workdir)
    if name == "roundtrip":
        return RoundtripWorkload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
