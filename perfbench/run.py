"""Run one posekit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload crowd --seed 20 --seconds 35 --trace 0

Run from the repository root. The benchmark imports posekit from ``src/``
next to this directory and nowhere else. It sets the workload up several
times, then runs ops in a closed loop (the next op starts when the last one
has returned and been checked) until ``--seconds`` have passed. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
replays ops as spanned public calls and reports the per-layer metrics. Times
are reference-speed times (see ``Kernel``). The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

# Set-ups per run; setup_s is their median, so the cold first one does not set it.
SETUPS = 5

# The host's speed drifts by up to ~40% between periods of seconds to minutes
# (README.md, "Reference-speed times"). A fixed calibration kernel that does
# not touch posekit is timed after every set-up and every KERNEL_EVERY-th op,
# and every reported time is scaled by REFERENCE_KERNEL_MS over a kernel
# median: times read as milliseconds at the speed where the kernel takes
# REFERENCE_KERNEL_MS. An op's median is taken over the LOCAL_KERNELS samples
# on each side of it (about a second), so each op is scaled by the speed of
# its own period; set-up times use the median of the whole run.
REFERENCE_KERNEL_MS = 2.8
KERNEL_EVERY = 4
LOCAL_KERNELS = 5

END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# Per-layer metric -> (unit, source). Sources: ("ms", span name) sums the
# span's durations per op; ("self", span name) sums its self time (duration
# minus child spans) per op; ("count", key) sums a count per op; ("ratio",
# num, den) divides run totals. Per-op values are reported as medians. A
# metric whose spans never occur in an op (synth and fileio on crowd and
# wide) is taken per set-up instead. Only generate_scene (renders inside) and
# the harness op span have child spans; every other span's self time is its
# duration.
PER_LAYER = {
    "featuremaps.resize_heat_ms": ("ms", ("ms", "featuremaps.resize_heat")),
    "featuremaps.resize_paf_ms": ("ms", ("ms", "featuremaps.resize_paf")),
    "featuremaps.out_mpix": ("Mpx", ("count", "featuremaps.out_mpix")),
    "decoder.extract_ms": ("ms", ("ms", "decoder.extract_keypoints")),
    "decoder.peaks": ("count", ("count", "decoder.peaks")),
    "decoder.score_ms": ("ms", ("ms", "decoder.collect_limb_candidates")),
    "decoder.pairs_scored": ("count", ("count", "decoder.pairs_scored")),
    "decoder.pairs_kept": ("count", ("count", "decoder.pairs_kept")),
    "decoder.keep_ratio": ("ratio", ("ratio", "decoder.pairs_kept", "decoder.pairs_scored")),
    "decoder.paf_samples": ("count", ("count", "decoder.paf_samples")),
    "decoder.group_ms": ("ms", ("ms", "decoder.group_limbs")),
    "decoder.connections": ("count", ("count", "decoder.connections")),
    "decoder.assemble_ms": ("ms", ("ms", "decoder.assemble_skeletons")),
    "decoder.skeletons": ("count", ("count", "decoder.skeletons")),
    "synth.generate_ms": ("ms", ("ms", "synth.generate_scene")),
    "synth.render_heat_ms": ("ms", ("ms", "synth.render_heatmaps")),
    "synth.render_paf_ms": ("ms", ("ms", "synth.render_pafs")),
    "synth.place_ms": ("ms", ("self", "synth.generate_scene")),
    "synth.full_body_ratio": ("ratio", ("ratio", "synth.full_bodies", "synth.scenes")),
    "fileio.tensor_write_ms": ("ms", ("ms", "fileio.write_tensor")),
    "fileio.tensor_read_ms": ("ms", ("ms", "fileio.read_tensor")),
    "fileio.poses_write_ms": ("ms", ("ms", "fileio.write_poses")),
    "fileio.poses_read_ms": ("ms", ("ms", "fileio.read_poses")),
    "fileio.bytes_written": ("B", ("count", "fileio.bytes_written")),
    "fileio.bytes_read": ("B", ("count", "fileio.bytes_read")),
    "harness.self_ms": ("ms", ("self", "harness.op")),
    "trace.overhead_pct": ("%", None),
}


def _import_posekit():
    src = ROOT / "src"
    if not (src / "posekit" / "__init__.py").is_file():
        raise SystemExit(f"posekit sources not found at {src}; run from a repository checkout")
    sys.path.insert(0, str(src))


def machine_descriptor() -> dict:
    return {"os": f"{platform.system()} {platform.release()}",
            "arch": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__, "nproc": os.cpu_count()}


def config_digest(cfg, map_size) -> str:
    blob = json.dumps({**asdict(cfg), "map_height": map_size[0],
                       "map_width": map_size[1]}, sort_keys=True)
    return hashlib.sha256(blob.encode("ascii")).hexdigest()[:16]


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


class Kernel:
    """The calibration kernel, a decode in miniature: arithmetic and a
    peak-style comparison on a stack the size of ``crowd``'s upsampled
    heatmaps, then an interpreted loop.

    The loop is about a third of the kernel's time. In the host's slow
    periods interpreted code slows more than array code, and a kernel with a
    shorter loop slowed less than the workloads' ops did (README.md).

    It works in buffers it owns, so its time does not depend on the heap
    state the workload leaves behind.
    """

    def __init__(self):
        self.src = np.random.default_rng(0).random((19, 128, 228), dtype=np.float32)
        self.work = np.empty_like(self.src)
        self.mask = np.empty((19, 126, 226), dtype=bool)
        self.other = np.empty_like(self.mask)
        self.ns: list[int] = []

    def time(self) -> None:
        t0 = time.perf_counter_ns()
        np.multiply(self.src, 0.75, out=self.work)
        np.add(self.work, 0.125, out=self.work)
        centre = self.work[:, 1:-1, 1:-1]
        np.greater(centre, self.work[:, :-2, 1:-1], out=self.mask)
        np.greater_equal(centre, self.work[:, 2:, 1:-1], out=self.other)
        self.mask &= self.other
        total = int(np.count_nonzero(self.mask))
        for i in range(12000):
            total += i * i
        self.ns.append(time.perf_counter_ns() - t0)


@dataclass
class Measurement:
    setup_ns: list
    ops: list  # (duration_ns, ok, traced) per op
    tracer: object
    kernel_ns: list

    @property
    def scale(self) -> float:
        """Factor from this run's set-up times to reference-speed times."""
        return REFERENCE_KERNEL_MS * 1e6 / statistics.median(self.kernel_ns)

    def op_scales(self) -> list[float]:
        """Factor from each op's time to reference speed, from the kernel
        samples within LOCAL_KERNELS samples of the one that follows it."""
        after_ops = self.kernel_ns[len(self.setup_ns):]
        local = [statistics.median(after_ops[max(0, j - LOCAL_KERNELS):j + LOCAL_KERNELS + 1])
                 for j in range(len(after_ops))]
        last = len(local) - 1
        return [REFERENCE_KERNEL_MS * 1e6 / local[min(i // KERNEL_EVERY, last)]
                for i in range(len(self.ops))]


def measure(wl, seconds: float, trace: bool) -> Measurement:
    """Set ``wl`` up SETUPS times, then run checked ops until ``seconds`` pass.

    An op or check that raises counts as a failed op. A traced run alternates
    untraced and traced replays so both see the same machine conditions.
    """
    from spans import NULL_TRACER, Tracer

    tracer = Tracer(enabled=trace)
    kernel = Kernel()
    setup_ns = []
    for k in range(SETUPS):
        tracer.unit = f"setup{k}"
        t0 = time.perf_counter_ns()
        with tracer.span("harness.setup"):
            wl.setup(tracer)
        setup_ns.append(time.perf_counter_ns() - t0)
        kernel.time()

    ops = []
    deadline = time.perf_counter() + seconds
    index = 0
    while index < 2 or time.perf_counter() < deadline:
        traced = trace and index % 2 == 1
        tr = tracer if traced else NULL_TRACER
        tracer.unit = f"op{index}"
        t0 = time.perf_counter_ns()
        try:
            with tr.span("harness.op"):
                out = wl.replay(index, tr) if trace else wl.op(index)
        except Exception:
            ops.append((time.perf_counter_ns() - t0, False, traced))
        else:
            elapsed = time.perf_counter_ns() - t0
            try:
                ok = bool(wl.check(out))
            except Exception:
                ok = False
            ops.append((elapsed, ok, traced))
        if index % KERNEL_EVERY == 0:
            kernel.time()
        index += 1
    return Measurement(setup_ns, ops, tracer, kernel.ns)


def end_to_end_metrics(m: Measurement, scaled: bool = True) -> dict:
    """End-to-end metrics, at reference speed if ``scaled``, else raw."""
    op_scales = m.op_scales() if scaled else [1.0] * len(m.ops)
    scale = m.scale if scaled else 1.0
    ms = [ns / 1e6 * s for (ns, _, _), s in zip(m.ops, op_scales)]
    good = sum(ok for _, ok, _ in m.ops)
    return {
        "ops_per_s": good / (sum(ms) / 1e3),
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": p90(ms),
        "ok_ratio": good / len(m.ops),
        "setup_s": statistics.median(m.setup_ns) / 1e9 * scale,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer_metrics(m: Measurement) -> dict:
    """Per-layer metrics from the spans, at reference speed."""
    from spans import self_times_ns

    spans, ops = m.tracer.spans, m.ops
    op_scales = m.op_scales()
    selfs = self_times_ns(spans)
    units: dict[str, dict[str, float]] = {}
    for s in spans:
        acc = units.setdefault(s.unit, {})
        scale = op_scales[int(s.unit[2:])] if s.unit.startswith("op") else m.scale
        for key, value in ((f"ms:{s.name}", s.duration_ns / 1e6 * scale),
                           (f"self:{s.name}", selfs[s.id] / 1e6 * scale),
                           *s.counts.items()):
            acc[key] = acc.get(key, 0.0) + value
    op_units = [u for name, u in units.items() if name.startswith("op")]
    setup_units = [u for name, u in units.items() if name.startswith("setup")]

    def pick(key):
        return op_units if any(key in u for u in op_units) else setup_units

    out = {}
    for name, (_, source) in PER_LAYER.items():
        if source is None:
            continue
        kind, *keys = source
        if kind == "ratio":
            num, den = keys
            chosen = pick(den)
            total = sum(u.get(den, 0.0) for u in chosen)
            out[name] = sum(u.get(num, 0.0) for u in chosen) / total if total else 0.0
        else:
            key = {"ms": "ms:", "self": "self:", "count": ""}[kind] + keys[0]
            out[name] = statistics.median(u.get(key, 0.0) for u in pick(key))
    traced = [ns for ns, _, t in ops if t]
    plain = [ns for ns, _, t in ops if not t]
    base = statistics.median(plain)
    out["trace.overhead_pct"] = 100.0 * (statistics.median(traced) - base) / base
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"{workload}-") as workdir:
        wl = workloads.build(workload, seed, workdir)
        m = measure(wl, seconds, trace)
    stamp = {"workload": workload, "seed": seed, "threads": wl.threads,
             "seconds": seconds, "trace": int(trace), "setups": SETUPS,
             "ops": len(m.ops), "map_size": list(wl.map_size),
             "config_digest": config_digest(workloads.CFG, wl.map_size),
             "machine": machine_descriptor(),
             "placement_retries": wl.placement_retries,
             "kernel_ms": statistics.median(m.kernel_ns) / 1e6,
             "reference_kernel_ms": REFERENCE_KERNEL_MS, "scale": m.scale}
    if trace:
        metrics = per_layer_metrics(m)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
        spans_path.write_text(json.dumps(
            {"stamp": stamp, "spans": [s.to_json() for s in m.tracer.spans]}))
    else:
        metrics = end_to_end_metrics(m)
        stamp["raw"] = end_to_end_metrics(m, scaled=False)
        units = END_TO_END
    failed = sum(not ok for _, ok, _ in m.ops)
    return {"stamp": stamp, "attempted": len(m.ops), "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="crowd, wide or roundtrip")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    _import_posekit()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("stamp " + json.dumps(result["stamp"], sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"attempted {result['attempted']} failed {result['failed']} "
          f"fail_ratio {result['failed'] / result['attempted']:.6g}")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
