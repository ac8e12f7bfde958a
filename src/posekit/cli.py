"""Command-line interface.

Exit codes are part of the contract: 0 success, 2 parse/format/usage
problems, 3 dimension mismatches, 4 infeasible scene placement, 5 benchmark
gate failure. Scripts branch on these. ``_EXIT_CODES`` is the one table from
error class to code, and ``_ARCHS`` the one table from ``flops --arch``
choice to the networks it reports.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from . import archcalc, bench
from .decoder import decode
from .errors import DimensionMismatchError, GateFailureError, PlacementInfeasibleError
from .featuremaps import STRIDE, compute_input_geometry
from .fileio import (
    PoseDocument,
    pose_document_bytes,
    read_tensor,
    write_poses,
    write_scene_truth,
    write_tensor,
)
from .skeleton import DecoderConfig
from .synth import RenderConfig, generate_scene

# First match wins: a DimensionMismatchError is also a ValueError. Parse and
# schema errors (TensorFormatError, SchemaError, InvalidArchitectureError)
# are ValueErrors too.
_EXIT_CODES = (
    (DimensionMismatchError, 3),
    (PlacementInfeasibleError, 4),
    (GateFailureError, 5),
    (ValueError, 2),
    (OSError, 2),
)

# Each ``flops --arch`` choice and the networks it reports, at an input size.
_ARCHS = {
    "baseline": lambda h, w: [archcalc.builtin_baseline_openpose(h, w)],
    "lightweight": lambda h, w: [archcalc.builtin_lightweight(h, w)],
    "variants": archcalc.builtin_backbone_variants,
}


def _parse_size(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d+)x(\d+)", text)
    if not m:
        raise argparse.ArgumentTypeError(f"expected HxW, e.g. 256x456, got {text!r}")
    h, w = int(m.group(1)), int(m.group(2))
    if min(h, w) < 1:
        raise argparse.ArgumentTypeError(f"sizes must be positive, got {text!r}")
    return h, w


def cmd_decode(args: argparse.Namespace) -> int:
    heatmaps = read_tensor(args.heatmaps)
    pafs = read_tensor(args.pafs)
    orig_h, orig_w = args.orig_size
    geometry = compute_input_geometry(orig_h, orig_w, heatmaps.height * STRIDE)
    cfg = DecoderConfig(upsample_factor=args.upsample)
    skeletons = decode(heatmaps, pafs, geometry, cfg)
    doc = PoseDocument(geometry=geometry, skeletons=tuple(skeletons))
    if args.out:
        write_poses(doc, args.out)
    if args.json:
        sys.stdout.buffer.write(pose_document_bytes(doc))
    else:
        print(f"{len(skeletons)} skeletons")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    map_h, map_w = args.size
    cfg = RenderConfig(map_height=map_h, map_width=map_w, seed=args.seed)
    persons, heatmaps, pafs = generate_scene(args.persons, cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_tensor(heatmaps, out_dir / "heatmaps.ptns")
    write_tensor(pafs, out_dir / "pafs.ptns")
    write_scene_truth(persons, cfg, out_dir / "truth.json")
    if args.json:
        print(json.dumps({"persons": len(persons), "out_dir": str(out_dir)},
                         sort_keys=True))
    else:
        print(f"wrote {len(persons)} persons to {out_dir}")
    return 0


def cmd_flops(args: argparse.Namespace) -> int:
    reports = [archcalc.evaluate(a) for a in _ARCHS[args.arch](*args.input)]
    if args.json:
        payload = [r.to_json_dict() for r in reports]
        print(json.dumps(payload[0] if len(payload) == 1 else payload))
    else:
        print("\n\n".join(r.format_text() for r in reports))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    scenario = bench.load_scenario(args.scenario)
    report = bench.run_benchmark(scenario, args.mode, frames=args.frames)
    payload = json.dumps(report.to_json_dict())
    if args.json_out:
        Path(args.json_out).write_text(payload + "\n", encoding="ascii")
    if args.json:
        print(payload)
    else:
        print(bench.format_report(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true",
                           help="machine-readable output on stdout")

    parser = argparse.ArgumentParser(
        prog="posekit",
        description="Multi-person pose decoding, synthetic fixtures, "
                    "network complexity reports, and benchmarks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("decode", parents=[json_flag],
                       help="decode heatmap/PAF tensors into skeletons")
    p.add_argument("--heatmaps", required=True, help="heatmap tensor file")
    p.add_argument("--pafs", required=True, help="PAF tensor file")
    p.add_argument("--orig-size", type=_parse_size, required=True, metavar="HxW",
                   help="original image size the maps were computed from")
    p.add_argument("--upsample", type=int, default=DecoderConfig.upsample_factor,
                   help="upsample factor (default %(default)s)")
    p.add_argument("--out", help="write a pose document here")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("synth", parents=[json_flag],
                       help="generate a synthetic scene fixture")
    p.add_argument("--persons", type=int, required=True, help="number of persons")
    p.add_argument("--size", type=_parse_size, default=(32, 57), metavar="HxW",
                   help="feature-map grid size (default 32x57)")
    p.add_argument("--out-dir", required=True, help="fixture directory")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("flops", parents=[json_flag],
                       help="print a network complexity report")
    p.add_argument("--arch", choices=_ARCHS, required=True)
    p.add_argument("--input", type=_parse_size, default=(368, 368), metavar="HxW",
                   help="network input size (default 368x368)")
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("bench", parents=[json_flag],
                       help="benchmark the decode pipeline on a fixture")
    p.add_argument("--scenario", required=True, help="fixture directory from synth")
    p.add_argument("--mode", choices=bench.MODES, default="optimized")
    p.add_argument("--frames", type=int, default=bench.MIN_FRAMES,
                   help=f"timed frames, minimum {bench.MIN_FRAMES}")
    p.add_argument("--json-out", help="also write the JSON report here")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(error for error, _ in _EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for error, code in _EXIT_CODES if isinstance(exc, error))


if __name__ == "__main__":
    sys.exit(main())
