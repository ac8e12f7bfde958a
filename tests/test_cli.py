"""Command-line interface: flows, output shapes, and exit codes."""

import json
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import posekit
from posekit import FeatureMaps, read_poses, read_tensor
from posekit.cli import main
from posekit.fileio import TENSOR_HEADER_SIZE


def _synth(tmp_path, name, persons=3, size="32x57", seed=0):
    out_dir = tmp_path / name
    code = main(["synth", "--persons", str(persons), "--size", size,
                 "--seed", str(seed), "--out-dir", str(out_dir)])
    assert code == 0
    return out_dir


# ---------------------------------------------------------------------------
# Happy paths
# ---------------------------------------------------------------------------

def test_synth_then_decode_prints_count(tmp_path, capsys):
    fixture = _synth(tmp_path, "scene")
    capsys.readouterr()
    code = main(["decode", "--heatmaps", str(fixture / "heatmaps.ptns"),
                 "--pafs", str(fixture / "pafs.ptns"), "--orig-size", "256x456"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "3 skeletons"


def test_decode_json_and_out_file_agree(tmp_path, capsys):
    fixture = _synth(tmp_path, "scene", persons=2)
    out_file = tmp_path / "poses.json"
    capsys.readouterr()
    code = main(["decode", "--heatmaps", str(fixture / "heatmaps.ptns"),
                 "--pafs", str(fixture / "pafs.ptns"), "--orig-size", "256x456",
                 "--out", str(out_file), "--json"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert json.loads(stdout) == json.loads(out_file.read_bytes())
    doc = read_poses(out_file)
    assert len(doc.skeletons) == 2
    assert doc.geometry.original_height == 256


def test_decode_scales_back_to_original_image(tmp_path, capsys):
    fixture = _synth(tmp_path, "scene", persons=1)
    capsys.readouterr()
    code = main(["decode", "--heatmaps", str(fixture / "heatmaps.ptns"),
                 "--pafs", str(fixture / "pafs.ptns"), "--orig-size", "720x1280",
                 "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    xs = [kp["x"] for sk in doc["skeletons"] for kp in sk["keypoints"] if kp]
    # 57-wide maps at scale 256/720 cover an original width of 1280.
    assert xs and all(-10.0 < x < 1290.0 for x in xs)
    assert doc["geometry"]["original_width"] == 1280


def test_synth_is_deterministic_per_seed(tmp_path):
    first = _synth(tmp_path, "a", persons=4, seed=5)
    second = _synth(tmp_path, "b", persons=4, seed=5)
    third = _synth(tmp_path, "c", persons=4, seed=6)
    for name in ("heatmaps.ptns", "pafs.ptns", "truth.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    assert (first / "truth.json").read_bytes() != (third / "truth.json").read_bytes()


def test_synth_json_summary(tmp_path, capsys):
    out_dir = tmp_path / "scene"
    code = main(["synth", "--persons", "2", "--out-dir", str(out_dir), "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {"persons": 2,
                                                   "out_dir": str(out_dir)}


def test_flops_baseline_json(capsys):
    assert main(["flops", "--arch", "baseline", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["arch"] == "baseline"
    assert payload["total_gflops"] == pytest.approx(135.934, abs=1e-3)
    assert payload["total_params"] == 52_311_446


def test_flops_variants_json_is_a_list(capsys):
    assert main(["flops", "--arch", "variants", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [entry["arch"] for entry in payload] == [
        "mobilenet_v1_conv4_1",
        "dilated_mobilenet_v2_conv6_3",
        "dilated_mobilenet_v1_conv5_5",
        "dilated_mobilenet_v1_conv5_6",
    ]


def test_flops_text_report(capsys):
    assert main(["flops", "--arch", "lightweight"]) == 0
    out = capsys.readouterr().out
    assert "Architecture: lightweight at 368x368" in out
    assert "Parameters: 3.99M" in out


def test_bench_json_report(tmp_path, capsys):
    fixture = _synth(tmp_path, "scene", persons=1, size="24x33")
    json_out = tmp_path / "report.json"
    capsys.readouterr()
    code = main(["bench", "--scenario", str(fixture), "--json",
                 "--json-out", str(json_out)])
    assert code == 0
    stdout_payload = json.loads(capsys.readouterr().out)
    assert stdout_payload == json.loads(json_out.read_text())
    assert stdout_payload["mode"] == "optimized"
    assert stdout_payload["scenario"] == "scene"
    assert stdout_payload["median_ns"]["Total"] >= 1


def test_bench_naive_mode_runs(tmp_path, capsys):
    fixture = _synth(tmp_path, "scene", persons=1, size="24x33")
    capsys.readouterr()
    code = main(["bench", "--scenario", str(fixture), "--mode", "naive", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["mode"] == "naive"


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_missing_tensor_file_exits_2(tmp_path, capsys):
    code = main(["decode", "--heatmaps", str(tmp_path / "nope.ptns"),
                 "--pafs", str(tmp_path / "nope.ptns"), "--orig-size", "256x456"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_corrupt_tensor_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ptns"
    bad.write_bytes(b"JUNKJUNKJUNK")
    code = main(["decode", "--heatmaps", str(bad), "--pafs", str(bad),
                 "--orig-size", "256x456"])
    assert code == 2


def test_dimension_mismatch_exits_3(tmp_path, capsys):
    big = _synth(tmp_path, "big", persons=1, size="32x57")
    small = _synth(tmp_path, "small", persons=1, size="16x24")
    code = main(["decode", "--heatmaps", str(big / "heatmaps.ptns"),
                 "--pafs", str(small / "pafs.ptns"), "--orig-size", "256x456"])
    assert code == 3


@pytest.mark.parametrize("subcommand", ["decode", "bench"])
def test_heatmaps_as_pafs_exit_3(tmp_path, capsys, subcommand):
    fixture = _synth(tmp_path, "scene", persons=1)
    (fixture / "pafs.ptns").write_bytes((fixture / "heatmaps.ptns").read_bytes())
    argv = (["decode", "--heatmaps", str(fixture / "heatmaps.ptns"),
             "--pafs", str(fixture / "pafs.ptns"), "--orig-size", "256x456"]
            if subcommand == "decode" else ["bench", "--scenario", str(fixture)])
    assert main(argv) == 3
    assert "expected 38 PAF channels, got 19" in capsys.readouterr().err


def test_non_finite_maps_exit_2(tmp_path, capsys, monkeypatch):
    # read_tensor rejects non-finite payloads itself; maps that reach decode
    # another way must be refused there with the same exit code.
    fixture = _synth(tmp_path, "scene", persons=1)
    pafs = read_tensor(fixture / "pafs.ptns")
    data = pafs.data.copy()
    data[0, 3, 3] = np.nan
    real_read = read_tensor
    monkeypatch.setattr("posekit.cli.read_tensor", lambda path: (
        FeatureMaps(data) if str(path).endswith("pafs.ptns") else real_read(path)))
    code = main(["decode", "--heatmaps", str(fixture / "heatmaps.ptns"),
                 "--pafs", str(fixture / "pafs.ptns"), "--orig-size", "256x456"])
    assert code == 2
    assert "finite" in capsys.readouterr().err


def test_out_of_range_tensor_exits_2(tmp_path, capsys):
    # Finite float32 values that the resize's b - a would overflow.
    fixture = _synth(tmp_path, "scene", persons=1)
    path = fixture / "heatmaps.ptns"
    buf = bytearray(path.read_bytes())
    struct.pack_into("<ff", buf, TENSOR_HEADER_SIZE, 3e38, -3e38)
    path.write_bytes(buf)
    code = main(["decode", "--heatmaps", str(path), "--pafs", str(fixture / "pafs.ptns"),
                 "--orig-size", "256x456"])
    assert code == 2
    assert "payload: feature maps must hold finite values" in capsys.readouterr().err


def test_deeply_nested_scene_truth_exits_2(tmp_path, capsys):
    fixture = _synth(tmp_path, "scene", persons=1)
    (fixture / "truth.json").write_bytes(b"[" * 100_000)
    assert main(["bench", "--scenario", str(fixture)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_non_finite_scene_truth_exits_2(tmp_path, capsys):
    fixture = _synth(tmp_path, "scene", persons=1)
    truth = fixture / "truth.json"
    truth.write_text(truth.read_text().replace('"limb_width":1.5', '"limb_width":NaN'))
    code = main(["bench", "--scenario", str(fixture)])
    assert code == 2
    assert "limb_width must be finite" in capsys.readouterr().err


def test_non_positive_scene_truth_exits_2(tmp_path, capsys):
    fixture = _synth(tmp_path, "scene", persons=1)
    truth = fixture / "truth.json"
    truth.write_text(truth.read_text().replace('"sigma":2.0', '"sigma":-1'))
    code = main(["bench", "--scenario", str(fixture)])
    assert code == 2
    assert "sigma must be positive" in capsys.readouterr().err


def test_negative_synth_seed_exits_2(tmp_path, capsys):
    code = main(["synth", "--persons", "1", "--seed", "-1", "--out-dir", str(tmp_path / "x")])
    assert code == 2
    assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("factor", ["0", "-3"])
def test_upsample_below_one_exits_2(tmp_path, capsys, factor):
    fixture = _synth(tmp_path, "scene", persons=1)
    code = main(["decode", "--heatmaps", str(fixture / "heatmaps.ptns"),
                 "--pafs", str(fixture / "pafs.ptns"), "--orig-size", "256x456",
                 "--upsample", factor])
    assert code == 2
    assert "upsample_factor must be an integer >= 1" in capsys.readouterr().err


def test_infeasible_scene_exits_4(tmp_path, capsys):
    code = main(["synth", "--persons", "100", "--size", "20x20",
                 "--out-dir", str(tmp_path / "dense")])
    assert code == 4
    assert "error:" in capsys.readouterr().err


def test_gate_failure_exits_5(tmp_path, capsys, monkeypatch):
    fixture = _synth(tmp_path, "scene", persons=1, size="24x33")
    monkeypatch.setattr("posekit.bench.compare_skeletons", lambda *a, **k: "forced")
    code = main(["bench", "--scenario", str(fixture)])
    assert code == 5


def test_bench_too_few_frames_exits_2(tmp_path, capsys):
    fixture = _synth(tmp_path, "scene", persons=1, size="24x33")
    code = main(["bench", "--scenario", str(fixture), "--frames", "1"])
    assert code == 2


def test_bad_size_argument_is_a_usage_error(capsys):
    for argv in (["synth", "--persons", "1", "--size", "banana", "--out-dir", "x"],
                 ["synth", "--persons", "1", "--size", "0x57", "--out-dir", "x"],
                 ["flops", "--input", "368x0"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
    assert "sizes must be positive, got '368x0'" in capsys.readouterr().err


def test_threads_env_is_ignored(tmp_path, capsys, monkeypatch):
    fixture = _synth(tmp_path, "scene", persons=1)
    monkeypatch.setenv("POSE_DECODE_THREADS", "lots")
    capsys.readouterr()
    code = main(["decode", "--heatmaps", str(fixture / "heatmaps.ptns"),
                 "--pafs", str(fixture / "pafs.ptns"), "--orig-size", "256x456"])
    assert code == 0
    assert "1 skeletons" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["flops", "--arch", "baseline", "--seed", "1"],
    ["flops", "--arch", "baseline", "--threads", "1"],
    ["synth", "--persons", "1", "--out-dir", "x", "--threads", "2"],
    ["decode", "--heatmaps", "h", "--pafs", "p", "--orig-size", "256x456", "--seed", "1"],
    ["decode", "--heatmaps", "h", "--pafs", "p", "--orig-size", "256x456", "--threads", "2"],
    ["bench", "--scenario", "x", "--seed", "1"],
    ["bench", "--scenario", "x", "--threads", "2"],
], ids=["flops-seed", "flops-threads", "synth-threads", "decode-seed", "decode-threads",
       "bench-seed", "bench-threads"])
def test_flags_a_subcommand_does_not_read_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_threads_flag_raises_no_deprecation_warning(tmp_path, capsys):
    # Decode and bench must not reach the library's deprecated ``threads``.
    fixture = _synth(tmp_path, "scene", persons=1, size="24x33")
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        assert main(["decode", "--heatmaps", str(fixture / "heatmaps.ptns"),
                     "--pafs", str(fixture / "pafs.ptns"), "--orig-size", "192x264"]) == 0
        assert main(["bench", "--scenario", str(fixture)]) == 0


def test_pyproject_version_matches_the_package():
    # A regex, not tomllib, which Python 3.10 lacks.
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^version = "([^"]+)"$', text, re.M).group(1) == posekit.__version__


def test_public_names_agree():
    # posekit.__all__, decoder.__all__ and the README's list of public stage
    # functions describe one surface.
    public = set(posekit.__all__)
    assert all(hasattr(posekit, name) for name in public)
    stages = set(posekit.decoder.__all__)
    assert stages <= public
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"The public stage functions \(([^)]*)\)", readme).group(1)
    listed = set(re.findall(r"`(\w+)`", sentence))
    assert listed and listed <= stages
    assert "score_connection" not in public | stages | listed


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "posekit.cli", "flops", "--arch", "baseline", "--json"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["arch"] == "baseline"
