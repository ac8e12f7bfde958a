"""Tests of the benchmark itself: output contract, failure counting, span nesting.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run as bench  # noqa: E402
import workloads  # noqa: E402
from posekit.synth import GroundTruthPerson  # noqa: E402
from spans import Span, self_times_ns  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def test_metric_tables_match_benchmark_json():
    # roundtrip is runnable by hand but not part of the benchmark (README.md).
    assert [w["name"] for w in SPEC["workloads"]] == ["crowd", "wide"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (unit, _) in bench.PER_LAYER.items()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_short_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.3",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    for m in expected:
        assert any(line.startswith(m["name"] + " ") and line.endswith(" " + m["unit"])
                   for line in lines), m["name"]
    stamp = json.loads(next(line for line in lines if line.startswith("stamp "))[6:])
    assert stamp["seed"] == 3 and stamp["threads"] >= 1
    assert len(stamp["config_digest"]) == 16
    assert {"os", "arch", "python", "numpy", "nproc"} <= set(stamp["machine"])


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "crowd",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _shift(person: GroundTruthPerson, dx: float) -> GroundTruthPerson:
    return GroundTruthPerson(tuple(None if p is None else (p[0] + dx, p[1])
                                   for p in person.keypoints))


def test_wrong_expected_output_fails_every_op_without_aborting(tmp_path):
    wl = workloads.build("wide", 3, tmp_path)
    setup = wl.setup

    def setup_with_shifted_truth(tr):
        setup(tr)
        wl.truth = tuple(_shift(p, 2.0) for p in wl.truth)  # 8 upsampled px

    wl.setup = setup_with_shifted_truth
    m = bench.measure(wl, 0.2, trace=False)
    assert len(m.ops) >= 2
    assert all(not ok for _, ok, _ in m.ops)
    assert bench.end_to_end_metrics(m, scaled=False)["ok_ratio"] == 0.0


def test_raising_op_counts_as_failure(tmp_path):
    wl = workloads.build("wide", 3, tmp_path)
    op = wl.op

    def flaky(index):
        if index % 2:
            raise RuntimeError("injected")
        return op(index)

    wl.op = flaky
    ops = bench.measure(wl, 0.2, trace=False).ops
    assert [ok for _, ok, _ in ops] == [i % 2 == 0 for i in range(len(ops))]


def test_each_op_is_scaled_by_the_kernel_samples_around_it():
    # The host halves its speed after op 80: ops keep their own period's scale.
    ref_ns = int(bench.REFERENCE_KERNEL_MS * 1e6)
    kernel_ns = [ref_ns] * bench.SETUPS + [ref_ns] * 20 + [2 * ref_ns] * 20
    m = bench.Measurement(setup_ns=[0] * bench.SETUPS, ops=[(1, True, False)] * 160,
                          tracer=None, kernel_ns=kernel_ns)
    scales = m.op_scales()
    assert scales[0] == 1.0 and scales[-1] == 0.5
    assert scales[60] == 1.0 and scales[100] == 0.5


def test_traced_spans_nest_with_nonnegative_self_time(tmp_path):
    wl = workloads.build("roundtrip", 5, tmp_path)
    m = bench.measure(wl, 0.1, trace=True)
    tracer = m.tracer
    assert all(ok for _, ok, _ in m.ops)
    spans = {s.id: s for s in tracer.spans}
    for s in spans.values():
        if s.parent is None:
            assert s.name in ("harness.op", "harness.setup")
            continue
        parent = spans[s.parent]
        assert parent.unit == s.unit
        assert parent.start_ns <= s.start_ns <= s.end_ns <= parent.end_ns
    assert all(v >= 0 for v in self_times_ns(tracer.spans).values())
    render_parents = {spans[s.parent].name for s in spans.values()
                      if s.name.startswith("synth.render_")}
    assert render_parents == {"synth.generate_scene"}


def test_infeasible_placement_moves_to_the_next_candidate_seed():
    from spans import NULL_TRACER

    truth, *_, retries = workloads.make_scene(20, workloads.SMALL_MAP, 202, NULL_TRACER)
    assert retries == 1 and len(truth) == 20


def test_self_time_subtracts_the_union_of_children():
    def span(i, parent, start, end):
        s = Span(None, i, parent, "op0", "x")
        s.start_ns, s.end_ns = start, end
        return s

    spans = [span(0, None, 0, 100), span(1, 0, 10, 30), span(2, 0, 20, 50),
             span(3, 0, 90, 100)]
    assert self_times_ns(spans) == {0: 50, 1: 20, 2: 30, 3: 10}
