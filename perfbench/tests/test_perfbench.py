"""Tests of the benchmark itself: inputs, metric names, tiny runs, checks, tracer.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def _bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _write(tmp_path, workload, seed, name):
    workdir = str(tmp_path / name)
    files = inputs.write_inputs(workload, seed, workdir)
    return workdir, files


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    first, files = _write(tmp_path, workload, 7, "a")
    second, _ = _write(tmp_path, workload, 7, "b")
    other, _ = _write(tmp_path, workload, 8, "c")
    match, mismatch, errors = filecmp.cmpfiles(first, second, files, shallow=False)
    assert match == files and not mismatch and not errors
    _, changed, _ = filecmp.cmpfiles(first, other, files, shallow=False)
    if workload == "verify":
        assert changed == []  # its checks use fixed internal seeds
    else:
        assert changed == files


def test_benchmark_json_names_the_metrics_the_code_prints():
    spec = _bench_json()
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.per_layer_metrics()
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def _run_bench(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_tiny_run_prints_every_metric_and_fails_nothing(workload, trace):
    proc = _run_bench(
        ["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace),
         "--size", "tiny"]
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in _bench_json()[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    assert f"failed_frac  0 ratio  (0 failed of {result['attempted']} operations" in proc.stdout
    if not trace:
        for name in expected:
            assert all(result["metrics"][name]["value"] > 0 for name in expected)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_grid_check_counts_corrupted_values_and_statuses(tmp_path):
    import workloads

    workdir = str(tmp_path / "grid")
    inputs.write_inputs("propagator-grid", 5, workdir, "tiny")
    workload = workloads.load("propagator-grid", workdir)
    assert workload.check([workload.run()]).failed == 0
    assert set(workload.counts.values()) != {0} and min(workload.counts.values()) >= 1

    with open(workload.out_path) as handle:
        lines = handle.read().splitlines()
    ok_row = next(i for i, line in enumerate(lines) if line.endswith(",ok"))
    cut_row = next(i for i, line in enumerate(lines) if line.endswith(",on_cut"))
    cells = lines[ok_row].split(",")
    cells[4] = repr(float(cells[4]) * (1 + 1e-9))
    lines[ok_row] = ",".join(cells)
    lines[cut_row] = lines[cut_row][: -len("on_cut")] + "ok"
    with open(workload.out_path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    tally = workload.check([0])
    assert tally.failed == 2
    assert tally.counters["cli.points_on_cut"] == workload.counts["on_cut"] - 1


def test_self_times_add_up_to_the_pass_and_share_concurrent_leaves():
    # root [0, 10]; main [1, 9] under root; two worker spans under main
    # overlapping on [4, 5]; a nested child [6, 7] of the second worker.
    start = np.array([0.0, 1.0, 2.0, 4.0, 6.0])
    end = np.array([10.0, 9.0, 5.0, 8.0, 7.0])
    parent = np.array([-1, 0, 1, 1, 3])
    own = tracer.self_times(start, end, parent)
    assert own == pytest.approx([2.0, 2.0, 2.5, 2.5, 1.0])
    assert sum(own) == pytest.approx(10.0)


def test_tracer_counts_calls_errors_and_quad_evaluations():
    import pulsebeam
    import pulsebeam.signals

    original = pulsebeam.signals.quad
    trace = tracer.Tracer()
    trace.install()
    try:
        trace.begin_pass()
        pulsebeam.analytic_signal(pulsebeam.GaussianPulse(), complex(0.0, -1.0))
        with pytest.raises(pulsebeam.PulsebeamError):
            pulsebeam.complex_distance((1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        trace.end_pass()
    finally:
        trace.uninstall()
    assert pulsebeam.signals.quad is original
    metrics = trace.metrics(1.0, {})
    assert metrics["signals.analytic_signal.calls"] == 1
    assert metrics["signals.quad.calls"] >= 2
    assert metrics["signals.quad.evals"] >= 21 * metrics["signals.quad.calls"]
    assert metrics["geometry.complex_distance.calls"] == 1
    assert metrics["geometry.errors"] == 1
    assert metrics["trace.outside_frac"] < 1.0


def test_times_are_scaled_by_the_mean_calibration():
    import calibrate

    slow = [2.0 * calibrate.REFERENCE_S, 2.0 * calibrate.REFERENCE_S]
    assert calibrate.at_reference_speed([2.0, 4.0], slow) == pytest.approx(1.5)
    assert calibrate.calibration_s() > 0.0
