"""pulsebeam benchmark: run one seeded workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: propagator-grid, wavelet-grid, link-sweep, verify (see
perfbench/README.md for why each exists).  The program is used from the
checkout's `src/` directory; nothing is installed.

With --trace 0 the benchmark times the program untraced and reports the
end-to-end metrics: set-up time (several fresh interpreters), pass wall
time, both at a reference machine speed (calibrate.py), items per second,
the workload process's peak RSS, and the share of operations that failed
(printed with both counts; the last line carries them as `attempted` and
`failed`).  With --trace 1 it
reports the per-layer metrics of a traced run instead.  Every pass's
output is checked against the independent references in reference.py.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

The exit code is 0 only when the workload ran to the end; a run that
cannot start (no `src/pulsebeam` in the checkout, say) exits with 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)
import calibrate  # noqa: E402
import inputs  # noqa: E402
from tracer import per_layer_metrics  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
ITEM_NAMES = {
    "propagator-grid": "grid points",
    "wavelet-grid": "grid points",
    "link-sweep": "links",
    "verify": "acceptance checks",
}
SETUP_PROBES = {"full": 5, "tiny": 2}
# Calibration samples taken before the first set-up probe and after each.
CALIBRATIONS_PER_PROBE = 3
# Timed passes at least, per run; a traced run has this many untraced and traced.
MIN_PASSES = {"full": 3, "tiny": 2}
MIN_TRACED_PASSES = 2
DEADLINE_S = 170.0


class BenchError(Exception):
    """The run could not be completed; no result is printed."""


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _run(cmd, env, timeout: float, what: str):
    if timeout <= 0:
        raise BenchError(f"no time left for {what}")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-5:]
        raise BenchError(f"{what} exited with code {proc.returncode}: " + " | ".join(tail))
    return proc


def measure(args) -> dict:
    if not os.path.isfile(os.path.join(SRC, "pulsebeam", "__init__.py")):
        raise BenchError(f"no pulsebeam sources under {SRC}; run from a checkout of the repository")
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        inputs.write_inputs(args.workload, args.seed, workdir, args.size)
        setup, calibrations = [], []
        if not args.trace:
            probe = [sys.executable, os.path.join(HERE, "probe.py"), args.workload, workdir]
            calibrations += [calibrate.calibration_s() for _ in range(CALIBRATIONS_PER_PROBE)]
            for _ in range(SETUP_PROBES[args.size]):
                start = time.perf_counter()
                _run(probe, env, min(60.0, deadline - time.monotonic()), "set-up probe")
                setup.append(time.perf_counter() - start)
                calibrations += [calibrate.calibration_s() for _ in range(CALIBRATIONS_PER_PROBE)]
        result_path = os.path.join(workdir, "result.json")
        child = [
            sys.executable, os.path.join(HERE, "child.py"),
            "--workload", args.workload, "--workdir", workdir, "--src", SRC,
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--min-passes", str(MIN_TRACED_PASSES if args.trace else MIN_PASSES[args.size]),
            "--result", result_path,
        ]
        if args.trace:
            trace_file = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.npz")
            child += ["--trace-file", trace_file]
        _run(child, env, deadline - time.monotonic(), f"workload {args.workload}")
        with open(result_path) as handle:
            result = json.load(handle)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_s"], result["setup_calibration_s"] = setup, calibrations
    return result


def _timing(name: str, raw, calibrations, what: str) -> float:
    """Print a time at the reference machine speed, with its raw figures."""
    value = calibrate.at_reference_speed(raw, calibrations)
    q1, q3 = _quartiles(raw)
    print(f"  {name:<12} {value:.6f} s  mean of {len(raw)} {what}, at the reference machine "
          f"speed ({len(calibrations)} calibration loops, mean "
          f"{statistics.fmean(calibrations):.6f} s, reference {calibrate.REFERENCE_S} s)")
    print(f"  {'':<12} raw: mean {statistics.fmean(raw):.6f} s, median "
          f"{statistics.median(raw):.6f} s, q1 {q1:.6f} s, q3 {q3:.6f} s")
    return value


def report(args, result: dict) -> dict:
    items = result["items"]
    attempted, failed = result["attempted"], result["failed"]
    mode = "on (per-layer metrics)" if args.trace else "off"
    print(f"pulsebeam benchmark: workload {args.workload}, seed {args.seed}, tracing {mode}")
    print("  closed loop, one caller: each pass starts when the previous one returned")
    print(f"  inputs: {result['description']}")
    wall = _timing("wall_s", result["pass_s"], result["calibration_s"],
                   "untraced passes after 1 warm-up")
    print(f"  items_per_s  {items / wall:.3f} 1/s  ({items} {ITEM_NAMES[args.workload]} per pass)")
    if args.trace:
        traced = result["traced_pass_s"]
        t1, t3 = _quartiles(traced)
        print(f"  traced pass  raw median {statistics.median(traced):.6f} s of {len(traced)} "
              f"(q1 {t1:.6f}, q3 {t3:.6f}); per-layer times below are raw")
    else:
        setup = _timing("setup_s", result["setup_s"], result["setup_calibration_s"],
                        "fresh interpreters importing pulsebeam.cli and loading the inputs")
        print(f"  peak_rss_mb  {result['peak_rss_mb']:.3f} MB  (ru_maxrss of the workload process)")
    print(f"  failed_frac  {failed / attempted:.6g} ratio  ({failed} failed of {attempted} "
          "operations attempted)")
    for note in result["notes"]:
        print(f"  failure: {note}")

    if args.trace:
        metrics = {}
        for name, unit, _ in per_layer_metrics():
            value = result["per_layer"][name]
            metrics[name] = {"value": value, "unit": unit}
            if value:
                print(f"  {name:<42} {value:.6g} {unit}")
    else:
        values = {
            "setup_s": setup,
            "wall_s": wall,
            "items_per_s": items / wall,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one seeded pulsebeam workload and print its metrics."
    )
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time budget of the timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload, for the benchmark's own tests")
    args = parser.parse_args(argv)
    try:
        result = measure(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report(args, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
