"""Run one workload in this (fresh) process and write its result as JSON.

Started by run.py with the checkout's `src` on PYTHONPATH.  The loop is
closed with one caller: each pass starts only after the previous one
returned.  After one warm-up pass, passes are timed until the next one
would overrun the time budget (at least --min-passes).  Every pass's
output is checked, outside the timed region.

A pass is a workload's steps run in order (one CLI call for the grids,
one acceptance check per step for verify, a chunk of links for
link-sweep).  Untraced passes run the calibration loop of calibrate.py
before the first step and after every step, outside the step timers.
With --trace 1 the budget is split: untraced passes first, then passes
with the tracer installed and no calibration; the per-layer metrics come
from the traced passes and the overhead from comparing the raw medians.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

import calibrate


def _check_program_location(src: str) -> None:
    import pulsebeam

    where = os.path.realpath(os.path.dirname(pulsebeam.__file__))
    if where != os.path.realpath(os.path.join(src, "pulsebeam")):
        raise SystemExit(f"pulsebeam imported from {where}, not from {src}")


class Runner:
    def __init__(self, workload):
        self.workload = workload
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.counters = {}
        self.calibrations = []

    def one_pass(self, calibrated: bool) -> float:
        """Run every step once and check the outputs; return the steps' total time."""
        gc.collect()
        outputs = []
        elapsed = 0.0
        if self.tracer:
            self.tracer.begin_pass()
        if calibrated:
            self.calibrations.append(calibrate.calibration_s())
        for step in self.workload.steps:
            start = time.perf_counter()
            outputs.append(step())
            elapsed += time.perf_counter() - start
            if calibrated:
                self.calibrations.append(calibrate.calibration_s())
        if self.tracer:
            self.tracer.end_pass()
        tally = self.workload.check(outputs)
        self.attempted += tally.attempted
        self.failed += tally.failed
        self.notes += [n for n in tally.notes if n not in self.notes][: 5 - len(self.notes)]
        self.counters = tally.counters
        return elapsed

    def timed(self, budget: float, min_passes: int, calibrated: bool = True) -> list:
        """Times of passes run until the next one would overrun the budget."""
        times = []
        while len(times) < min_passes or sum(times) + statistics.median(times) <= budget:
            times.append(self.one_pass(calibrated))
        return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-passes", type=int, default=3)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-file", help="where --trace 1 writes its spans (.npz)")
    args = parser.parse_args(argv)

    _check_program_location(args.src)
    import workloads

    workload = workloads.load(args.workload, args.workdir)
    runner = Runner(workload)
    runner.one_pass(calibrated=False)
    result = {"description": workload.describe(), "items": workload.items}

    if args.trace:
        from tracer import Tracer

        untraced = runner.timed(args.seconds / 2, args.min_passes)
        tracer = runner.tracer = Tracer()
        tracer.install()
        try:
            traced = runner.timed(args.seconds / 2, args.min_passes, calibrated=False)
        finally:
            tracer.uninstall()
        result["pass_s"] = untraced
        result["traced_pass_s"] = traced
        result["per_layer"] = tracer.metrics(statistics.median(untraced), runner.counters)
        if args.trace_file:
            tracer.save(args.trace_file)
    else:
        result["pass_s"] = runner.timed(args.seconds, args.min_passes)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result.update(
        calibration_s=runner.calibrations,
        attempted=runner.attempted,
        failed=runner.failed,
        notes=runner.notes,
    )
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
