"""The four benchmark workloads: one timed pass each, and its correctness check.

A workload is loaded once from the generated inputs in its work
directory.  One pass runs its `steps` in order, and only the steps are
timed: the CLI in process for the grids (one step) and for verify (one
step per acceptance check), library calls for link-sweep (one step per
chunk of links).  The runner takes a machine-speed calibration sample
(calibrate.py) after every step, so short steps spread the samples over
the whole run.  `check(outputs)` compares one pass's step outputs with the references in
reference.py and returns a Tally: operations attempted and failed, plus
the output counters (points per status, CSV bytes).
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import itertools
import json
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

import reference as ref
from inputs import WAVELET_THREADS, grid_axis

import pulsebeam
import pulsebeam.cli


CSV_HEADER = ["x1", "x2", "x3", "t", "re", "im", "abs", "status"]
CHECK_BLOCK = 2048


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    counters: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def fail(self, count: int, note: str) -> None:
        if count:
            self.failed += count
            if len(self.notes) < 5:
                self.notes.append(note)


def _load_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


class GridWorkload:
    """CLI `propagator` or `wavelet` over a generated x1-x3 grid slice."""

    def __init__(self, name: str, workdir: str):
        self.name = name
        self.config_path = os.path.join(workdir, "config.json")
        self.out_path = os.path.join(workdir, "out.csv")
        self.config = _load_json(self.config_path)
        self.command = "propagator" if name == "propagator-grid" else "wavelet"
        self.threads = 1 if name == "propagator-grid" else WAVELET_THREADS
        grid = self.config["grid"]
        x1 = grid_axis(grid["x1"]["count"])
        x3 = grid_axis(grid["x3"]["count"])
        self.x1, self.x3 = np.repeat(x1, len(x3)), np.tile(x3, len(x1))
        self.t = float(grid["t"])
        self.items = len(self.x1)
        self.steps = (self.run,)
        self._reference()

    def _reference(self) -> None:
        ext = self.config["extent"]
        points = np.column_stack([self.x1, np.zeros_like(self.x1), self.x3])
        rt, self.status = ref.radial_root(points, np.array(ext[:3]))
        if self.command == "propagator":
            self.value = ref.propagator(rt, self.t, ext[3])
            self.floor = 0.0
            self.rel_tol = ref.PROPAGATOR_REL_TOL
        else:
            sig = self.config["signal"]
            z = complex(self.t, -ext[3]) - rt
            g = ref.gaussian_signal(z, sig["center"], sig["width"], sig["amplitude"])
            with np.errstate(invalid="ignore"):
                self.value = g / (4.0 * math.pi * rt)
            self.floor = ref.wavelet_scale(sig["amplitude"], rt)
            self.rel_tol = ref.SIGNAL_REL_TOL
        self.counts = {s: int(np.sum(self.status == s)) for s in (ref.OK, ref.ON_CUT, ref.SINGULAR)}

    def describe(self) -> str:
        ext = self.config["extent"]
        side = self.config["grid"]["x1"]["count"]
        text = (
            f"CLI {self.command} --threads {self.threads} on a {side}x{side} x1-x3 slice "
            f"over [-2, 2], t={self.t:.4g}, extent {ext}"
        )
        if self.command == "wavelet":
            text += f", gaussian {self.config['signal']}"
        return text + f"; reference statuses {self.counts}"

    def run(self):
        if os.path.exists(self.out_path):
            os.unlink(self.out_path)
        argv = [self.command, "--config", self.config_path, "--out", self.out_path,
                "--threads", str(self.threads)]
        return pulsebeam.cli.main(argv)

    def check(self, outputs) -> Tally:
        """Compare the CSV with the reference, streaming it in blocks.

        Reading block by block keeps the check's memory small, so the
        workload process's peak RSS is the program's, not the checker's.
        """
        (code,) = outputs
        tally = Tally(attempted=self.items)
        if code != 0 or not os.path.exists(self.out_path):
            tally.fail(self.items, f"CLI exit code {code}")
            return tally
        counts = dict.fromkeys((ref.OK, ref.ON_CUT, ref.SINGULAR), 0)
        seen = 0
        with open(self.out_path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header != CSV_HEADER:
                tally.fail(self.items, f"CSV header {header}")
                return tally
            while True:
                rows = list(itertools.islice(reader, CHECK_BLOCK))
                if not rows:
                    break
                block = slice(seen, seen + len(rows))
                seen += len(rows)
                if seen > self.items:
                    break
                status, bad = self._check_block(rows, block)
                for key in counts:
                    counts[key] += int(np.sum(status == key))
                if bad.any():
                    first = int(np.argmax(bad))
                    tally.fail(int(bad.sum()), f"{int(bad.sum())} points disagree, first row "
                               f"{block.start + first + 2}: {rows[first]}, expected status "
                               f"{self.status[block][first]} value {self.value[block][first]!r}")
        if seen != self.items:
            tally.fail(self.items, f"CSV has {seen} rows, expected {self.items}")
            return tally
        tally.counters = {
            "cli.csv_bytes": os.path.getsize(self.out_path),
            "cli.points_ok": counts[ref.OK],
            "cli.points_on_cut": counts[ref.ON_CUT],
            "cli.points_singular": counts[ref.SINGULAR],
        }
        return tally

    def _check_block(self, rows, block: slice):
        """Status column and a failure flag per row of one block of CSV rows."""
        cols = list(zip(*rows))
        if len(cols) != len(CSV_HEADER):
            return np.array([""] * len(rows)), np.ones(len(rows), dtype=bool)
        status = np.array(cols[7])
        expected = self.status[block]
        coords_ok = (
            (np.array(cols[0], dtype=float) == self.x1[block])
            & (np.array(cols[1], dtype=float) == 0.0)
            & (np.array(cols[2], dtype=float) == self.x3[block])
            & (np.array(cols[3], dtype=float) == self.t)
        )
        empty = np.array([not (r[4] or r[5] or r[6]) for r in rows])
        filled = (status != ref.SINGULAR) & ~empty
        value = np.full(len(rows), np.nan, dtype=complex)
        magnitude = np.full(len(rows), np.nan)
        if filled.any():
            value[filled] = [complex(float(r[4]), float(r[5])) for r, f in zip(rows, filled) if f]
            magnitude[filled] = [float(r[6]) for r, f in zip(rows, filled) if f]
        reference = self.value[block]
        floor = self.floor[block] if np.ndim(self.floor) else self.floor
        with np.errstate(invalid="ignore"):
            value_ok = ref.close(value, reference, self.rel_tol, floor)
            abs_ok = ref.close(magnitude, np.abs(reference), self.rel_tol, np.abs(floor))
        regular = expected != ref.SINGULAR
        good = coords_ok & (status == expected)
        good &= np.where(regular, filled & value_ok & abs_ok, empty)
        return status, ~good


class LinkSweep:
    """Library calls over the generated links.

    Per link: channel_from_json, channel_metrics, channel_amplitude with the
    sampled signal, wave_residual with the sampled signal, boundary_jump
    with the Gaussian.  The jumps use the Gaussian because the Richardson
    ladder does not converge across the kinks of a piecewise-linear signal.
    """

    OPS_PER_LINK = 5
    LINKS_PER_STEP = 10

    def __init__(self, name: str, workdir: str):
        self.name = name
        spec = _load_json(os.path.join(workdir, "links.json"))
        self.links = spec["links"]
        self.step = float(spec["residual_step"])
        self.sampled = pulsebeam.SampledSignal.from_csv(os.path.join(workdir, spec["signal_csv"]))
        self.gaussian_spec = spec["gaussian"]
        self.gaussian = pulsebeam.GaussianPulse(**spec["gaussian"])
        self.items = len(self.links)
        self.steps = tuple(
            functools.partial(self._run, self.links[i : i + self.LINKS_PER_STEP])
            for i in range(0, self.items, self.LINKS_PER_STEP)
        )
        self._reference()

    def _reference(self) -> None:
        g = self.gaussian_spec
        times, values = self.sampled.times, self.sampled.values
        self.expected = []
        for link in self.links:
            sep, _ = ref.link_geometry(link)
            rt, z = ref.link_wavelet_root(link)
            amplitude = ref.sampled_signal(z, times, values) / (4.0 * math.pi * rt)
            r = math.sqrt(sum(c * c for c in sep[:3]))
            jump = ref.gaussian_value(sep[3] - r, g["center"], g["width"], g["amplitude"])
            self.expected.append(
                {
                    "metrics": ref.link_metrics(link),
                    "amplitude": amplitude,
                    "amplitude_floor": float(ref.wavelet_scale(max(map(abs, values)), rt)),
                    "jump": jump / (4.0 * math.pi * r),
                    "jump_floor": ref.JUMP_ABS_FLOOR * abs(g["amplitude"]) / (4.0 * math.pi * r),
                }
            )

    def describe(self) -> str:
        return (
            f"{self.items} links; sampled signal of {len(self.sampled.times)} samples on "
            f"[{self.sampled.times[0]:g}, {self.sampled.times[-1]:g}]; gaussian {self.gaussian_spec}; "
            f"wave_residual h={self.step:g}"
        )

    def _run(self, links):
        outputs = []
        for link in links:
            row = []
            try:
                ch = pulsebeam.channel_from_json(link)
                row.append(ch)
                row.append(pulsebeam.channel_metrics(ch))
                row.append(pulsebeam.channel_amplitude(ch, self.sampled))
                sep, ext = ch.separation, ch.combined_extent
                row.append(pulsebeam.wave_residual(self.sampled, sep, ext, self.step))
                row.append(pulsebeam.boundary_jump(self.gaussian, sep, ext))
            except Exception as exc:  # counted as failed operations by check()
                row.append(exc)
            outputs.append(row)
        return outputs

    def check(self, outputs) -> Tally:
        rows = [row for step in outputs for row in step]
        tally = Tally(attempted=self.items * self.OPS_PER_LINK)
        if len(rows) != self.items:
            tally.fail(self.items * self.OPS_PER_LINK, f"{len(rows)} link results")
            return tally
        for index, (row, want) in enumerate(zip(rows, self.expected)):
            if row and isinstance(row[-1], Exception):
                exc = row.pop()
                tally.fail(self.OPS_PER_LINK - len(row), f"link {index}: {type(exc).__name__}: {exc}")
            if len(row) < 2:
                continue
            got = row[1]
            for key, value in want["metrics"].items():
                mine = getattr(got, key)
                if not (mine == value or ref.close(mine, value, 1e-12)):
                    tally.fail(1, f"link {index}: metric {key} {mine!r} != {value!r}")
                    break
            if len(row) < 3:
                continue
            if not ref.close(row[2], want["amplitude"], ref.SIGNAL_REL_TOL, want["amplitude_floor"]):
                tally.fail(1, f"link {index}: amplitude {row[2]!r} != {want['amplitude']!r}")
            if len(row) < 4:
                continue
            ratio = abs(row[3]) / abs(want["amplitude"])
            if not ratio <= ref.RESIDUAL_RATIO_MAX:
                tally.fail(1, f"link {index}: |residual|/|W| = {ratio:.3e}")
            if len(row) < 5:
                continue
            if not ref.close(row[4], want["jump"], ref.JUMP_REL_TOL, want["jump_floor"]):
                tally.fail(1, f"link {index}: jump {row[4]!r} != {want['jump']!r}")
        return tally


_VERDICT = re.compile(r"^\[\s*(\d+)\]\s+\S+\s+(PASS|FAIL)\s")


class Verify:
    """CLI `verify --only <n>` in process, one step per check.

    Each check's own verdict is its reference.
    """

    def __init__(self, name: str, workdir: str):
        self.name = name
        self.checks = _load_json(os.path.join(workdir, "config.json"))["only"]
        self.items = len(self.checks)
        self.steps = tuple(functools.partial(self._run, ident) for ident in self.checks)

    def describe(self) -> str:
        return (
            f"CLI verify --only <n> for n in {','.join(self.checks)}, one call per check; "
            "the checks use fixed internal seeds, so the benchmark seed does not affect "
            "this workload"
        )

    @staticmethod
    def _run(ident: str):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = pulsebeam.cli.main(["verify", "--only", ident])
        return code, buffer.getvalue()

    def check(self, outputs) -> Tally:
        tally = Tally(attempted=self.items)
        for ident, (code, text) in zip(self.checks, outputs):
            verdicts = [m.groups() for m in map(_VERDICT.match, text.splitlines()) if m]
            if verdicts != [(ident, "PASS")]:
                tally.fail(1, f"check {ident}: {verdicts or 'no verdict'}")
            elif code != 0:
                tally.fail(1, f"check {ident} passed but verify exited with code {code}")
        return tally


def load(name: str, workdir: str):
    if name in ("propagator-grid", "wavelet-grid"):
        return GridWorkload(name, workdir)
    if name == "link-sweep":
        return LinkSweep(name, workdir)
    if name == "verify":
        return Verify(name, workdir)
    raise ValueError(f"unknown workload {name!r}")
