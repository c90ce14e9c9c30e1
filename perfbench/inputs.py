"""Seeded input generation for the pulsebeam benchmark.

Every input a workload hands to the program is made here from the
benchmark seed and written to a work directory: grid configs as JSON, the
sampled driving signal as a two-column CSV, and the link list as JSON.
The same seed and size give byte-identical files; the program only ever
sees these files, never the seed.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

WORKLOADS = ("propagator-grid", "wavelet-grid", "link-sweep", "verify")

# Points per grid axis, links per pass and sampled-signal length, by size.
SIZES = {
    "full": {"propagator-grid": 201, "wavelet-grid": 61, "links": 100, "samples": 41},
    "tiny": {"propagator-grid": 21, "wavelet-grid": 9, "links": 4, "samples": 41},
}

GRID_HALF_WIDTH = 2.0
# At --threads 2 the pass time on a shared 2-core box spread by 16% between
# runs (two threads handing the GIL back and forth), too much for a bound.
WAVELET_THREADS = 1
RESIDUAL_STEP = 1e-2
JUMP_WIDTHS = 2.0
VERIFY_CHECKS = tuple(str(i) for i in range(1, 12))
VERIFY_CHECKS_TINY = ("5", "8", "9", "10")


def _rng(workload: str, seed: int) -> np.random.Generator:
    # One independent stream per workload, so adding a workload never
    # changes another workload's inputs for the same seed.
    return np.random.default_rng([WORKLOADS.index(workload), int(seed)])


def _dump(path: str, obj) -> None:
    with open(path, "w", newline="\n") as handle:
        json.dump(obj, handle, indent=1, sort_keys=True)
        handle.write("\n")


def grid_axis(count: int):
    """The grid axis the CLI builds from the generated config."""
    return np.linspace(-GRID_HALF_WIDTH, GRID_HALF_WIDTH, count)


def _axis_extent(rng: np.random.Generator, count: int, lo: float, hi: float, margin):
    """An axis-aligned interior extension whose branch circle lands on grid points.

    The extension lies along x1 or x3 with radius a equal to a grid value
    in [lo, hi], so the cut plane (the other axis' zero row) holds on_cut
    points and the point at distance exactly a on that row is on the branch
    circle.  Its lag exceeds a by a draw from the `margin` interval.
    """
    xs = grid_axis(count)
    if xs[(count - 1) // 2] != 0.0:
        raise RuntimeError("grid axis must contain 0.0 exactly")
    radii = xs[(xs >= lo) & (xs <= hi)]
    a = float(radii[int(rng.integers(len(radii)))])
    axis = int(rng.choice([0, 2]))
    sign = float(rng.choice([-1.0, 1.0]))
    space = [0.0, 0.0, 0.0]
    space[axis] = sign * a
    return space + [a + float(rng.uniform(*margin))]


def _grid(count: int, t: float) -> dict:
    axis = {"min": -GRID_HALF_WIDTH, "max": GRID_HALF_WIDTH, "count": count}
    return {"x1": dict(axis), "x3": dict(axis), "t": t}


def propagator_config(seed: int, size: str = "full") -> dict:
    rng = _rng("propagator-grid", seed)
    count = SIZES[size]["propagator-grid"]
    extent = _axis_extent(rng, count, 0.5, 1.5, (0.1, 0.6))
    return {"extent": extent, "grid": _grid(count, float(rng.uniform(-1.0, 2.0)))}


def wavelet_config(seed: int, size: str = "full") -> dict:
    rng = _rng("wavelet-grid", seed)
    count = SIZES[size]["wavelet-grid"]
    extent = _axis_extent(rng, count, 0.8, 1.2, (0.4, 0.5))
    t = float(rng.uniform(1.0, 1.5))
    signal = {
        "type": "gaussian",
        "center": float(rng.uniform(-0.2, 0.2)),
        "width": float(rng.uniform(0.9, 1.1)),
        "amplitude": float(rng.uniform(0.5, 2.0)),
    }
    return {"extent": extent, "grid": _grid(count, t), "signal": signal}


def sampled_signal(rng: np.random.Generator, count: int):
    """A positive bump on [0, 4] with jittered sample times, zero at both ends."""
    times = np.linspace(0.0, 4.0, count)
    spacing = times[1] - times[0]
    times[1:-1] += rng.uniform(-0.3, 0.3, count - 2) * spacing
    envelope = np.sin(np.pi * times / 4.0) ** 2
    values = envelope * rng.uniform(0.7, 1.3, count)
    values[0] = values[-1] = 0.0
    return [float(t) for t in times], [float(v) for v in values]


def _unit(rng: np.random.Generator):
    v = rng.normal(size=3)
    return v / math.sqrt(float(v @ v))


def _endpoint_extent(rng: np.random.Generator, point: bool):
    if point:
        return [0.0, 0.0, 0.0, 0.0]
    radius = float(rng.uniform(0.2, 0.6))
    direction = _unit(rng)
    return [float(c) for c in radius * direction] + [radius + float(rng.uniform(0.3, 0.6))]


def link_inputs(seed: int, size: str = "full"):
    """Return (spec, sample times, sample values) for link-sweep.

    Links have separations of 3 to 6 and delays that land in the support
    of both driving signals.  One endpoint in eight is an idealized point
    (null extension).  The summed extension radius stays below 1.2, so
    every wave-residual stencil (step 1e-2) is far from the cut disk and
    every jump ladder stays inside |x|; the summed lag stays below 2.4,
    under 2.7 pulse widths (see README for where boundary_jump stops
    converging).
    """
    rng = _rng("link-sweep", seed)
    times, values = sampled_signal(rng, SIZES[size]["samples"])
    gaussian = {
        "center": float(rng.uniform(1.5, 2.5)),
        "width": float(rng.uniform(0.9, 1.1)),
        "amplitude": float(rng.uniform(0.5, 2.0)),
    }
    # Retarded times stay within 2 widths of the Gaussian's centre: further
    # out, boundary_jump ends in AccuracyError on some links (see README).
    spread = JUMP_WIDTHS * gaussian["width"]
    delays = (max(0.3, gaussian["center"] - spread), min(3.7, gaussian["center"] + spread))
    links = []
    for _ in range(SIZES[size]["links"]):
        emitter_center = [float(c) for c in rng.uniform(-5.0, 5.0, 3)] + [
            float(rng.uniform(-2.0, 2.0))
        ]
        distance = float(rng.uniform(3.0, 6.0))
        offset = distance * _unit(rng)
        delay = float(rng.uniform(*delays))
        receiver_center = [
            emitter_center[i] + float(offset[i]) for i in range(3)
        ] + [emitter_center[3] + distance + delay]
        point_side = int(rng.integers(0, 8))
        links.append(
            {
                "emitter": {
                    "center": emitter_center,
                    "extent": _endpoint_extent(rng, point_side == 0),
                },
                "receiver": {
                    "center": receiver_center,
                    "extent": _endpoint_extent(rng, point_side == 1),
                },
            }
        )
    spec = {
        "links": links,
        "gaussian": gaussian,
        "signal_csv": "signal.csv",
        "residual_step": RESIDUAL_STEP,
    }
    return spec, times, values


def write_inputs(workload: str, seed: int, workdir: str, size: str = "full") -> list:
    """Write the workload's input files into workdir; return their names."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    os.makedirs(workdir, exist_ok=True)
    if workload == "propagator-grid":
        _dump(os.path.join(workdir, "config.json"), propagator_config(seed, size))
        return ["config.json"]
    if workload == "wavelet-grid":
        _dump(os.path.join(workdir, "config.json"), wavelet_config(seed, size))
        return ["config.json"]
    if workload == "link-sweep":
        spec, times, values = link_inputs(seed, size)
        with open(os.path.join(workdir, "signal.csv"), "w", newline="\n") as handle:
            handle.write("time,value\n")
            for t, v in zip(times, values):
                handle.write(f"{t!r},{v!r}\n")
        _dump(os.path.join(workdir, "links.json"), spec)
        return ["links.json", "signal.csv"]
    # verify takes no generated input: its checks use fixed internal seeds.
    checks = VERIFY_CHECKS_TINY if size == "tiny" else VERIFY_CHECKS
    _dump(os.path.join(workdir, "config.json"), {"only": list(checks)})
    return ["config.json"]
