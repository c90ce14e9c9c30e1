import io
import itertools
import json
import math
import pathlib
import re
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pulsebeam import cli, errors, verification
from pulsebeam.cli import GRID_AXES, main

CHANNEL_OBJ = {
    "emitter": {"center": [0.0, 0.0, 0.0, 0.0], "extent": [0.0, 0.0, 0.8, 1.6]},
    "receiver": {"center": [0.0, 0.0, 10.0, 10.0], "extent": [0.3, 0.0, 0.9, 1.7]},
}


def run_cli(tmp_path, command, config, out_name="out.csv", extra=()):
    config_path = tmp_path / f"{command}.json"
    config_path.write_text(config if isinstance(config, str) else json.dumps(config))
    out_path = tmp_path / out_name
    code = main(
        [command, "--config", str(config_path), "--out", str(out_path), *extra]
    )
    return code, out_path


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_pattern_golden_row(tmp_path):
    config = {"s": 2.0, "a": 1.0, "r": 100.0, "theta": {"min": 0.0, "max": math.pi, "count": 181}}
    code, out = run_cli(tmp_path, "pattern", config)
    assert code == 0
    header, rows = read_rows(out)
    assert header == ["theta", "duration", "pattern", "peak"]
    assert len(rows) == 181
    first = rows[0]
    assert float(first["theta"]) == 0.0
    assert float(first["duration"]) == pytest.approx(1.0)
    assert float(first["pattern"]) == pytest.approx(1.26651479552922e-2, rel=1e-12)
    assert float(first["peak"]) == pytest.approx(1.26651479552922e-4, rel=1e-12)


def test_pattern_deterministic_across_runs_and_threads(tmp_path):
    config = {"s": 2.0, "a": 1.0, "r": 100.0, "theta": {"min": 0.0, "max": math.pi, "count": 91}}
    _, out1 = run_cli(tmp_path, "pattern", config, "a.csv")
    _, out2 = run_cli(tmp_path, "pattern", config, "b.csv")
    _, out3 = run_cli(tmp_path, "pattern", config, "c.csv", extra=("--threads", "4"))
    assert out1.read_bytes() == out2.read_bytes() == out3.read_bytes()


def test_distance_map_statuses(tmp_path):
    config = {
        "extent": [0.0, 0.0, 1.0, 2.0],
        "grid": {"x1": {"min": 0.0, "max": 2.0, "count": 5}, "x2": 0.0, "x3": 0.0},
    }
    code, out = run_cli(tmp_path, "distance", config)
    assert code == 0
    header, rows = read_rows(out)
    assert header == ["x1", "x2", "x3", "p", "q", "status"]
    by_x1 = {float(r["x1"]): r for r in rows}
    assert by_x1[0.0]["status"] == "on_cut"
    assert float(by_x1[0.0]["q"]) == pytest.approx(1.0)
    assert by_x1[1.0]["status"] == "on_circle"
    assert by_x1[2.0]["status"] == "ok"
    assert "nan" not in out.read_text().lower()


def test_propagator_map_singular_row_has_empty_values(tmp_path):
    config = {
        "extent": [0.0, 0.0, 1.0, 2.0],
        "grid": {"x1": {"min": 0.5, "max": 1.0, "count": 2}, "t": 1.0},
    }
    code, out = run_cli(tmp_path, "propagator", config)
    assert code == 0
    _, rows = read_rows(out)
    on_cut = rows[0]
    assert on_cut["status"] == "on_cut" and on_cut["re"] != ""
    singular = rows[1]
    assert singular["status"] == "singular"
    assert singular["re"] == "" and singular["im"] == "" and singular["abs"] == ""


def test_zero_near_circle_tol_still_marks_the_branch_circle_singular(tmp_path):
    # x1 = 1 lies exactly on the branch circle of the extension, p = q = 0
    config = {
        "extent": [0.0, 0.0, 1.0, 2.0],
        "near_circle_tol": 0.0,
        "grid": {"x1": 1.0, "t": 1.0},
    }
    code, out = run_cli(tmp_path, "propagator", config)
    assert code == 0
    _, rows = read_rows(out)
    assert [row["status"] for row in rows] == ["singular"]


@pytest.mark.parametrize("command", ("distance", "propagator", "wavelet"))
def test_negative_near_circle_tol_is_a_validation_error(tmp_path, capsys, command):
    config = {
        "extent": [0.0, 0.0, 1.0, 2.0],
        "near_circle_tol": -1.0,
        "grid": {"x1": 1.0, "t": 1.0} if command != "distance" else {"x1": 1.0},
    }
    code, out = run_cli(tmp_path, command, config)
    err = capsys.readouterr().err
    assert code == 1
    assert "'near_circle_tol' must be finite and >= 0" in err and len(err.splitlines()) == 1
    assert not out.exists()


def test_wavelet_map_matches_library(tmp_path):
    from pulsebeam import ConeVector, GaussianPulse, RealEvent, wavelet_eval

    config = {
        "extent": [0.0, 0.0, 1.0, 2.0],
        "signal": {"type": "gaussian", "center": 0.0, "width": 1.0, "amplitude": 1.0},
        "grid": {"x3": {"min": 3.0, "max": 5.0, "count": 3}, "t": 4.0},
    }
    code, out = run_cli(tmp_path, "wavelet", config)
    assert code == 0
    _, rows = read_rows(out)
    expected = wavelet_eval(
        GaussianPulse(), RealEvent((0, 0, 3.0), 4.0), ConeVector((0, 0, 1), 2.0)
    )
    assert float(rows[0]["re"]) == pytest.approx(expected.real, rel=1e-15)
    assert float(rows[0]["im"]) == pytest.approx(expected.imag, rel=1e-15)


def test_grid_cap_rejected_before_computation(tmp_path):
    config = {
        "extent": [0.0, 0.0, 1.0, 2.0],
        "max_points": 1000,
        "grid": {"x1": {"min": 0.0, "max": 1.0, "count": 2000}},
    }
    code, out = run_cli(tmp_path, "distance", config)
    assert code == 1
    assert not out.exists()


HUGE = {"min": 0.0, "max": 1.0, "count": 10**12}


@pytest.mark.parametrize(
    "command,config",
    [
        ("distance", {"extent": [0.0, 0.0, 1.0, 2.0], "grid": {"x1": HUGE}}),
        ("propagator", {"extent": [0.0, 0.0, 1.0, 2.0], "grid": {"x1": 0.5, "t": HUGE}}),
        ("pattern", {"s": 2.0, "a": 1.0, "r": 100.0, "theta": {"count": 10**12}}),
        ("channel", {"channel": CHANNEL_OBJ, "theta": {"count": 10**12}}),
    ],
)
def test_huge_counts_rejected_before_any_axis_is_built(tmp_path, capsys, command, config):
    # np.linspace over 1e12 samples would need 8 TB: the cap must come first
    code, out = run_cli(tmp_path, command, config)
    assert code == 1
    assert "exceeding the cap" in capsys.readouterr().err
    assert not out.exists()


AXIS = {"x1": {"min": 0.0, "max": 1.0, "count": 2}}
EXTENT = [0.0, 0.0, 1.0, 2.0]


@pytest.mark.parametrize(
    "command,config,field",
    [
        pytest.param(
            "propagator", {"extent": [0, 0, 1, "x"], "grid": AXIS}, "'extent[3]'", id="extent-string"
        ),
        pytest.param(
            "wavelet",
            {"extent": EXTENT, "signal": {"type": "delta", "order": "two"}, "grid": AXIS},
            "'signal.order'",
            id="order-string",
        ),
        pytest.param(
            "propagator",
            {"extent": EXTENT, "max_points": "lots", "grid": AXIS},
            "'max_points'",
            id="max-points-string",
        ),
        pytest.param(
            # a cap below 1 refuses every grid
            "propagator",
            {"extent": EXTENT, "max_points": 0, "grid": AXIS},
            "'max_points' must be >= 1",
            id="max-points-zero",
        ),
        pytest.param(
            "pattern",
            {"s": 2.0, "a": 1.0, "r": 100.0, "max_points": -1},
            "'max_points' must be >= 1",
            id="max-points-negative",
        ),
        pytest.param("pattern", {"s": 2.0, "a": "one", "r": 100.0}, "'a'", id="pattern-a-string"),
        pytest.param(
            "wavelet",
            {"extent": EXTENT, "signal": {"type": "delta", "order": 300}, "grid": AXIS},
            "order",
            id="order-300",
        ),
        pytest.param(
            "wavelet",
            {"extent": EXTENT, "signal": {"type": "delta", "order": True}, "grid": AXIS},
            "'signal.order'",
            id="order-true",
        ),
        pytest.param(
            "wavelet",
            {
                "extent": EXTENT,
                "signal": {"type": "sampled", "times": ["x", 1.0], "values": [0.0, 1.0]},
                "grid": AXIS,
            },
            "'signal.times[0]'",
            id="sample-time-string",
        ),
        pytest.param(
            "wavelet",
            {
                "extent": EXTENT,
                "signal": {"type": "sampled", "times": [0.0, "x"], "values": [0.0, 1.0]},
                "grid": AXIS,
            },
            "'signal.times[1]'",
            id="second-sample-time-string",
        ),
        pytest.param(
            "wavelet",
            {
                "extent": EXTENT,
                "signal": {"type": "sampled", "times": [0.0, 1.0], "values": [0.0, None]},
                "grid": AXIS,
            },
            "'signal.values[1]'",
            id="sample-value-null",
        ),
        pytest.param(
            "wavelet",
            {"extent": EXTENT, "signal": {"type": "sampled", "times": 5, "values": 1}, "grid": AXIS},
            "'times'",
            id="sample-times-not-array",
        ),
        pytest.param(
            # an integer path would be opened as a file descriptor
            "wavelet",
            {"extent": EXTENT, "signal": {"type": "sampled", "path": 1}, "grid": AXIS},
            "'signal.path'",
            id="sample-path-not-a-string",
        ),
        pytest.param(
            "channel",
            {
                "channel": dict(
                    CHANNEL_OBJ, emitter={"center": [0, 0, 0, "x"], "extent": [0, 0, 0.8, 1.6]}
                )
            },
            "emitter center",
            id="channel-center-string",
        ),
        pytest.param(
            # float(True) is 1.0, so a boolean used to be read as a coordinate
            "channel",
            {
                "channel": dict(
                    CHANNEL_OBJ, receiver={"center": [0, 0, 10, True], "extent": [0.3, 0, 0.9, 1.7]}
                )
            },
            "receiver center",
            id="channel-center-bool",
        ),
        pytest.param(
            "distance",
            {"extent": EXTENT, "near_circle_tol": "x", "grid": AXIS},
            "'near_circle_tol'",
            id="near-circle-tol-string",
        ),
        pytest.param(
            "distance",
            {"extent": EXTENT, "grid": {"x1": {"min": 0.0, "max": 1.0, "count": 2, "step": 1}}},
            "unknown fields ['step']",
            id="axis-unknown-field",
        ),
        pytest.param(
            "distance",
            {"extent": EXTENT, "grid": {"x1": {"min": 0.0, "max": 1.0, "count": 0}}},
            "'grid.x1.count' must be >= 1",
            id="axis-count-zero",
        ),
        pytest.param(
            "distance",
            {"extent": EXTENT, "grid": {"x1": {"min": -1.7e308, "max": 1.7e308, "count": 3}}},
            "'grid.x1' samples",
            id="axis-samples-overflow",
        ),
        pytest.param(
            "distance", {"extent": EXTENT, "grid": {"t": 1.0}}, "['t']", id="axis-not-available"
        ),
        pytest.param(
            "wavelet",
            {"extent": EXTENT, "signal": {"type": "sampled"}, "grid": AXIS},
            "either 'path' or 'times'+'values'",
            id="sampled-without-samples",
        ),
        pytest.param(
            "wavelet",
            {
                "extent": EXTENT,
                "signal": {"type": "sampled", "times": [0.0, 1.0]},
                "grid": AXIS,
            },
            "either 'path' or 'times'+'values'",
            id="sampled-times-without-values",
        ),
        pytest.param(
            # the path used to win silently over the samples
            "wavelet",
            {
                "extent": EXTENT,
                "signal": {
                    "type": "sampled",
                    "path": "signal.csv",
                    "times": [0.0, 1.0],
                    "values": [0.0, 1.0],
                },
                "grid": AXIS,
            },
            "'times'+'values', not both",
            id="sampled-path-and-samples",
        ),
        pytest.param(
            "pattern",
            {"s": 2.0, "a": 1.0, "r": 100.0, "theta": {"cuont": 3}},
            "unknown fields ['cuont']",
            id="theta-unknown-field",
        ),
        pytest.param(
            # a misspelt width would otherwise run with the default width 1
            "wavelet",
            {"extent": EXTENT, "signal": {"type": "gaussian", "widht": 0.1}, "grid": AXIS},
            "unknown fields ['widht']",
            id="signal-unknown-field",
        ),
        pytest.param("pattern", [2.0, 1.0, 100.0], "config root", id="root-not-an-object"),
        pytest.param("channel", {"signal": {"type": "delta"}}, "'channel'", id="no-channel"),
        pytest.param(
            # a misspelt signal would otherwise run with the delta-impulse default
            "wavelet",
            {"extent": EXTENT, "signl": {"type": "gaussian", "width": 0.5}, "grid": AXIS},
            "unknown fields ['signl']",
            id="root-unknown-field",
        ),
        pytest.param(
            "propagator",
            {"extent": EXTENT, "max_ponts": 10, "grid": AXIS},
            "unknown fields ['max_ponts']",
            id="root-misspelt-cap",
        ),
        pytest.param(
            "distance",
            {"extent": EXTENT, "near_circle_tl": 0.6, "grid": AXIS},
            "unknown fields ['near_circle_tl']",
            id="root-misspelt-tol",
        ),
        pytest.param("pattern", {"s": 2.0}, "'a'", id="pattern-missing-field"),
        pytest.param(
            "channel",
            {"channel": dict(CHANNEL_OBJ, recevier=CHANNEL_OBJ["receiver"])},
            "unknown fields ['recevier']",
            id="channel-unknown-side",
        ),
        pytest.param(
            # int() refuses a literal over 4,300 digits; this printed a traceback
            "pattern",
            '{"s": 2.0, "a": 1.0, "r": 3.0, "max_points": ' + "9" * 5_000 + "}",
            "pattern.json",
            id="max-points-5000-digits",
        ),
        pytest.param(
            # json keeps the last of a repeated key: this ran with s = 3.0
            "pattern",
            '{"s": 2.0, "s": 3.0, "a": 1.0, "r": 3.0}',
            "repeats the key 's'",
            id="repeated-root-key",
        ),
        pytest.param(
            "pattern",
            '{"s": 2.0, "a": 1.0, "r": 3.0, "theta": {"min": 0.0, "max": 1.0, "max": 2.0}}',
            "repeats the key 'max'",
            id="repeated-nested-key",
        ),
    ],
)
def test_malformed_config_values_are_one_line_errors(tmp_path, capsys, command, config, field):
    code, out = run_cli(tmp_path, command, config)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert field in err
    assert "Traceback" not in err
    assert not out.exists()


DELTA_170 = {"type": "delta", "order": 170}
ORIGIN_CONFIG = {"extent": [0.0, 0.0, 0.99, 1.0], "signal": DELTA_170, "grid": {}}


@pytest.mark.parametrize(
    "command,config",
    [
        pytest.param(
            "wavelet",
            {
                "extent": [0.0, 0.0, 0.5, 1.0],
                "signal": DELTA_170,
                "grid": {"x3": {"min": 0.0, "max": 2.0, "count": 5}},
            },
            id="wavelet-axis",
        ),
        pytest.param("wavelet", ORIGIN_CONFIG, id="wavelet-origin"),
        pytest.param(
            "channel",
            {
                "channel": {
                    "emitter": {"center": [0, 0, 0, 0], "extent": [0, 0, 0.5, 1]},
                    "receiver": {"center": [0, 0, 0.1, 0], "extent": [0, 0, 0.49, 0.5]},
                },
                "signal": DELTA_170,
            },
            id="channel",
        ),
    ],
)
def test_impulse_overflow_is_an_accuracy_error(tmp_path, capsys, command, config):
    # n!/tau^(n+1) at order 170 overflows (or tau^171 underflows to 0) near these points
    code, out = run_cli(tmp_path, command, config)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("accuracy error: ") and len(captured.err.splitlines()) == 1
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ("distance", "propagator"))
def test_overflowing_dot_product_ends_in_one_line_without_a_warning(tmp_path, capsys, command):
    # x . y = 1e400 overflows in the block kernel; numpy's RuntimeWarning stays inside it
    grid = {"x1": {"min": 1e200, "max": 2e200, "count": 3}}
    if command == "propagator":
        grid["t"] = 0.0
    code, out = run_cli(tmp_path, command, {"extent": [1e200, 0.0, 0.0, 2e200], "grid": grid})
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("accuracy error: grid row 0") and len(err.splitlines()) == 1
    assert not out.exists()


def test_grid_abort_names_the_point_and_leaves_no_file(tmp_path, capsys):
    code, out = run_cli(tmp_path, "wavelet", ORIGIN_CONFIG)
    err = capsys.readouterr().err
    assert code == 2
    assert "grid row 0 (x1=0.0, x2=0.0, x3=0.0, t=0.0)" in err
    assert not out.exists()
    assert not list(tmp_path.glob(".pulsebeam-*.csv"))


# 193 x 65 points 1/32 apart, so the grid hits the cut and the branch circle exactly.  With
# the extension (0, 0, 1) the first cut point (x1 = -1 + 1/32, x3 = 0) and the first circle
# point (x1 = -1, x3 = 0) lie past row 6,000, after the first 4,096-row block.
BLOCK_GRID = {
    "x1": {"min": -4.0, "max": 2.0, "count": 193},
    "x3": {"min": -1.0, "max": 1.0, "count": 65},
}


def grid_points(config, names=GRID_AXES):
    """The points of a grid config in row order, as the CLI builds them."""
    axes = []
    for name in names:
        spec = config["grid"].get(name, 0.0)
        if isinstance(spec, dict):
            axes.append(np.linspace(spec["min"], spec["max"], spec["count"]).tolist())
        else:
            axes.append([float(spec)])
    return itertools.product(*axes)


def scalar_grid_csv(command, config):
    """The CSV a grid config should give, built one point at a time from the scalar library."""
    from pulsebeam import SingularityProximityError, complex_distance
    from pulsebeam.propagator import _impulse_field

    names = GRID_AXES if command == "propagator" else GRID_AXES[:3]
    *space, lag = config["extent"]
    tol = config.get("near_circle_tol")
    columns = ("re", "im", "abs", "status") if command == "propagator" else ("p", "q", "status")
    lines = [",".join(names + columns)]
    for point in grid_points(config, names):
        dist = complex_distance(point[:3], space, near_circle_tol=tol)
        if command == "distance":
            status = "on_circle" if dist.near_circle else "on_cut" if dist.on_cut else "ok"
            cells = (repr(dist.p), repr(dist.q), status)
        else:
            try:
                value = _impulse_field(dist, point[3], lag)
                status = "on_cut" if dist.on_cut else "ok"
                cells = (repr(value.real), repr(value.imag), repr(abs(value)), status)
            except SingularityProximityError:
                cells = ("", "", "", "singular")
        lines.append(",".join(tuple(map(repr, point)) + cells))
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("tol", [None, 0.3], ids=["default-tol", "tol-0.3"])
@pytest.mark.parametrize("command", ["distance", "propagator"])
def test_grid_blocks_match_the_scalar_path_byte_for_byte(tmp_path, monkeypatch, command, tol):
    import pulsebeam.cli

    def no_scalar(*args, **kwargs):
        raise AssertionError("a block without errors went through the scalar path")

    # the CLI's scalar field is switched off: every block, and the tolerance, must go
    # through the kernels
    monkeypatch.setattr(pulsebeam.cli, "_impulse_field", no_scalar)
    config = {"extent": [0.0, 0.0, 1.0, 2.0], "grid": dict(BLOCK_GRID)}
    if command == "propagator":
        config["grid"]["t"] = {"min": 0.5, "max": 1.5, "count": 2}
    if tol is not None:
        config["near_circle_tol"] = tol
    expected = scalar_grid_csv(command, config)
    rows = expected.decode().splitlines()[1:]
    flagged = [k for k, row in enumerate(rows) if not row.endswith(",ok")]
    assert len(rows) > 8192 and flagged[0] > 4096
    assert any(row.endswith(("on_circle", "singular")) for row in rows)
    if tol is not None:  # the tolerance guards more points than the default does
        assert expected != scalar_grid_csv(command, dict(config, near_circle_tol=None))
    code, out = run_cli(tmp_path, command, config)
    assert code == 0
    assert out.read_bytes() == expected


@pytest.mark.parametrize(
    "command,config,where",
    [
        pytest.param(
            "propagator",
            {
                "extent": [0.0, 0.0, 1e-160, 3e-160],
                "grid": {"x3": {"min": -1.0, "max": 0.0, "count": 5000}},
            },
            "grid row 4999 (x1=0.0, x2=0.0, x3=0.0, t=0.0): propagator 1/(",
            id="propagator-reciprocal",
        ),
        pytest.param(
            "distance",
            {
                "extent": [0.0, 0.0, 1.0, 2.0],
                "grid": {"x3": {"min": 0.0, "max": 1.4e154, "count": 5000}},
            },
            "grid row 4788 (x1=0.0, x2=0.0, x3=1.340908181636327e+154): complex distance",
            id="distance-root",
        ),
        pytest.param(
            "propagator",
            {
                "extent": [0.0, 0.0, 4.59e-156, 1.377e-155],
                "grid": {"x3": {"min": -1.0, "max": 0.0, "count": 6000}, "t": 9.18e-156},
            },
            "grid row 5999 (x1=0.0, x2=0.0, x3=0.0, t=9.18e-156): absolute value too large",
            id="propagator-magnitude",
        ),
    ],
)
def test_first_overflow_in_a_later_block_names_its_global_row(
    tmp_path, capsys, command, config, where
):
    # the propagator's only tiny denominator is the last row, x3 = 0, where at t = 2a the
    # field's parts are about 1.5e308 each and only its magnitude overflows; the distance's
    # r^2 overflows from x3 = 1.34e154 on: every first bad row is in the second block
    code, out = run_cli(tmp_path, command, config)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"accuracy error: {where}") and len(err.splitlines()) == 1
    assert not out.exists()
    assert not list(tmp_path.glob(".pulsebeam-*.csv"))


# A slice through the extension axis (x1): mirror points share their field argument, x1 = 0
# crosses the cut and |x2| = 1 hits the branch circle.
MIRROR_CONFIG = {
    "extent": [1.0, 0.0, 0.0, 1.4],
    "signal": {"type": "gaussian", "center": 0.3, "width": 0.6, "amplitude": 1.2},
    "grid": {
        "x1": {"min": -1.0, "max": 1.0, "count": 5},
        "x2": {"min": -1.5, "max": 1.5, "count": 7},
        "t": {"min": 0.0, "max": 1.0, "count": 2},
    },
}
# linspace(-0.0, -0.0, 2) is [0.0, -0.0]: one t axis holding both zeros
SIGNED_ZERO_T = {"min": -0.0, "max": -0.0, "count": 2}
# 9,882 rows: three blocks of the grid writer
THREE_BLOCKS_CONFIG = {
    "extent": [1.0, 0.0, 0.0, 1.4],
    "signal": {"type": "delta", "order": 1},
    "grid": {
        "x1": {"min": -1.0, "max": 1.0, "count": 81},
        "x2": {"min": -1.5, "max": 1.5, "count": 61},
        "t": {"min": 0.0, "max": 1.0, "count": 2},
    },
}


def scalar_wavelet_csv(config):
    """The CSV a wavelet config should give, one scalar field evaluation per point."""
    from pulsebeam import SingularityProximityError
    from pulsebeam.cli import format_float, signal_from_config
    from pulsebeam.wavelet import _field, _radial_distance

    *space, lag = config["extent"]
    signal = signal_from_config(config["signal"])
    lines = [",".join(GRID_AXES + ("re", "im", "abs", "status"))]
    for point in grid_points(config):
        dist = _radial_distance(point[:3], space, config.get("near_circle_tol"))
        try:
            value = _field(signal, dist, point[3], lag)
            status = "on_cut" if dist.on_cut else "ok"
            cells = (*map(format_float, (value.real, value.imag, abs(value))), status)
        except SingularityProximityError:
            cells = ("", "", "", "singular")
        lines.append(",".join((*map(format_float, point), *cells)))
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(MIRROR_CONFIG, id="mirror"),
        pytest.param(
            {
                "extent": [0.0, 0.0, 0.0, 0.7],
                "signal": {"type": "delta"},
                "grid": {
                    "x1": {"min": -2.0, "max": 2.0, "count": 9},
                    "x3": {"min": -1.0, "max": 1.0, "count": 5},
                    "t": {"min": 1.0, "max": 2.5, "count": 2},
                },
            },
            id="temporal",
        ),
        pytest.param(dict(MIRROR_CONFIG, near_circle_tol=0.6), id="mirror-tol"),
        pytest.param(
            # the guard radius acts around the origin, the singular point of a temporal extension
            {
                "extent": [0.0, 0.0, 0.0, 0.7],
                "signal": {"type": "delta"},
                "near_circle_tol": 0.6,
                "grid": {"x1": {"min": -1.0, "max": 1.0, "count": 5}, "t": 1.0},
            },
            id="temporal-tol",
        ),
        pytest.param(
            dict(MIRROR_CONFIG, grid=dict(MIRROR_CONFIG["grid"], t=SIGNED_ZERO_T)),
            id="signed-zero-t",
        ),
        pytest.param(THREE_BLOCKS_CONFIG, id="three-blocks"),
    ],
)
def test_wavelet_grid_matches_the_scalar_path_byte_for_byte(tmp_path, config):
    expected = scalar_wavelet_csv(config)
    statuses = {row.rsplit(",", 1)[1] for row in expected.decode().splitlines()[1:]}
    assert {"ok", "singular"} <= statuses
    code, out = run_cli(tmp_path, "wavelet", config)
    assert code == 0
    assert out.read_bytes() == expected


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(MIRROR_CONFIG, id="t"),
        pytest.param(
            dict(MIRROR_CONFIG, grid=dict(MIRROR_CONFIG["grid"], t=SIGNED_ZERO_T)),
            id="signed-zero-t",
        ),
        pytest.param(THREE_BLOCKS_CONFIG, id="three-blocks"),
    ],
)
def test_wavelet_grid_evaluates_each_distinct_field_argument_once(tmp_path, monkeypatch, config):
    import pulsebeam.wavelet
    from pulsebeam.geometry import _BLOCK
    from pulsebeam.wavelet import _radial_distance

    calls = []
    analytic_signal = pulsebeam.wavelet.analytic_signal

    def counted(signal, tau):
        calls.append(tau)
        return analytic_signal(signal, tau)

    monkeypatch.setattr(pulsebeam.wavelet, "analytic_signal", counted)
    # the distinct non-singular arguments of each block of the grid writer
    blocks = []
    for row, point in enumerate(grid_points(config)):
        if row % _BLOCK == 0:
            blocks.append([])
        dist = _radial_distance(point[:3], config["extent"][:3])
        if not dist.near_circle:
            # repr tells -0.0 from 0.0, as the CSV does
            blocks[-1].append((repr(dist.p), repr(dist.q), repr(point[3])))
    code, _ = run_cli(tmp_path, "wavelet", config)
    assert code == 0
    distinct = sum(len(set(arguments)) for arguments in blocks)
    assert len(calls) == distinct < sum(map(len, blocks))


def test_wavelet_abort_in_a_later_block_names_its_row(tmp_path, capsys):
    # At the scale 1e-160 only the origin (x3 = 0 with x1 = x2 = 0, row 7499) overflows;
    # it lies in the second block of the grid writer.
    config = {
        "extent": [0.0, 0.0, 1e-160, 3e-160],
        "grid": {
            "x1": {"min": -1.0, "max": 1.0, "count": 3},
            "x2": {"min": -1.0, "max": 1.0, "count": 3},
            "x3": {"min": -1.0, "max": 0.0, "count": 1500},
        },
    }
    code, out = run_cli(tmp_path, "wavelet", config)
    err = capsys.readouterr().err
    assert code == 2
    where = "grid row 7499 (x1=0.0, x2=0.0, x3=0.0, t=0.0): wavelet at rt = "
    assert err.startswith(f"accuracy error: {where}") and len(err.splitlines()) == 1
    assert not out.exists()
    assert not list(tmp_path.glob(".pulsebeam-*.csv"))


def test_a_refused_block_is_bisected_to_its_first_bad_row(tmp_path):
    # rows 5,000 and 6,000 raise; both lie in the second block
    calls = []

    def evaluate(points):
        calls.append(len(points))
        if np.isin(points[:, 0], (5_000.0, 6_000.0)).any():
            raise errors.AccuracyError("stand-in overflow")
        return (["0"] * len(points),)

    out = tmp_path / "out.csv"
    with pytest.raises(errors.AccuracyError) as exc:
        cli._write_grid(str(out), ("x",), (np.arange(10_000.0),), ("v",), evaluate)
    assert str(exc.value) == "grid row 5000 (x=5000.0): stand-in overflow"
    # after the first block: the refused block, its bisection, and the bad row alone
    assert len(calls) - 1 <= math.log2(cli._BLOCK) + 2 and calls[-1] == 1
    assert not out.exists() and not list(tmp_path.glob(".pulsebeam-*.csv"))


def test_pattern_error_mid_stream_leaves_no_file(tmp_path, capsys):
    # s - a cos(theta) overflows from theta = 3 pi / 4 (row 3) on; rows 0-2 are finite
    theta = {"min": 0.0, "max": math.pi, "count": 5}
    config = {"s": 1.7e308, "a": 1.6e308, "r": 1.0, "theta": theta}
    code, out = run_cli(tmp_path, "pattern", config)
    err = capsys.readouterr().err
    assert code == 2
    where = "grid row 3 (theta=2.356194490192345)"
    assert err == f"accuracy error: {where}: value inf does not fit a float\n"
    assert not out.exists()
    assert not list(tmp_path.glob(".pulsebeam-*.csv"))


def test_pattern_error_in_a_later_block_leaves_no_file(tmp_path, capsys):
    # the first 4,096-angle block is finite and streamed; s - a cos(theta) overflows at row 4454
    theta = {"min": 0.0, "max": math.pi, "count": 5000}
    config = {"s": 0.95e308, "a": 0.9e308, "r": 1.0, "theta": theta}
    code, out = run_cli(tmp_path, "pattern", config)
    err = capsys.readouterr().err
    assert code == 2
    where = "grid row 4454 (theta=2.7990905539285733)"
    assert err.startswith(f"accuracy error: {where}: ") and len(err.splitlines()) == 1
    assert not out.exists()
    assert not list(tmp_path.glob(".pulsebeam-*.csv"))


def test_first_block_is_evaluated_before_the_file_is_opened(tmp_path, capsys):
    # the output directory does not exist, so opening the file would be an i/o error (exit 3)
    config = {"extent": [0.0, 0.0, 1e-160, 3e-160], "grid": {}}
    code, out = run_cli(tmp_path, "propagator", config, "missing/out.csv")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("accuracy error: grid row 0 ") and len(err.splitlines()) == 1
    assert not out.parent.exists()


def test_block_coordinates_follow_the_grid_across_axis_wraps(tmp_path):
    # x3 (5,000 values) wraps inside the second 4,096-row block; x2 (7 values)
    # wraps many times inside every block
    grid = {
        "x1": {"min": -1.0, "max": 1.0, "count": 2},
        "x2": {"min": -0.3, "max": 0.3, "count": 7},
        "x3": {"min": -3.0, "max": 3.0, "count": 5000},
    }
    code, out = run_cli(tmp_path, "distance", {"extent": [0.0, 0.0, 1.0, 2.0], "grid": grid})
    assert code == 0
    axes = [np.linspace(spec["min"], spec["max"], spec["count"]).tolist() for spec in grid.values()]
    expected = [",".join(map(repr, point)) for point in itertools.product(*axes)]
    lines = out.read_text().splitlines()[1:]
    assert [line.rsplit(",", 3)[0] for line in lines] == expected


# 10,000 thetas: three 4,096-angle slices, the last one short
MANY_THETAS = {"min": -3.0, "max": 3.0, "count": 10_000}


def test_pattern_and_channel_slices_match_one_whole_axis_call(tmp_path, capsys):
    from pulsebeam import beam_profile, channel_from_json, gain_scan
    from pulsebeam.spacetime import norm3

    thetas = np.linspace(MANY_THETAS["min"], MANY_THETAS["max"], MANY_THETAS["count"])
    profile = beam_profile(2.0, 1.0, 100.0, thetas)
    lines = ["theta,duration,pattern,peak"]
    lines += [
        ",".join(map(repr, row))
        for row in zip(profile.theta, profile.duration, profile.pattern, profile.peak)
    ]
    config = {"s": 2.0, "a": 1.0, "r": 100.0, "theta": MANY_THETAS}
    code, out = run_cli(tmp_path, "pattern", config, "pattern.csv")
    assert code == 0
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()

    ch = channel_from_json(CHANNEL_OBJ)
    emitter, receiver = ch.emitter_extent, ch.receiver_extent
    scan = gain_scan(
        emitter.radius,
        emitter.time,
        receiver.radius,
        receiver.time,
        norm3(ch.separation.space),
        thetas,
    )
    lines = ["theta,peak"] + [f"{th!r},{peak!r}" for th, peak in scan]
    config = {"channel": CHANNEL_OBJ, "theta": MANY_THETAS}
    code, out = run_cli(tmp_path, "channel", config, "channel.csv")
    assert code == 0
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert json.loads(capsys.readouterr().out)["scan_csv"] == str(out)


def test_channel_subcommand_outputs(tmp_path, capsys):
    config = {
        "channel": CHANNEL_OBJ,
        "signal": {"type": "delta"},
        "theta": {"min": -math.pi, "max": math.pi, "count": 91},
    }
    code, out = run_cli(tmp_path, "channel", config)
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["metrics"]["emit_duration"] == pytest.approx(0.8)
    assert summary["metrics"]["aperture"] == pytest.approx(math.hypot(0.3, 1.7))
    assert summary["metrics"]["bandwidth"] == pytest.approx(
        1.0 / (3.3 - math.hypot(0.3, 1.7))
    )
    assert summary["amplitude"]["abs"] > 0.0
    header, rows = read_rows(out)
    assert header == ["theta", "peak"]
    assert len(rows) == 91


def test_channel_summary_stays_strict_json_when_the_link_duration_underflows(tmp_path, capsys):
    # lags of 5e-324: 1/duration overflows, while the far scan peaks stay finite
    endpoint = {"extent": [0.0, 0.0, 0.0, 5e-324]}
    config = {
        "channel": {
            "emitter": dict(endpoint, center=[0.0, 0.0, 0.0, 0.0]),
            "receiver": dict(endpoint, center=[0.0, 0.0, 1e20, 0.0]),
        },
        "theta": {"count": 3},
    }
    code, _ = run_cli(tmp_path, "channel", config)
    assert code == 0
    metrics = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)["metrics"]
    assert metrics["bandwidth"] == "inf"


def test_invalid_config_is_a_validation_error(tmp_path, capsys):
    config_path = tmp_path / "broken.json"
    config_path.write_text("{not json")
    assert main(["pattern", "--config", str(config_path), "--out", str(tmp_path / "x.csv")]) == 1
    missing = tmp_path / "nope.json"
    assert main(["pattern", "--config", str(missing), "--out", str(tmp_path / "x.csv")]) == 1
    capsys.readouterr()
    # json's decoder recurses once per nesting level
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000)
    for command in ("distance", "propagator", "wavelet"):
        assert main([command, "--config", str(nested), "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert str(nested) in err and "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("pattern", "--config", "p.json", "--threads", "abc"),
        ("pattern", "--config", "p.json", "--out", "o.csv", "--threads", "0"),
        ("pattern", "--out", "o.csv"),
        ("nosuch",),
        ("verify", "--config", "p.json"),
        ("pattern", "--config", "p.json"),
    ],
    ids=[
        "threads-not-an-integer",
        "threads-below-one",
        "no-config",
        "unknown-subcommand",
        "verify-config",
        "no-out",
    ],
)
def test_usage_errors_are_one_line_validation_errors(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.json").write_text(json.dumps({"s": 2.0, "a": 1.0, "r": 10.0}))
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not list(tmp_path.glob("*.csv"))


PACKAGE_ERRORS = [
    value
    for value in vars(errors).values()
    if isinstance(value, type) and issubclass(value, errors.PulsebeamError)
]


def test_every_package_error_is_a_validation_or_an_accuracy_error():
    # so main's two handlers catch every package error
    assert [
        error
        for error in PACKAGE_ERRORS
        if not issubclass(error, (errors.ValidationError, errors.AccuracyError))
    ] == [errors.PulsebeamError]


@pytest.mark.parametrize(
    "error",
    [error for error in PACKAGE_ERRORS if error is not errors.PulsebeamError],
    ids=lambda error: error.__name__,
)
def test_each_package_error_exits_with_one_line(tmp_path, capsys, monkeypatch, error):
    def runner(config, out):
        raise error("stand-in failure")

    monkeypatch.setitem(cli._RUNNERS, "pattern", (runner, (), ()))
    code, _ = run_cli(tmp_path, "pattern", {})
    err = capsys.readouterr().err
    assert code == (2 if issubclass(error, errors.AccuracyError) else 1)
    assert len(err.splitlines()) == 1 and "stand-in failure" in err
    assert "Traceback" not in err


def test_successive_main_calls_share_one_parser(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_parser", None)
    assert main(["verify", "--only", "10"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "1/1 checks passed"
    parser = cli._parser
    config = {"s": 2.0, "a": 1.0, "r": 100.0, "theta": {"min": 0.0, "max": 1.0, "count": 3}}
    # a refused flag value stays with its call
    assert run_cli(tmp_path, "pattern", config, extra=("--threads", "0"))[0] == 1
    code, out = run_cli(tmp_path, "pattern", config)
    assert code == 0 and len(read_rows(out)[1]) == 3
    assert cli._parser is parser


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: pulsebeam" in capsys.readouterr().out


def test_a_sampled_csv_field_over_the_csv_limit_is_a_validation_error(tmp_path, capsys):
    wave = tmp_path / "signal.csv"
    wave.write_text("0.0,0.0\n1.0," + "1" * 131_073 + "\n")
    config = {
        "extent": [0.0, 0.0, 1.0, 2.0],
        "signal": {"type": "sampled", "path": str(wave)},
        "grid": {"x3": 4.0, "t": 4.0},
    }
    code, out = run_cli(tmp_path, "wavelet", config)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert f"{wave}: line 2" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("where", ["config", "signal"])
def test_a_file_that_is_not_utf8_is_a_validation_error(tmp_path, capsys, where):
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe{}\n")
    out = tmp_path / "out.csv"
    if where == "config":
        argv = ["pattern", "--config", str(binary), "--out", str(out)]
    else:
        config = {
            "extent": [0.0, 0.0, 1.0, 2.0],
            "signal": {"type": "sampled", "path": str(binary)},
            "grid": {"x3": 4.0, "t": 4.0},
        }
        config_path = tmp_path / "wavelet.json"
        config_path.write_text(json.dumps(config))
        argv = ["wavelet", "--config", str(config_path), "--out", str(out)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert str(binary) in err and "UTF-8" in err
    assert not out.exists()


def test_missing_required_keys_is_exit_1(tmp_path):
    code, _ = run_cli(tmp_path, "pattern", {"s": 2.0})
    assert code == 1
    code, _ = run_cli(tmp_path, "distance", {"grid": {}})
    assert code == 1


def test_unwritable_output_is_exit_3(tmp_path):
    config_path = tmp_path / "p.json"
    config_path.write_text(json.dumps({"s": 2.0, "a": 1.0, "r": 100.0}))
    out = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert main(["pattern", "--config", str(config_path), "--out", str(out)]) == 3


def test_out_in_config_and_flag_precedence(tmp_path):
    config_path = tmp_path / "p.json"
    cfg_out = tmp_path / "from_config.csv"
    config_path.write_text(
        json.dumps({"s": 2.0, "a": 1.0, "r": 10.0, "theta": {"count": 5}, "out": str(cfg_out)})
    )
    assert main(["pattern", "--config", str(config_path)]) == 0
    assert cfg_out.exists()
    flag_out = tmp_path / "from_flag.csv"
    assert main(["pattern", "--config", str(config_path), "--out", str(flag_out)]) == 0
    assert flag_out.exists()


@pytest.mark.parametrize("out", [True, ["x"], 3], ids=["bool", "list", "number"])
def test_out_in_config_must_be_a_string(tmp_path, capsys, monkeypatch, out):
    # str(out) would write a file named 'True' or "['x']"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.json").write_text(json.dumps({"s": 2.0, "a": 1.0, "r": 10.0, "out": out}))
    assert main(["pattern", "--config", "p.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: 'out' must be a string") and len(err.splitlines()) == 1
    assert [path.name for path in tmp_path.iterdir()] == ["p.json"]


def test_verify_subset(tmp_path, capsys):
    assert main(["verify", "--only", "9"]) == 0
    printed = capsys.readouterr().out
    assert "pattern-shape" in printed and "PASS" in printed


@pytest.mark.parametrize("only", ["", " ", ","], ids=["empty", "blank", "comma"])
def test_verify_only_without_a_check_id_is_a_validation_error(capsys, monkeypatch, only):
    def never():
        raise AssertionError("a check ran")

    monkeypatch.setattr(verification, "ACCEPTANCE_CHECKS", (("1", "stand-in", never),))
    assert main(["verify", "--only", only]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no acceptance checks match") and len(err.splitlines()) == 1


def test_two_by_two_grid_emits_four_rows(tmp_path):
    config = {
        "extent": [0.0, 0.0, 1.0, 2.0],
        "grid": {
            "x1": {"min": 1.0, "max": 2.0, "count": 2},
            "x3": {"min": 3.0, "max": 4.0, "count": 2},
        },
    }
    code, out = run_cli(tmp_path, "distance", config)
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5  # header + 4 data rows
    # row-major over axes in declaration order
    assert [line.split(",")[0] for line in lines[1:]] == ["1.0", "1.0", "2.0", "2.0"]


def test_console_script_entry_point(tmp_path):
    import shutil
    import subprocess

    exe = shutil.which("pulsebeam")
    if exe is None:
        pytest.skip("console script not on PATH")
    config_path = tmp_path / "p.json"
    config_path.write_text(json.dumps({"s": 2.0, "a": 1.0, "r": 10.0, "theta": {"count": 5}}))
    out = tmp_path / "o.csv"
    proc = subprocess.run(
        [exe, "pattern", "--config", str(config_path), "--out", str(out)],
        capture_output=True,
    )
    assert proc.returncode == 0 and out.exists()


def test_sampled_signal_from_csv_config(tmp_path):
    wave = tmp_path / "sig.csv"
    wave.write_text("time,value\n0.0,0.0\n1.0,1.0\n2.0,0.0\n")
    config = {
        "extent": [0.0, 0.0, 1.0, 2.0],
        "signal": {"type": "sampled", "path": str(wave)},
        "grid": {"x3": 4.0, "t": {"min": 4.0, "max": 6.0, "count": 3}},
    }
    code, out = run_cli(tmp_path, "wavelet", config)
    assert code == 0
    _, rows = read_rows(out)
    assert len(rows) == 3 and all(r["status"] == "ok" for r in rows)


# ---------------------------------------------------------------------------
# config fuzzing: valid configs with up to two fields replaced by junk
# ---------------------------------------------------------------------------

# small numbers, and any finite float, extremes included
NUMBER = st.one_of(
    st.floats(-4.0, 4.0), st.integers(-3, 3), st.floats(allow_nan=False, allow_infinity=False)
)
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
    st.sampled_from([math.nan, math.inf, -1, 0, 2.5]),
    st.dictionaries(st.just("min"), NUMBER),
)
# lengths and lags: mostly positive, so that most configs get past the physical checks
POSITIVE = st.one_of(st.floats(0.05, 4.0), NUMBER)
VEC4 = st.lists(NUMBER, min_size=4, max_size=4)
EXTENT4 = st.tuples(*[st.floats(-1.0, 1.0)] * 3, st.floats(0.0, 4.0)).map(list)


def sample_range(max_count):
    return st.tuples(NUMBER, NUMBER, st.integers(1, max_count)).map(
        lambda c: {"min": min(c[:2]), "max": max(c[:2]), "count": c[2]}
    )


# at most 2 samples per grid axis (16 points) and 64 theta samples
AXIS_SPEC = st.one_of(NUMBER, sample_range(2))
THETA_SPEC = st.one_of(st.just({}), sample_range(64))
SIGNAL_SPEC = st.one_of(
    st.fixed_dictionaries({"type": st.just("delta"), "order": st.integers(0, 170)}),
    st.fixed_dictionaries(
        {"type": st.just("gaussian"), "center": NUMBER, "width": POSITIVE, "amplitude": NUMBER}
    ),
    st.fixed_dictionaries(
        {
            "type": st.just("sampled"),
            "times": st.lists(NUMBER, min_size=2, max_size=6),
            "values": st.lists(NUMBER, min_size=2, max_size=6),
        }
    ),
    st.fixed_dictionaries({"type": st.just("sampled"), "path": st.just("no-such-signal.csv")}),
)
COMMON = {"max_points": st.integers(16, 64)}
FIELD = {**COMMON, "near_circle_tol": NUMBER}
ENDPOINT = st.fixed_dictionaries({"center": VEC4, "extent": EXTENT4})


def grid_spec(names):
    return st.fixed_dictionaries({}, optional={name: AXIS_SPEC for name in names})


VALID_CONFIGS = {
    "distance": st.fixed_dictionaries(
        {"extent": EXTENT4, "grid": grid_spec(GRID_AXES[:3])}, optional=FIELD
    ),
    "propagator": st.fixed_dictionaries(
        {"extent": EXTENT4, "grid": grid_spec(GRID_AXES)}, optional=FIELD
    ),
    "wavelet": st.fixed_dictionaries(
        {"extent": EXTENT4, "signal": SIGNAL_SPEC, "grid": grid_spec(GRID_AXES)}, optional=FIELD
    ),
    "pattern": st.fixed_dictionaries(
        {
            "s": st.one_of(st.floats(1.0, 4.0), NUMBER),
            "a": st.one_of(st.floats(0.0, 1.0), NUMBER),
            "r": POSITIVE,
            "theta": THETA_SPEC,
        },
        optional=COMMON,
    ),
    "channel": st.fixed_dictionaries(
        {
            "channel": st.fixed_dictionaries({"emitter": ENDPOINT, "receiver": ENDPOINT}),
            "signal": SIGNAL_SPEC,
            "theta": THETA_SPEC,
        },
        optional=COMMON,
    ),
}


def _paths(node, prefix=()):
    """The key path of every value below the root of a JSON-like tree."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def fuzzed_config(draw, command):
    config = draw(VALID_CONFIGS[command])
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(_paths(config))))
        parent = config
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = draw(JUNK)
    return config


# no flag, a thread count, or junk (text that may not parse, or may look like a flag)
THREADS_ARGV = st.one_of(
    st.just(()),
    st.integers(-2, 8).map(lambda n: ("--threads", str(n))),
    st.text(max_size=3).map(lambda text: ("--threads", text)),
)


@pytest.mark.parametrize("command", sorted(VALID_CONFIGS))
def test_fuzzed_configs_end_with_a_documented_exit_code(tmp_path, command):
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(config=fuzzed_config(command), threads=THREADS_ARGV)
    def check(config, threads):
        out = tmp_path / "out.csv"
        out.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code, _ = run_cli(tmp_path, command, config, extra=threads)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in stderr.getvalue()
        if code:
            assert len(stderr.getvalue().splitlines()) == 1
            return
        text = out.read_text().lower()
        assert "nan" not in text and "inf" not in text
        if command == "channel":
            json.loads(stdout.getvalue(), parse_constant=lambda name: pytest.fail(name))

    check()


@st.composite
def config_with_an_extra_field(draw, command):
    """A valid config with one `zz_` field added to the root or to one of its objects."""
    config = draw(VALID_CONFIGS[command])
    objects = [config]
    for path in _paths(config):
        node = config
        for key in path:
            node = node[key]
        if isinstance(node, dict):
            objects.append(node)
    draw(st.sampled_from(objects))["zz_" + draw(st.text(max_size=3))] = draw(JUNK)
    return config


@pytest.mark.parametrize("command", sorted(VALID_CONFIGS))
def test_an_extra_field_in_any_config_object_never_exits_0(tmp_path, command):
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(config=config_with_an_extra_field(command))
    def check(config):
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code, out = run_cli(tmp_path, command, config)
        assert code != 0 and len(stderr.getvalue().splitlines()) == 1
        assert not out.exists()

    check()


@pytest.mark.parametrize(
    "theta", [{"count": "x"}, {"count": 65}], ids=["count-not-an-integer", "count-over-the-cap"]
)
def test_channel_checks_theta_before_the_amplitude(tmp_path, capsys, monkeypatch, theta):
    # the amplitude of a Gaussian signal is a quadrature: a bad theta must not wait for it
    def no_amplitude(*args):
        raise AssertionError("channel_amplitude called before theta was checked")

    monkeypatch.setattr(cli, "channel_amplitude", no_amplitude)
    config = {
        "channel": CHANNEL_OBJ,
        "signal": {"type": "gaussian"},
        "theta": theta,
        "max_points": 64,
    }
    code, out = run_cli(tmp_path, "channel", config)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and len(err.splitlines()) == 1 and "theta" in err
    assert not out.exists()


README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
# each json block, and the subcommand of a `pulsebeam` sh block right after it, if any
README_CONFIGS = re.findall(r"```json\n(.*?)```\n+(?:```sh\npulsebeam (\w+))?", README, re.S)


def test_readme_configs_run(tmp_path, capsys):
    assert len(README_CONFIGS) == 3
    for block, named in README_CONFIGS:
        config = json.loads(block)
        holders = [
            name for name, (_, required, _) in cli._RUNNERS.items() if set(required) <= set(config)
        ]
        # the grid subcommands share their one required field: an sh block names which runs
        assert named in holders if named else len(holders) == 1
        code, _ = run_cli(tmp_path, named or holders[0], config)
        assert code == 0, capsys.readouterr().err


def test_pattern_converts_scalars_before_building_the_theta_axis(tmp_path, capsys, monkeypatch):
    import pulsebeam.cli

    def no_axis(*args, **kwargs):
        raise AssertionError("theta axis built before 's' was converted")

    monkeypatch.setattr(pulsebeam.cli, "_axis", no_axis)
    code, out = run_cli(tmp_path, "pattern", {"s": "x", "a": 1.0, "r": 100.0})
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "'s'" in err
    assert not out.exists()
