import json
import math

import pytest

from pulsebeam.cli import main

CHANNEL_OBJ = {
    "emitter": {"center": [0.0, 0.0, 0.0, 0.0], "extent": [0.0, 0.0, 0.8, 1.6]},
    "receiver": {"center": [0.0, 0.0, 10.0, 10.0], "extent": [0.3, 0.0, 0.9, 1.7]},
}


def run_cli(tmp_path, command, config, out_name="out.csv", extra=()):
    config_path = tmp_path / f"{command}.json"
    config_path.write_text(json.dumps(config))
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
    "command,config",
    [
        pytest.param("propagator", {"extent": [0, 0, 1, "x"], "grid": AXIS}, id="extent-string"),
        pytest.param(
            "wavelet",
            {"extent": EXTENT, "signal": {"type": "delta", "order": "two"}, "grid": AXIS},
            id="order-string",
        ),
        pytest.param(
            "propagator",
            {"extent": EXTENT, "max_points": "lots", "grid": AXIS},
            id="max-points-string",
        ),
        pytest.param("pattern", {"s": 2.0, "a": "one", "r": 100.0}, id="pattern-a-string"),
        pytest.param(
            "wavelet",
            {"extent": EXTENT, "signal": {"type": "delta", "order": 300}, "grid": AXIS},
            id="order-300",
        ),
        pytest.param(
            "wavelet",
            {"extent": EXTENT, "signal": {"type": "delta", "order": True}, "grid": AXIS},
            id="order-true",
        ),
        pytest.param(
            "wavelet",
            {
                "extent": EXTENT,
                "signal": {"type": "sampled", "times": ["x", 1.0], "values": [0.0, 1.0]},
                "grid": AXIS,
            },
            id="sample-time-string",
        ),
        pytest.param(
            "wavelet",
            {"extent": EXTENT, "signal": {"type": "sampled", "times": 5, "values": 1}, "grid": AXIS},
            id="sample-times-not-array",
        ),
        pytest.param(
            "channel",
            {
                "channel": dict(
                    CHANNEL_OBJ, emitter={"center": [0, 0, 0, "x"], "extent": [0, 0, 0.8, 1.6]}
                )
            },
            id="channel-center-string",
        ),
        pytest.param(
            "distance",
            {"extent": EXTENT, "near_circle_tol": "x", "grid": AXIS},
            id="near-circle-tol-string",
        ),
    ],
)
def test_malformed_config_values_are_one_line_errors(tmp_path, capsys, command, config):
    code, out = run_cli(tmp_path, command, config)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert not out.exists()


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


def test_invalid_config_is_a_validation_error(tmp_path):
    config_path = tmp_path / "broken.json"
    config_path.write_text("{not json")
    assert main(["pattern", "--config", str(config_path), "--out", str(tmp_path / "x.csv")]) == 1
    missing = tmp_path / "nope.json"
    assert main(["pattern", "--config", str(missing), "--out", str(tmp_path / "x.csv")]) == 1


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


def test_threads_env_var_used_when_flag_absent(tmp_path, monkeypatch):
    config = {"s": 2.0, "a": 1.0, "r": 10.0, "theta": {"count": 33}}
    monkeypatch.setenv("PULSEBEAM_THREADS", "3")
    code, out = run_cli(tmp_path, "pattern", config, "env.csv")
    assert code == 0
    monkeypatch.delenv("PULSEBEAM_THREADS")
    _, ref = run_cli(tmp_path, "pattern", config, "ref.csv")
    assert out.read_bytes() == ref.read_bytes()


def test_verify_subset(tmp_path, capsys):
    assert main(["verify", "--only", "9"]) == 0
    printed = capsys.readouterr().out
    assert "pattern-shape" in printed and "PASS" in printed


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
