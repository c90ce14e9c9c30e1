"""Byte-stability of the CLI: pinned configs must reproduce pinned CSV hashes.

Each hash records the exact bytes its config produced when it was pinned,
so a failure means an emitted byte moved.  Re-pin only for an intended
output change whose size has been measured.  For `channel` the JSON
summary on stdout (minus its output path) is pinned as well.
"""

import hashlib
import json
import math

import pytest

from pulsebeam.cli import main

GRID = {
    "x1": {"min": -2.0, "max": 2.0, "count": 9},
    "x3": {"min": -1.0, "max": 1.0, "count": 5},
}
FIELD_GRID = dict(GRID, t={"min": 1.0, "max": 2.5, "count": 2})

CONFIGS = {
    "distance": ("distance", {"extent": [0.0, 0.0, 1.0, 2.0], "grid": GRID}),
    "distance-oblique": (
        "distance",
        {"extent": [0.3, -0.2, 0.9, 2.0], "grid": dict(GRID, x2=0.25)},
    ),
    "propagator": ("propagator", {"extent": [0.0, 0.0, 1.0, 2.0], "grid": FIELD_GRID}),
    "wavelet-delta": (
        "wavelet",
        {
            "extent": [0.0, 0.0, 1.0, 2.0],
            "signal": {"type": "delta", "order": 1},
            "grid": FIELD_GRID,
        },
    ),
    "wavelet-temporal": (
        "wavelet",
        {"extent": [0.0, 0.0, 0.0, 0.7], "signal": {"type": "delta"}, "grid": FIELD_GRID},
    ),
    "wavelet-gaussian": (
        "wavelet",
        {
            "extent": [0.2, 0.0, 0.8, 1.5],
            "signal": {"type": "gaussian", "center": 0.5, "width": 0.8, "amplitude": 1.5},
            "grid": {
                "x1": {"min": -1.0, "max": 1.0, "count": 3},
                "x3": {"min": 0.0, "max": 2.0, "count": 3},
                "t": 2.0,
            },
        },
    ),
    # a slice through the extension axis (x1): mirror points share their field argument;
    # x1 = 0 crosses the cut and |x2| = 1 hits the branch circle
    "wavelet-gaussian-mirror": (
        "wavelet",
        {
            "extent": [1.0, 0.0, 0.0, 1.4],
            "signal": {"type": "gaussian", "center": 0.3, "width": 0.6, "amplitude": 1.2},
            "grid": {
                "x1": {"min": -1.0, "max": 1.0, "count": 5},
                "x2": {"min": -1.5, "max": 1.5, "count": 7},
                "t": {"min": 0.0, "max": 1.0, "count": 2},
            },
        },
    ),
    # uneven samples with nonzero ends, on the mirror slice through the extension axis
    "wavelet-sampled": (
        "wavelet",
        {
            "extent": [1.0, 0.0, 0.0, 1.4],
            "signal": {
                "type": "sampled",
                "times": [
                    -1.1, -0.955, -0.848, -0.772, -0.689, -0.614, -0.458, -0.409, -0.32,
                    -0.167, -0.023, 0.074, 0.121, 0.26, 0.408, 0.484, 0.526, 0.674, 0.787,
                    0.877, 0.935, 1.057, 1.168, 1.318, 1.445, 1.6, 1.683, 1.802, 1.92,
                    1.984, 2.115, 2.246, 2.345, 2.463, 2.536, 2.68,
                ],
                "values": [
                    0.268, -0.123, -0.408, -0.567, -0.673, -0.692, -0.498, -0.382, -0.127,
                    0.339, 0.666, 0.773, 0.791, 0.735, 0.589, 0.526, 0.503, 0.517, 0.626,
                    0.746, 0.824, 0.942, 0.943, 0.728, 0.378, -0.128, -0.366, -0.595,
                    -0.647, -0.601, -0.376, -0.062, 0.162, 0.352, 0.412, 0.41,
                ],
            },
            "grid": {
                "x1": {"min": -1.0, "max": 1.0, "count": 5},
                "x2": {"min": -1.5, "max": 1.5, "count": 7},
                "t": {"min": 0.0, "max": 1.0, "count": 2},
            },
        },
    ),
    "pattern": (
        "pattern",
        {"s": 2.0, "a": 1.0, "r": 100.0, "theta": {"min": 0.0, "max": math.pi, "count": 37}},
    ),
    "channel": (
        "channel",
        {
            "channel": {
                "emitter": {"center": [0.0, 0.0, 0.0, 0.0], "extent": [0.0, 0.0, 0.8, 1.6]},
                "receiver": {"center": [0.5, 0.0, 10.0, 10.3], "extent": [0.3, 0.0, 0.9, 1.7]},
            },
            "signal": {"type": "gaussian", "center": 0.0, "width": 1.0, "amplitude": 1.0},
            "theta": {"min": -math.pi, "max": math.pi, "count": 37},
        },
    ),
}

EXPECTED = {
    "channel": [
        "b6256ba68bd8a7cbdcdacd3fd322b87067dcdbbb4093febe3e0b7af1270df671",
        "9805e90eb3314c5905d27db95e9c9118ffbd1589bbf1eb2e817454a61c3fcf10",
    ],
    "distance": ["f5fe3b3d0656a5b1bb9b88bd1893a67e6b010d8bea9d183e5acaec0d0d29b70b"],
    "distance-oblique": ["b89c90446522e65b31bc50479158f31f4450bdcedb5f3e9720e15ce3cd1223c3"],
    "pattern": ["4e1aaab24cdbe4154fd83e744cede4fa16cc60ee171f56eb48184fd121a4a24a"],
    "propagator": ["653153781558ccbc8fd2324db1892144d48f0a2bfad44f53df61cc394f4e5d6b"],
    "wavelet-delta": ["8b58d03a1b477f120e3ccdf27049a2f97c2ef0b7a852cb005e8bd1139ec802f1"],
    "wavelet-gaussian": ["32d4d74e1bedb7c6f50680780b333f74e095d8ff4e9c730e6258f068a02e6a4a"],
    "wavelet-gaussian-mirror": [
        "ef733a5626c957c3cb6d9e3a7e04e008fd72c8fc5bcf931679287a7cfd502969"
    ],
    "wavelet-temporal": ["abff66fc5dbc68b4199e9f5e4653ceeb73ee32eca5f606394aa565af67d7946b"],
    "wavelet-sampled": ["1e2f020adc19c6177ccf4f11a4a38a3f0af8e8e6a50cf3109c4de2930559dc12"],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_pinned(tmp_path, capsys, name):
    command, config = CONFIGS[name]
    config_path = tmp_path / f"{name}.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / f"{name}.csv"
    capsys.readouterr()
    assert main([command, "--config", str(config_path), "--out", str(out)]) == 0
    digests = [_sha256(out.read_bytes())]
    if command == "channel":
        summary = json.loads(capsys.readouterr().out)
        del summary["scan_csv"]
        digests.append(_sha256(json.dumps(summary, sort_keys=True).encode()))
    return digests


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_pinned_config_bytes(tmp_path, capsys, name):
    assert run_pinned(tmp_path, capsys, name) == EXPECTED[name]
