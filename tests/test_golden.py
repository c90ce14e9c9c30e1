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
