import json
import math

import numpy as np
import pytest

from pulsebeam import (
    CausalityError,
    Channel,
    ConeVector,
    ConeViolationError,
    DeltaDerivative,
    GaussianPulse,
    RealEvent,
    ValidationError,
    channel_amplitude,
    channel_from_json,
    channel_metrics,
    channel_to_json,
    channel_translate,
    gain_scan,
    wavelet_eval,
)

EIGHT_PI_SQ = 8.0 * math.pi**2

ORIGIN = RealEvent((0, 0, 0), 0.0)


def los_channel(separation=10.0, arrival_offset=0.0):
    """Line-of-sight link along the z axis."""
    return Channel(
        ORIGIN,
        ConeVector((0, 0, 0.8), 1.6),
        RealEvent((0, 0, separation), separation + arrival_offset),
        ConeVector((0, 0, 0.9), 1.7),
    )


def test_channel_identity_translation():
    # a point emitter at the origin: the link is the receiver itself
    ch = Channel(
        ORIGIN, ConeVector.null(), RealEvent((0, 0, 0), 1.0), ConeVector((0, 0, 1), 2.0)
    )
    assert ch.separation.space == (0.0, 0.0, 0.0) and ch.separation.time == 1.0
    assert ch.combined_extent.space == (0.0, 0.0, 1.0) and ch.combined_extent.time == 2.0


def test_make_channel_parallel_extents():
    ch = Channel(
        ORIGIN,
        ConeVector((0, 0, 1), 2.0),
        RealEvent((0, 0, 5), 5.0),
        ConeVector((0, 0, 1), 2.0),
    )
    assert ch.aperture == pytest.approx(2.0)
    assert ch.combined_extent.time == pytest.approx(4.0)


def test_channel_point_emitter_is_valid():
    ch = Channel(
        ORIGIN, ConeVector.null(), RealEvent((0, 0, 5), 5.0), ConeVector((0, 0, 1), 2.0)
    )
    assert ch.emitter_extent.is_null


def test_make_channel_rejects_two_point_endpoints():
    with pytest.raises(CausalityError):
        Channel(ORIGIN, ConeVector.null(), RealEvent((0, 0, 5), 5.0), ConeVector.null())


def test_rounded_extent_sum_outside_the_cone_is_a_causality_error():
    # both extents are interior by one ulp, but the rounded sum lies on or
    # outside the cone, so summing them in ConeVector itself fails
    emitter = ConeVector(
        (0.5750852758702082, 0.39420636537403153, -0.6063723816669664), 0.9240179642585891
    )
    receiver = ConeVector(
        (0.1650769099402814, 0.11315603338351075, -0.17405780192727988), 0.26523723814404004
    )
    with pytest.raises(ValidationError):
        emitter + receiver
    with pytest.raises(CausalityError):
        Channel(ORIGIN, emitter, RealEvent((0, 0, 5), 5.0), receiver)


def test_metrics_values():
    ch = Channel(
        ORIGIN,
        ConeVector((0, 0, 1), 2.0),
        RealEvent((0, 0, 5), 5.0),
        ConeVector((0, 0, 1), 2.0),
    )
    m = channel_metrics(ch)
    assert m.emit_bandwidth == pytest.approx(1.0)
    assert m.duration == pytest.approx(2.0)
    assert m.bandwidth == pytest.approx(0.5)
    assert m.duration == pytest.approx(m.emit_duration + m.receive_duration)


def test_metrics_orthogonal_extents_strict_triangle():
    # arithmetic oracle: a = sqrt(2), T = 4 - sqrt(2), B = 1/T
    ch = Channel(
        ORIGIN,
        ConeVector((0, 0, 1), 2.0),
        RealEvent((0, 0, 5), 5.0),
        ConeVector((1, 0, 0), 2.0),
    )
    m = channel_metrics(ch)
    assert m.aperture == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert m.duration == pytest.approx(4.0 - math.sqrt(2.0), rel=1e-15)
    assert m.bandwidth == pytest.approx(0.3867295401695068, rel=1e-14)
    assert m.duration > m.emit_duration + m.receive_duration
    assert m.bandwidth < 0.5


def test_metrics_null_endpoint_bandwidth_sentinel():
    ch = Channel(
        ORIGIN, ConeVector.null(), RealEvent((0, 0, 5), 5.0), ConeVector((0, 0, 1), 2.0)
    )
    m = channel_metrics(ch)
    assert m.emit_duration == 0.0
    assert m.emit_bandwidth == math.inf
    assert m.bandwidth == pytest.approx(1.0)


def test_amplitude_point_emitter_reduces_to_single_extent_wavelet():
    signal = GaussianPulse()
    receiver_extent = ConeVector((0, 0, 1), 2.0)
    ch = Channel(
        ORIGIN, ConeVector.null(), RealEvent((0, 0, 5), 5.2), receiver_extent
    )
    direct = wavelet_eval(signal, RealEvent((0, 0, 5), 5.2), receiver_extent)
    assert channel_amplitude(ch, signal) == direct


def test_translate_to_point_receiver_and_point_emitter():
    ch = los_channel()
    zero = (0.0, 0.0, 0.0, 0.0)
    to_receiver = (*ch.receiver_extent.space, ch.receiver_extent.time)
    point_receiver = channel_translate(ch, zero, to_receiver)
    assert point_receiver.receiver_extent.is_null
    assert point_receiver.emitter_extent.space == pytest.approx((0.0, 0.0, 1.7))
    to_emitter = tuple(-v for v in (*ch.emitter_extent.space, ch.emitter_extent.time))
    point_emitter = channel_translate(ch, zero, to_emitter)
    assert point_emitter.emitter_extent.is_null
    assert point_emitter.receiver_extent.space == pytest.approx((0.0, 0.0, 1.7))


def test_translate_preserves_amplitude():
    rng = np.random.default_rng(17)
    ch = los_channel(arrival_offset=0.2)
    signal = DeltaDerivative(0)
    reference = channel_amplitude(ch, signal)
    for _ in range(100):
        xi = tuple(float(v) for v in rng.uniform(-1, 1, size=4))
        eta = tuple(float(v) for v in rng.normal(scale=0.05, size=4))
        moved = channel_translate(ch, xi, eta)
        assert channel_amplitude(moved, signal) == pytest.approx(reference, rel=1e-14)
        assert moved.separation.space == pytest.approx(ch.separation.space, abs=1e-12)


def test_translate_rejects_cone_violations():
    ch = los_channel()
    with pytest.raises(ConeViolationError):
        channel_translate(ch, (0, 0, 0, 0), (0, 0, 0, -1.7))  # emitter lag below radius
    with pytest.raises(ConeViolationError):
        channel_translate(ch, (0, 0, 0, 0), (0, 0, 5.0, 0))  # receiver radius above lag


def test_gain_scan_line_of_sight_maximum():
    thetas = [float(v) for v in np.linspace(-math.pi, math.pi, 721)]
    scan = gain_scan(1.0, 2.0, 1.0, 2.0, 100.0, thetas)
    peaks = [p for _, p in scan]
    best = max(range(len(peaks)), key=peaks.__getitem__)
    assert abs(scan[best][0]) < 1e-12
    assert peaks[best] == pytest.approx(1.0 / (EIGHT_PI_SQ * 100.0 * 2.0), rel=1e-14)
    # axial symmetry
    for k in range(1, 360):
        assert peaks[360 + k] == pytest.approx(peaks[360 - k], rel=1e-12)


def test_gain_scan_monotone_and_validated():
    thetas = [float(v) for v in np.linspace(0.0, math.pi, 181)]
    peaks = [p for _, p in gain_scan(0.5, 1.0, 0.8, 1.5, 50.0, thetas)]
    assert all(a > b for a, b in zip(peaks, peaks[1:]))
    with pytest.raises(CausalityError):
        gain_scan(1.0, 1.0, 1.0, 2.0, 50.0, thetas)
    with pytest.raises(ValidationError):
        gain_scan(1.0, 2.0, 1.0, 2.0, 0.0, thetas)


def test_line_of_sight_beats_tilted_configuration():
    # same endpoint sizes, receiver extension tilted off the separation axis
    signal = DeltaDerivative(0)
    straight = los_channel(arrival_offset=0.0)
    tilted = Channel(
        ORIGIN,
        ConeVector((0, 0, 0.8), 1.6),
        RealEvent((0, 0, 10.0), 10.0),
        ConeVector((0.9, 0, 0), 1.7),
    )
    assert abs(channel_amplitude(straight, signal)) > abs(channel_amplitude(tilted, signal))


def test_json_round_trip_and_field_names():
    ch = los_channel()
    obj = channel_to_json(ch)
    assert set(obj) == {"emitter", "receiver"}
    assert set(obj["emitter"]) == {"center", "extent"}
    assert obj["emitter"]["center"] == [0.0, 0.0, 0.0, 0.0]
    assert obj["receiver"]["extent"] == [0.0, 0.0, 0.9, 1.7]
    # survives a JSON text round trip exactly
    restored = channel_from_json(json.loads(json.dumps(obj)))
    assert restored == ch


def test_json_validation():
    with pytest.raises(ValidationError):
        channel_from_json({"emitter": {"center": [0, 0, 0, 0], "extent": [0, 0, 0, 0]}})
    with pytest.raises(ValidationError):
        channel_from_json(
            {
                "emitter": {"center": [0, 0, 0, 0]},
                "receiver": {"center": [0, 0, 5, 5], "extent": [0, 0, 1, 2]},
            }
        )
    with pytest.raises(ValidationError):
        channel_from_json(
            {
                "emitter": {"center": [0, 0, 0], "extent": [0, 0, 0, 0]},
                "receiver": {"center": [0, 0, 5, 5], "extent": [0, 0, 1, 2]},
            }
        )
    with pytest.raises(ValidationError, match="recevier"):
        # a misspelt extra side next to the two real endpoints
        channel_from_json(
            {
                "emitter": {"center": [0, 0, 0, 0], "extent": [0, 0, 0, 0]},
                "receiver": {"center": [0, 0, 5, 5], "extent": [0, 0, 1, 2]},
                "recevier": {"center": [0, 0, 5, 5], "extent": [0, 0, 1, 2]},
            }
        )


def test_triangle_inequality_random_extents():
    rng = np.random.default_rng(23)
    apart = RealEvent((4, 0, 0), 4.0)
    for _ in range(2000):
        d1, d2 = rng.normal(size=(2, 3))
        d1 /= np.linalg.norm(d1)
        d2 /= np.linalg.norm(d2)
        a1, a2 = rng.uniform(0.05, 1.5, size=2)
        m1, m2 = rng.uniform(0.05, 1.0, size=2)
        ch = Channel(
            ORIGIN,
            ConeVector(tuple(a1 * d1), a1 + m1),
            apart,
            ConeVector(tuple(a2 * d2), a2 + m2),
        )
        m = channel_metrics(ch)
        assert m.duration >= (m.emit_duration + m.receive_duration) * (1 - 1e-12)
        assert m.bandwidth <= 1.0 / (m.emit_duration + m.receive_duration) * (1 + 1e-12)
        assert 1.0 / (m.emit_duration + m.receive_duration) < min(
            m.emit_bandwidth, m.receive_bandwidth
        )
