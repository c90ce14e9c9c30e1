import math

import numpy as np
import pytest

from pulsebeam import (
    AccuracyError,
    CausalityError,
    DegenerateExtensionError,
    SingularityProximityError,
    ValidationError,
    beam_profile,
    complex_distance,
    extended_propagator,
    far_zone_propagator,
    gain_scan,
)
from pulsebeam.geometry import ComplexDistance
from pulsebeam.propagator import _impulse_field, _impulse_field_block

EIGHT_PI_SQ = 8.0 * math.pi**2


def test_on_axis_peak_value():
    # oracle: on the axis the radial root is 3 - i (from (x3 - ia)^2) and
    # tau - rt = -i, so the field is 1/(8 i pi^2 (3-i)(-i)) = (0.3+0.1i)/(8 pi^2)
    value = extended_propagator((0, 0, 3), (0, 0, 1), 3.0, 2.0)
    expected = 1.0 / (8j * math.pi**2 * (3 - 1j) * (-1j))
    assert value == pytest.approx(expected, rel=1e-14)
    assert value == pytest.approx(complex(3.7995443865876666e-3, 1.266514795529222e-3), rel=1e-12)


def test_decays_monotonically_past_the_peak():
    magnitudes = [
        abs(extended_propagator((0, 0, 3), (0, 0, 1), t, 2.0)) for t in np.arange(3.0, 30.0, 0.5)
    ]
    assert all(a > b for a, b in zip(magnitudes, magnitudes[1:]))


def test_extension_must_be_interior():
    with pytest.raises(CausalityError):
        extended_propagator((0, 0, 3), (0, 0, 1), 3.0, 1.0)
    with pytest.raises(CausalityError):
        extended_propagator((0, 0, 3), (0, 0, 1), 3.0, 0.5)


def test_real_case_refused():
    with pytest.raises(DegenerateExtensionError):
        extended_propagator((0, 0, 3), (0, 0, 0), 3.0, 2.0)


def test_branch_circle_guard():
    with pytest.raises(SingularityProximityError):
        extended_propagator((1, 0, 0), (0, 0, 1), 1.0, 2.0)


def test_far_zone_values():
    on_axis = far_zone_propagator(100.0, 0.0, 100.0, 2.0, 1.0)
    assert on_axis == pytest.approx(1.0 / (EIGHT_PI_SQ * 100.0), rel=1e-14)
    assert on_axis.imag == pytest.approx(0.0, abs=1e-18)
    broadside = far_zone_propagator(100.0, math.pi / 2, 100.0, 2.0, 1.0)
    assert broadside == pytest.approx(1.0 / (EIGHT_PI_SQ * 100.0 * 2.0), rel=1e-14)
    back = far_zone_propagator(100.0, math.pi, 100.0, 2.0, 1.0)
    assert abs(on_axis) / abs(back) == pytest.approx(3.0, rel=1e-12)


def test_far_zone_validation():
    with pytest.raises(ValidationError):
        far_zone_propagator(0.0, 0.0, 1.0, 2.0, 1.0)
    with pytest.raises(CausalityError):
        far_zone_propagator(1.0, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        far_zone_propagator(1.0, 0.0, 1.0, 2.0, -0.5)


def test_peak_occurs_at_arrival_time():
    r, s, a = 80.0, 2.0, 1.0
    times = np.linspace(r - 5, r + 5, 1001)
    mags = [abs(far_zone_propagator(r, 0.7, t, s, a)) for t in times]
    peak_index = int(np.argmax(mags))
    assert abs(times[peak_index] - r) <= times[1] - times[0]


def test_beam_profile_values():
    profile = beam_profile(2.0, 1.0, 100.0, (0.0, math.pi))
    assert profile.duration[0] == pytest.approx(1.0)
    assert profile.duration[1] == pytest.approx(3.0)
    assert profile.pattern[0] == pytest.approx(1.0 / EIGHT_PI_SQ, rel=1e-14)
    assert profile.peak[0] == pytest.approx(1.0 / (EIGHT_PI_SQ * 100.0), rel=1e-14)
    assert profile.eccentricity == pytest.approx(0.5)


def test_narrow_beam_forward_ratio():
    # pattern ratio front/back is (s+a)/(s-a); a sharp forward beam as s -> a+
    profile = beam_profile(1.01, 1.0, 10.0, (0.0, math.pi))
    assert profile.pattern[0] / profile.pattern[1] == pytest.approx(201.0, rel=1e-9)


def test_no_sidelobes():
    thetas = np.linspace(0.0, math.pi, 2001)
    profile = beam_profile(1.3, 1.0, 10.0, tuple(thetas))
    assert all(a > b for a, b in zip(profile.pattern, profile.pattern[1:]))


def test_beam_profile_validation():
    with pytest.raises(CausalityError):
        beam_profile(1.0, 1.0, 10.0, (0.0,))
    with pytest.raises(ValidationError):
        beam_profile(2.0, 1.0, 0.0, (0.0,))


def test_denominator_never_degenerates():
    # |Im(tau - rt)| >= s - a > 0 for interior extensions at regular points
    rng = np.random.default_rng(3)
    worst = math.inf
    for _ in range(100_000):
        yhat = rng.normal(size=3)
        yhat /= np.linalg.norm(yhat)
        a = float(rng.uniform(0.1, 2.0))
        s = a + float(rng.uniform(0.05, 2.0))
        x = tuple(float(v) for v in rng.uniform(-6, 6, size=3))
        t = float(rng.uniform(-10, 10))
        dist = complex_distance(x, tuple(a * c for c in yhat))
        tau_minus_rt = complex(t, -s) - dist.value
        worst = min(worst, abs(tau_minus_rt.imag) - (s - a))
    assert worst >= -1e-12


def test_far_zone_consistency_at_large_radius():
    a, s = 1.0, 2.0
    for theta in (0.0, 0.5, 1.2, 2.4):
        r = 100.0 * a
        x = (r * math.sin(theta), 0.0, r * math.cos(theta))
        exact = extended_propagator(x, (0, 0, a), r, s)
        approx = far_zone_propagator(r, theta, r, s, a)
        assert abs(exact - approx) / abs(approx) <= 0.02


@pytest.mark.parametrize(
    "call",
    [
        lambda: complex_distance((1.4e154, 0, 0), (0, 0, 1)),
        lambda: extended_propagator((0, 0, 1e-160), (0, 0, 1e-160), 0, 3e-160),
        lambda: far_zone_propagator(1e-200, 0, 1e-200, 1e-200, 0),
        lambda: beam_profile(5.7e-232, 0, 5.7e-232, [0]),
        lambda: gain_scan(0, 5.7e-232, 0, 5.7e-232, 5.7e-232, [0]),
        lambda: beam_profile(1e-323, 0, 1e20, [0.0]),
    ],
    ids=["distance-overflow", "propagator-overflow", "far-zone-underflow",
         "beam-peak-underflow", "gain-scan-underflow", "beam-pattern-overflow"],
)
def test_non_finite_results_are_accuracy_errors(call):
    # r*r overflows, or the denominator under- or overflows: no inf, nan or bare
    # ZeroDivisionError; the last case has a finite peak 1/(8 pi^2 r d) at r = 1e20
    # but an infinite pattern 1/(8 pi^2 d)
    with pytest.raises(AccuracyError):
        call()


def _scalar_field(p, q, t, s):
    """(re, im, abs) of the scalar field at root p - iq, or None where it raises AccuracyError."""
    try:
        value = _impulse_field(ComplexDistance(p, q), t, s)
    except AccuracyError:
        return None
    return value.real, value.imag, abs(value)


def test_impulse_field_block_matches_the_scalar_oracle_bitwise():
    rng = np.random.default_rng(8)
    n = 20_000
    # one scale per row, so the products run from 1e-300 to 1e300
    scale = 10.0 ** rng.uniform(-150.0, 150.0, n)
    p = np.abs(rng.normal(size=n)) * scale
    q = rng.normal(size=n) * scale
    t = rng.normal(size=n) * scale
    s = np.abs(q) + rng.uniform(0.01, 2.0, n) * scale
    t[::7] = p[::7]  # tau - rt purely imaginary
    rows = [tuple(v) for v in np.column_stack([p, q, t, s]).tolist()]
    # edge rows from the geometry, extension (0, 0, 1), lag 2: on the cut, exactly on the
    # branch circle (p = q = 0: the denominator is 0), on the axis both ways, and in the
    # plane of the circle outside it (q = 0: at t = p the denominator's imaginary part is 0)
    for x in ((0.5, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.6, 0.8),
              (0.0, 0.0, 3.0), (0.0, 0.0, -3.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0),
              (2.0, 0.0, 0.0), (0.0, -2.0, 0.0)):
        dist = complex_distance(x, (0.0, 0.0, 1.0), near_circle_tol=0.0)
        rows += [(dist.p, dist.q, t, 2.0) for t in (dist.p, -dist.p, 0.0, 1.0)]
    # tiny scales: the denominator underflows to 0, or its reciprocal overflows
    for scale in (1e-160, 1e-162, 1e-165, 1e-170, 1e-200):
        rows += [(scale, -scale, 0.0, 3.0 * scale), (0.0, scale, scale, 2.0 * scale)]
    p, q, t, s = (np.array(col) for col in zip(*rows))

    re, im, magnitude, bad = _impulse_field_block(p, q, t, s)

    expected = [_scalar_field(*row) for row in rows]
    raised = np.array([value is None for value in expected])
    assert np.array_equal(bad, raised)
    # both ways of raising occur: a denominator of 0, and a reciprocal that overflows
    zero = np.array([
        8j * math.pi * math.pi * complex(p, -q) * (complex(t, -s) - complex(p, -q)) == 0
        for p, q, t, s in rows
    ])
    assert (raised & zero).any() and (raised & ~zero).any()
    kept = [value for value in expected if value is not None]
    for got, want in zip((re, im, magnitude), zip(*kept)):
        # int64 views: -0.0 and 0.0 differ
        assert np.array_equal(got[~bad].view(np.int64), np.array(want).view(np.int64))
