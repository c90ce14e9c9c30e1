import cmath
import csv
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pulsebeam import (
    AccuracyError,
    DeltaDerivative,
    DomainError,
    GaussianPulse,
    NonAnalyticPointError,
    SampledSignal,
    ValidationError,
    analytic_signal,
    fourier_transform,
    jump_of_signal,
    signals,
    spectral_signal,
)
from pulsebeam.signals import (
    DEFAULT_EPS_LADDER,
    DEFAULT_REL_TOL,
    MAX_DELTA_ORDER,
    richardson_limit,
)

TWO_PI_I = 2j * math.pi


def _cauchy_quadrature(signal, z, density):
    """The Cauchy integral of density, the signal's pointwise value, by adaptive quadrature.

    The oracle for the Gaussian and the sampled closed form (with density =
    signal.amplitude_at), on the Gaussian's panels or between the samples;
    z must lie off the support (analytic_signal checks it).
    """
    nodes = signal.times if isinstance(signal, SampledSignal) else signal.effective_support()
    storing = signals._storing(lambda tp: density(tp) / (z - tp))
    return signals._cauchy_integral(signal, z, storing, nodes)


# ---------------------------------------------------------------------------
# impulse derivatives: closed forms
# ---------------------------------------------------------------------------


def test_impulse_is_cauchy_kernel():
    for tau in (complex(0.3, -1.2), complex(-2, -0.4), complex(1, 2)):
        assert analytic_signal(DeltaDerivative(0), tau) == pytest.approx(1.0 / (TWO_PI_I * tau))


def test_first_derivative_at_minus_i():
    # (-1) * 1! / (2 pi i (-i)^2) = 1/(2 pi i)
    value = analytic_signal(DeltaDerivative(1), complex(0, -1))
    assert value == pytest.approx(1.0 / TWO_PI_I, rel=1e-15)


def test_impulse_accepts_complex_time_wrapper():
    # complex time is a plain complex number t - i s
    assert analytic_signal(DeltaDerivative(0), 0 - 1j) == pytest.approx(
        1.0 / (2 * math.pi), rel=1e-15
    )


@pytest.mark.parametrize(
    "tau", [0.5 - 0.5j, 1e-3j, 100.0 - 1j], ids=["inf", "zero-power", "power-overflow"]
)
def test_impulse_overflow_is_an_accuracy_error(tau):
    # n!/tau^(n+1) at the top order: the quotient overflows, tau^(n+1)
    # underflows to 0, or the power itself overflows
    with pytest.raises(AccuracyError):
        analytic_signal(DeltaDerivative(MAX_DELTA_ORDER), tau)


def test_impulse_singular_origin():
    with pytest.raises(NonAnalyticPointError):
        analytic_signal(DeltaDerivative(0), 0j)


def test_impulse_real_axis_off_support_is_fine():
    # supp is {0}; elsewhere the two boundary values coincide
    assert analytic_signal(DeltaDerivative(0), complex(2.0, 0.0)) == pytest.approx(
        1.0 / (TWO_PI_I * 2.0)
    )


def test_negative_order_rejected():
    with pytest.raises(ValidationError):
        DeltaDerivative(-1)


@pytest.mark.parametrize("order", [True, 171, 300, 2.0])
def test_order_must_be_a_plain_int_whose_factorial_is_a_float(order):
    with pytest.raises(ValidationError):
        DeltaDerivative(order)
    assert DeltaDerivative(170).order == 170


# ---------------------------------------------------------------------------
# spectral route: must reproduce the closed forms (this pins the sign and
# transform convention)
# ---------------------------------------------------------------------------


def test_spectral_matches_cauchy_kernel_below_axis():
    # flat spectrum, t=0, s=1: 1/(2 pi i (-i)) = 1/(2 pi)
    value = spectral_signal(DeltaDerivative(0), 0.0, 1.0)
    assert value == pytest.approx(1.0 / (2 * math.pi), rel=1e-10)


def test_spectral_matches_cauchy_kernel_above_axis():
    value = spectral_signal(DeltaDerivative(0), 0.7, -0.4)
    assert value == pytest.approx(1.0 / (TWO_PI_I * complex(0.7, 0.4)), rel=1e-10)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_spectral_matches_impulse_derivatives(order):
    for t, s in ((0.0, 1.0), (1.3, 0.5), (-0.8, 2.0), (0.4, -0.7)):
        closed = analytic_signal(DeltaDerivative(order), complex(t, -s))
        spectral = spectral_signal(DeltaDerivative(order), t, s)
        assert abs(spectral - closed) <= 1e-9 * abs(closed)


def test_spectral_rejects_real_axis():
    with pytest.raises(DomainError):
        spectral_signal(GaussianPulse(), 1.0, 0.0)


@pytest.mark.parametrize("s", [1e-310, -1e-310])
def test_spectral_refuses_a_cut_off_that_overflows(s):
    # 45/|s| is not a float: the impulse and sampled cut-offs leave the floats
    for sig in (DeltaDerivative(0), SampledSignal((0.0, 1.0, 2.0), (0.0, 1.0, 0.0))):
        with pytest.raises(DomainError, match=re.escape(f"s = {s!r}")):
            spectral_signal(sig, 0.0, s)
    # the Gaussian's cut-off is capped by its own spectral decay
    assert spectral_signal(GaussianPulse(), 0.0, s) == math.copysign(0.49999999999999994, s)


# ---------------------------------------------------------------------------
# Gaussian pulses
# ---------------------------------------------------------------------------


def test_gaussian_against_faddeeva_oracle():
    # oracle: g = -(A/2) w(zeta) above the axis, (A/2) conj(w(conj zeta))
    # below, zeta = (tau - center)/(width sqrt 2), w the Faddeeva function
    sig = GaussianPulse(0.0, 1.0, 1.0)
    cases = {
        complex(0, -0.5): complex(0.34961883472039801, 0.0),
        complex(1, -0.5): complex(0.25088796979529204, -0.1769839116818111),
        complex(2, 0.3): complex(-0.093223700302107942, -0.21662408598347807),
        complex(-1.5, -2.0): complex(0.12869621959748667, 0.075101692536735695),
    }
    for tau, expected in cases.items():
        assert analytic_signal(sig, tau) == pytest.approx(expected, rel=1e-11)


def test_gaussian_dual_path_agreement():
    sig = GaussianPulse(0.0, 1.0, 1.0)
    value = analytic_signal(sig, complex(0.0, -0.5))
    assert spectral_signal(sig, 0.0, 0.5) == pytest.approx(value, rel=1e-6)


def test_gaussian_shifted_scaled_dual_path():
    sig = GaussianPulse(center=1.5, width=0.6, amplitude=-2.0)
    for t, s in ((0.0, 0.5), (1.5, 1.0), (3.0, -0.8)):
        direct = analytic_signal(sig, complex(t, -s))
        assert spectral_signal(sig, t, s) == pytest.approx(direct, rel=1e-8)


def test_gaussian_integrand_is_bitwise_the_amplitude_oracle():
    # GaussianPulse.analytic integrates a closure over its fields; the same quadrature
    # driven through amplitude_at must give the same bits, both half-planes, near and far
    sig = GaussianPulse(center=0.4, width=0.7, amplitude=-1.3)
    rng = np.random.default_rng(23)
    t = rng.uniform(-4.0, 4.0, 300)
    s = 10.0 ** rng.uniform(-3.0, 1.0, 300) * np.where(np.arange(300) % 2, 1.0, -1.0)
    for z in map(complex, t.tolist(), (-s).tolist()):
        got, want = sig.analytic(z), _cauchy_quadrature(sig, z, sig.amplitude_at)
        assert (repr(got.real), repr(got.imag)) == (repr(want.real), repr(want.imag))


def test_gaussian_rejects_real_axis_inside_support():
    with pytest.raises(NonAnalyticPointError):
        analytic_signal(GaussianPulse(), complex(0.5, 0.0))


def test_gaussian_decay_in_imaginary_depth():
    # the spectral damping makes |g| non-increasing as the point drops
    # farther below the axis
    sig = GaussianPulse(0.0, 1.0, 1.0)
    for t in (-1.0, 0.0, 0.7, 2.0):
        values = [abs(analytic_signal(sig, complex(t, -s))) for s in (0.2, 0.5, 1, 2, 4)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_gaussian_width_must_be_positive():
    with pytest.raises(ValidationError):
        GaussianPulse(width=0.0)


# ---------------------------------------------------------------------------
# sampled signals
# ---------------------------------------------------------------------------


def triangle() -> SampledSignal:
    return SampledSignal((0.0, 1.0, 2.0), (0.0, 1.0, 0.0))


def test_sampled_validation():
    with pytest.raises(ValidationError):
        SampledSignal((0.0, 1.0), (1.0,))
    with pytest.raises(ValidationError):
        SampledSignal((0.0,), (1.0,))
    with pytest.raises(ValidationError):
        SampledSignal((0.0, 0.0), (1.0, 2.0))


def test_sampled_interpolation():
    sig = triangle()
    assert sig.amplitude_at(0.5) == 0.5
    assert sig.amplitude_at(1.5) == 0.5
    assert sig.amplitude_at(-3.0) == 0.0
    assert sig.amplitude_at(7.0) == 0.0


def test_sampled_fourier_transform_against_quadrature_oracle():
    # oracle: direct quadrature of the interpolant times exp(i w t)
    sig = triangle()
    cases = {
        0.0: complex(1.0, 0.0),
        0.37: complex(0.9217394629837907, 0.3575087823358575),
        1.0: complex(0.4967514482834218, 0.7736445427901113),
        4.2: complex(-0.08283633722022191, -0.1472647649045043),
    }
    for omega, expected in cases.items():
        assert fourier_transform(sig, omega) == pytest.approx(expected, abs=1e-12)


def test_sampled_dual_path():
    sig = triangle()
    for t, s in ((1.0, 0.5), (0.3, 1.0), (4.0, 0.4), (1.2, -0.6)):
        direct = analytic_signal(sig, complex(t, -s))
        assert spectral_signal(sig, t, s) == pytest.approx(direct, rel=1e-7)


def test_sampled_real_axis_outside_support():
    sig = triangle()
    value = analytic_signal(sig, complex(5.0, 0.0))
    # matches the common analytic continuation approached from either side
    just_below = analytic_signal(sig, complex(5.0, -1e-5))
    assert value == pytest.approx(just_below, rel=1e-3)
    with pytest.raises(NonAnalyticPointError):
        analytic_signal(sig, complex(1.0, 0.0))


def seeded_wave(seed=5, count=41) -> SampledSignal:
    """A jittered bump on [0, 4] with a random ripple of both signs, zero at both ends."""
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, 4.0, count)
    times[1:-1] += rng.uniform(-0.3, 0.3, count - 2) * (times[1] - times[0])
    values = np.sin(np.pi * times / 4.0) ** 2 * rng.uniform(0.7, 1.3, count)
    values += rng.uniform(-0.3, 0.3, count)
    values[0] = values[-1] = 0.0
    return SampledSignal(tuple(map(float, times)), tuple(map(float, values)))


def near_taus(rng, count):
    """Taus over and around the support, |s| log-uniform in [1e-3, 10], both half-planes."""
    depth = 10.0 ** rng.uniform(-3, 1, count) * rng.choice([-1.0, 1.0], count)
    return [complex(t, -s) for t, s in zip(rng.uniform(-2.0, 6.0, count), depth)]


def far_taus(rng, count):
    """Taus with |Re tau| log-uniform in [1e2, 1e9] on both sides of the support."""
    offset = 10.0 ** rng.uniform(2, 9, count) * rng.choice([-1.0, 1.0], count)
    depth = 10.0 ** rng.uniform(-3, 1, count) * rng.choice([-1.0, 1.0], count)
    return [complex(2.0 + t, -s) for t, s in zip(offset, depth)]


def relative_error(value, reference):
    return abs(value - reference) / abs(reference)


ORACLE_TAUS = {"near": (near_taus, 200), "far": (far_taus, 50)}
REAL_TAUS_OUTSIDE = (-3.0, -1e-3, 4.001, 50.0, 1e7)


def oracle_taus(kind):
    taus, count = ORACLE_TAUS[kind]
    return taus(np.random.default_rng(17), count)


@pytest.mark.parametrize("kind", ORACLE_TAUS)
def test_sampled_closed_form_matches_quadrature_oracle(kind):
    sig = seeded_wave()
    worst = max(
        relative_error(analytic_signal(sig, z), _cauchy_quadrature(sig, z, sig.amplitude_at))
        for z in oracle_taus(kind)
    )
    assert worst <= 1e-11


def test_sampled_closed_form_on_the_real_axis_outside_the_support():
    sig = seeded_wave()
    for t in REAL_TAUS_OUTSIDE:
        z = complex(t, 0.0)
        oracle = _cauchy_quadrature(sig, z, sig.amplitude_at)
        assert relative_error(analytic_signal(sig, z), oracle) <= 1e-11
    for t in (0.0, 1.0, sig.times[7], 4.0):
        with pytest.raises(NonAnalyticPointError):
            analytic_signal(sig, complex(t, 0.0))


def exact_cauchy_sum(sig, z, mpmath):
    """The segment sum at 50 digits, where the cancellation in
    (v0 + m (z - t0)) Log((z - t0)/(z - t1)) - m L does not matter."""
    with mpmath.workdps(50):
        zm = mpmath.mpc(z.real, z.imag)
        total = 0
        for t0, t1, v0, v1 in zip(sig.times, sig.times[1:], sig.values, sig.values[1:]):
            t0, t1, v0, v1 = map(mpmath.mpf, (t0, t1, v0, v1))
            slope = (v1 - v0) / (t1 - t0)
            total += (v0 + slope * (zm - t0)) * mpmath.log((zm - t0) / (zm - t1)) - (v1 - v0)
        return complex(total / (2j * mpmath.pi))


@pytest.mark.parametrize(
    "sig, points",
    [
        (seeded_wave(), oracle_taus("near") + oracle_taus("far")
         + [complex(t, 0.0) for t in REAL_TAUS_OUTSIDE]),
        # one segment of length 1 seen from |u| = 1/|tau| in [1e-2, 0.1]: the log
        # route, where phi/u - 1 cancels and the v0 term is absent
        (SampledSignal((0.0, 1.0), (0.0, 1.0)),
         [complex(t, s) for t in range(10, 100, 3) for s in (-1.0, 0.5)]),
    ],
    ids=["seeded-wave", "ramp"],
)
def test_sampled_rounding_bound_covers_the_observed_error(sig, points):
    mpmath = pytest.importorskip("mpmath")
    for z in points:
        exact = exact_cauchy_sum(sig, z, mpmath)
        value, estimate = sig._cauchy_sum(z)
        assert abs(value - exact) <= estimate
        assert estimate <= DEFAULT_REL_TOL * abs(exact)  # and never trips the accuracy check


def test_sampled_halves_connect_across_support_gap():
    # where the signal vanishes the two half-plane restrictions continue
    # one another: the jump extrapolates to zero
    sig = triangle()
    assert abs(jump_of_signal(sig, 5.0)) < 1e-9
    assert abs(jump_of_signal(sig, -2.0)) < 1e-9


def test_spectral_halves_connect_across_support_gap():
    # the two one-sided spectral restrictions approach a common value away
    # from the support, but stay apart by the signal value inside it
    sig = triangle()
    outside = abs(spectral_signal(sig, 5.0, 0.02) - spectral_signal(sig, 5.0, -0.02))
    inside = abs(spectral_signal(sig, 1.0, 0.02) - spectral_signal(sig, 1.0, -0.02))
    assert outside < 0.05 * inside
    # at finite depth the inside difference already approximates g0(1) = 1;
    # the kink there slows full convergence to O(s log s)
    assert inside == pytest.approx(sig.amplitude_at(1.0), rel=0.1)


def test_sampled_csv_round_trip(tmp_path):
    path = tmp_path / "wave.csv"
    path.write_text("time,value\n0.0,0.0\n0.5,1.25\n1.5,-0.5\n")
    sig = SampledSignal.from_csv(path)
    assert sig.times == (0.0, 0.5, 1.5)
    assert sig.values == (0.0, 1.25, -0.5)
    headerless = tmp_path / "raw.csv"
    headerless.write_text("0.0,1.0\n2.0,3.0\n")
    assert SampledSignal.from_csv(headerless).values == (1.0, 3.0)
    bad = tmp_path / "bad.csv"
    bad.write_text("time,value\n0.0,1.0\n1.0,oops\n")
    with pytest.raises(ValidationError):
        SampledSignal.from_csv(bad)
    not_ascending = tmp_path / "desc.csv"
    not_ascending.write_text("1.0,1.0\n0.0,2.0\n")
    with pytest.raises(ValidationError):
        SampledSignal.from_csv(not_ascending)


def test_sampled_csv_with_an_oversized_field_names_its_line(tmp_path):
    # csv refuses a field over its limit (131,072 characters by default)
    path = tmp_path / "long.csv"
    path.write_text("time,value\n0.0,1.0\n1.0," + "1" * (csv.field_size_limit() + 1) + "\n")
    with pytest.raises(ValidationError, match=r"long\.csv: line 3 is not CSV"):
        SampledSignal.from_csv(path)


@pytest.mark.parametrize("text", ["0.0,1.0\n2.0,3.0\n", "time,value\n0.0,1.0\n2.0,3.0\n"])
def test_sampled_csv_with_a_byte_order_mark_keeps_every_sample(tmp_path, text):
    # a BOM before "0.0" used to make the first sample read as a header row
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    sig = SampledSignal.from_csv(path)
    assert sig.times == (0.0, 2.0)
    assert sig.values == (1.0, 3.0)


# ---------------------------------------------------------------------------
# boundary jumps on the time axis
# ---------------------------------------------------------------------------


def test_jump_recovers_gaussian_peak():
    assert jump_of_signal(GaussianPulse(), 0.0) == pytest.approx(1.0, rel=1e-9)


def test_jump_recovers_gaussian_tail():
    assert jump_of_signal(GaussianPulse(), 2.0) == pytest.approx(math.exp(-2.0), rel=1e-9)


def test_jump_of_ramp_vanishing_at_point():
    ramp = SampledSignal((0.0, 1.0, 2.0, 3.0), (0.0, 0.5, 1.0, 0.0))
    assert abs(jump_of_signal(ramp, -1.0)) < 1e-9


def test_jump_requires_continuity():
    with pytest.raises(NonAnalyticPointError):
        jump_of_signal(DeltaDerivative(0), 0.0)
    step_edge = SampledSignal((0.0, 1.0), (1.0, 0.0))
    with pytest.raises(NonAnalyticPointError):
        jump_of_signal(step_edge, 0.0)


def test_eps_ladder_validation():
    # the fixed ladder of every jump extrapolation: positive, strictly descending, >= 3 rungs
    assert len(DEFAULT_EPS_LADDER) >= 3
    assert all(e > 0.0 for e in DEFAULT_EPS_LADDER)
    assert all(b < a for a, b in zip(DEFAULT_EPS_LADDER, DEFAULT_EPS_LADDER[1:]))


def test_richardson_limit_on_polynomial():
    # exact for data that is polynomial in eps
    eps = (0.4, 0.2, 0.1, 0.05)
    values = [7.0 + 3.0 * e - 2.0 * e * e for e in eps]
    limit, estimate = richardson_limit(eps, values)
    assert limit == pytest.approx(7.0, abs=1e-12)
    assert estimate < 1e-10


@pytest.mark.parametrize(
    "eps",
    [(), (0.1, 0.1, 0.05), (0.1, 0.05, 0.1), (0.1, math.nan, 0.05), (0.1, math.inf), (0.0, -0.0)],
    ids=["empty", "repeated-adjacent", "repeated-apart", "nan", "inf", "signed-zeros"],
)
def test_richardson_limit_refuses_a_bad_ladder(eps):
    # Neville's scheme divides by every difference of two rungs and starts at rung 0
    with pytest.raises(ValidationError, match="epsilon ladder"):
        richardson_limit(eps, [1.0] * len(eps))


# ---------------------------------------------------------------------------
# analyticity and accuracy control
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("order", [0, 1, 2])
def test_cauchy_riemann_residual(order):
    rng = np.random.default_rng(11)
    sig = DeltaDerivative(order)
    for _ in range(50):
        tau = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3) * rng.choice([-1, 1]))
        h = 3e-6 * abs(tau)
        d_real = (analytic_signal(sig, tau + h) - analytic_signal(sig, tau - h)) / (2 * h)
        d_imag = (analytic_signal(sig, tau + 1j * h) - analytic_signal(sig, tau - 1j * h)) / (
            2 * h
        )
        assert abs(d_imag - 1j * d_real) <= 1e-8 * max(abs(d_real), abs(d_imag))


def test_accuracy_error_carries_estimate():
    err = AccuracyError("no convergence", value=1.5, estimate=0.25)
    assert err.value == 1.5 and err.estimate == 0.25


def test_spectral_accuracy_failure_is_reported():
    # a very high derivative order oscillates the spectral integrand far
    # beyond what the quadrature can certify at this depth
    with pytest.raises(AccuracyError) as info:
        spectral_signal(DeltaDerivative(40), 30.0, 0.05)
    assert info.value.estimate is not None


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-3, 3),
    st.floats(0.05, 3),
    st.integers(min_value=0, max_value=3),
)
def test_conjugate_symmetry(t, s, order):
    # real driving signals obey g(conj tau) = -conj(g(tau))
    sig = DeltaDerivative(order)
    upper = analytic_signal(sig, complex(t, s))
    lower = analytic_signal(sig, complex(t, -s))
    assert upper == pytest.approx(-lower.conjugate(), rel=1e-12)


# ---------------------------------------------------------------------------
# reflection: g(conj z) = -conj g(z), so a jump needs one side
# ---------------------------------------------------------------------------

REFLECTED_SIGNALS = {
    "delta-0": DeltaDerivative(0),
    "delta-1": DeltaDerivative(1),
    "delta-2": DeltaDerivative(2),
    "delta-120": DeltaDerivative(120),
    "gaussian": GaussianPulse(0.0, 1.0, 1.0),
    "gaussian-narrow": GaussianPulse(0.4, 0.6, -1.7),
    "sampled": seeded_wave(),
}


def outcome(evaluate, *args):
    """repr of the value, or the error's type, text, value and estimate."""
    try:
        return repr(evaluate(*args))
    except Exception as exc:
        return (
            type(exc).__name__,
            str(exc),
            repr(getattr(exc, "value", None)),
            repr(getattr(exc, "estimate", None)),
        )


def assert_reflected(sig, z, exact):
    """g(conj z) has the bits of -conj g(z); with exact=False a zero part may have either sign."""
    try:
        value = analytic_signal(sig, z)
    except AccuracyError as exc:
        with pytest.raises(AccuracyError) as mirror:
            analytic_signal(sig, z.conjugate())
        assert repr(mirror.value.estimate) == repr(exc.estimate), z
        return False
    want = -value.conjugate()
    got = analytic_signal(sig, z.conjugate())
    for part, wanted in ((got.real, want.real), (got.imag, want.imag)):
        if exact or wanted != 0.0:
            assert repr(part) == repr(wanted), z
        else:
            assert part == 0.0, z
    return True


@pytest.mark.parametrize("name", REFLECTED_SIGNALS)
def test_analytic_signal_reflects_bit_for_bit(name):
    sig = REFLECTED_SIGNALS[name]
    rng = np.random.default_rng(43)
    # the order-120 power overflows at the last tau on both sides
    taus = [*near_taus(rng, 150), *far_taus(rng, 30), complex(0.05, -0.02)]
    assert sum(assert_reflected(sig, z, exact=True) for z in taus) >= 150


@pytest.mark.parametrize("name", REFLECTED_SIGNALS)
def test_analytic_signal_reflects_on_the_imaginary_axis(name):
    # at z.real = +-0.0 a part of g can be exactly zero (a delta's g is real
    # or imaginary there), and x + (-x) = +0.0 leaves its sign unmirrored;
    # every nonzero part still has the mirrored bits
    sig = REFLECTED_SIGNALS[name]
    for z in [complex(r, s) for r in (0.0, -0.0) for s in (-0.5, 0.5, -1e-3, 1e-3, -3.0)]:
        assert_reflected(sig, z, exact=False)


def two_sided_jump_of_signal(signal, t):
    """jump_of_signal as written before the reflection identity: both sides at every rung."""
    t = float(t)
    eps = DEFAULT_EPS_LADDER
    if not signal.is_continuous_at(t):
        raise NonAnalyticPointError(f"driving signal is not continuous at t = {t:g}")
    samples = [
        analytic_signal(signal, complex(t, -e)) - analytic_signal(signal, complex(t, +e))
        for e in eps
    ]
    limit, est = richardson_limit(eps, samples)
    scale = max(signal.peak_scale(), 1e-30)
    if est + abs(limit.imag) > 1e-6 * abs(limit) + 1e-9 * scale:
        raise AccuracyError(
            "boundary-jump extrapolation did not converge: "
            f"estimate {est:.3e}, residual imaginary part {limit.imag:.3e}",
            value=limit,
            estimate=est + abs(limit.imag),
        )
    return limit.real


# the two-sided limit is real to the bit, so its imaginary part printed as +-0
DEAD_IMAGINARY_TERM = re.compile(r", residual imaginary part -?0\.000e\+00$")


def test_jump_of_signal_is_bitwise_the_two_sided_ladder():
    rng = np.random.default_rng(47)
    kinds = {"value": 0, "ladder": 0, "rung": 0}
    for name, sig in REFLECTED_SIGNALS.items():
        times = [*rng.uniform(-2.0, 6.0, 40).tolist(), 0.0, -0.0, 0.05, 0.2]
        for t in times:
            want = outcome(two_sided_jump_of_signal, sig, t)
            if not isinstance(want, str) and "boundary-jump" in want[1]:
                text, dropped = DEAD_IMAGINARY_TERM.subn("", want[1])
                assert dropped == 1, (name, t, want)
                want = (want[0], text, *want[2:])
            assert outcome(jump_of_signal, sig, t) == want, (name, t)
            if isinstance(want, str):
                kinds["value"] += 1
            else:
                kinds["ladder" if "boundary-jump" in want[1] else "rung"] += 1
    # converged jumps, ladders that miss their target, and rungs or points that raise
    assert min(kinds.values()) > 0, kinds


def test_jump_of_signal_evaluates_one_side_per_rung(monkeypatch):
    taus = []
    evaluate = signals.analytic_signal

    def counting(signal, tau):
        taus.append(tau)
        return evaluate(signal, tau)

    monkeypatch.setattr(signals, "analytic_signal", counting)
    jump_of_signal(GaussianPulse(), 0.5)
    assert taus == [complex(0.5, -e) for e in DEFAULT_EPS_LADDER]


# ---------------------------------------------------------------------------
# only scipy's compiled QUADPACK is loaded, at the first quadrature
# ---------------------------------------------------------------------------

SRC = pathlib.Path(__file__).parent.parent / "src"


def _run_fresh(code: str, *args: str) -> str:
    """Run code in a fresh interpreter that imports pulsebeam from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_grids_without_quadrature_never_import_scipy(tmp_path):
    # a subprocess, because this process has loaded scipy already
    extent = [0.0, 0.0, 1.0, 2.0]
    axis = {"min": 0.5, "max": 2.0, "count": 4}
    configs = {
        "propagator": {"extent": extent, "grid": {"x1": axis, "x3": axis, "t": 1.0}},
        "distance": {"extent": extent, "grid": {"x1": axis, "x3": axis}},
        "wavelet": {
            "extent": extent,
            "signal": {"type": "gaussian", "width": 0.5},
            "grid": {"x1": axis, "x3": axis, "t": 1.0},
        },
    }
    for command, config in configs.items():
        (tmp_path / f"{command}.json").write_text(json.dumps(config))
    code = """
import json, os, sys
import pulsebeam.cli
def run(command):
    path = os.path.join(sys.argv[1], command)
    assert pulsebeam.cli.main([command, "--config", path + ".json", "--out", path + ".csv"]) == 0
    return sorted(name for name in sys.modules if name.startswith("scipy"))
run("propagator")
print(json.dumps([run("distance"), run("wavelet")]))
"""
    before, after = json.loads(_run_fresh(code, str(tmp_path)))
    assert before == []
    assert "scipy.integrate._quadpack" in after
    packages = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg", "scipy.special")
    assert [name for name in packages if name in after] == []
    assert len(after) <= 15, after
    for command in configs:
        assert len((tmp_path / f"{command}.csv").read_text().splitlines()) == 17


SEAM_CASES = {
    "a-rebound-quad-is-called": """
import scipy.integrate
import pulsebeam
from pulsebeam import signals
assert "quad" not in vars(signals)
calls = []
def counting(*args, **kwargs):
    calls.append(args[1:3])
    return scipy.integrate.quad(*args, **kwargs)
signals.quad = counting
pulsebeam.analytic_signal(pulsebeam.GaussianPulse(), complex(0.0, -1.0))
assert len(calls) >= 2, calls
""",
    # test_quad_is_bitwise_scipy_quad checks the bits of what it binds
    "reading-quad-binds-scipy-quad": """
import sys
from pulsebeam import signals
quad = signals.quad
assert "scipy.integrate" not in sys.modules
assert vars(signals)["quad"] is quad
""",
    "other-names-raise": """
import sys
from pulsebeam import signals
try:
    signals.no_such_name
except AttributeError as error:
    assert "pulsebeam.signals" in str(error) and "no_such_name" in str(error), error
else:
    raise AssertionError("no AttributeError")
assert "scipy.integrate" not in sys.modules
""",
}


@pytest.mark.parametrize("code", SEAM_CASES.values(), ids=SEAM_CASES.keys())
def test_signals_quad_is_a_module_attribute_bound_on_first_use(code):
    _run_fresh(code)


def _noting(quad, func, a, b, options):
    """quad(func, a, b, **options) and the nodes it asked for, as int64 views of their bits."""
    nodes = []

    def noted(t):
        nodes.append(t)
        return func(t)

    result = quad(noted, a, b, **options)
    return result, np.array(result[:2]).view(np.int64), np.array(nodes).view(np.int64)


def _quad_cases():
    """(tau, complex integrand, a, b, limit) of Gaussian and spectral quadrature panels."""
    gaussian = GaussianPulse(center=0.4, width=0.7, amplitude=-1.3)
    # far from the real axis, near it, above it, and where QUADPACK misses its target
    for sig, z in (
        (gaussian, complex(-2.5, -6.0)),
        (gaussian, complex(0.9, -1e-3)),
        (gaussian, complex(1.7, 0.02)),
        (GaussianPulse(0.0, 1.0, 1.0), complex(0.7, -1e-7)),
    ):
        lo, hi = sig.effective_support()
        for a, b in ((lo, z.real), (z.real, hi)):
            yield z, (lambda tp, z=z, g0=sig.amplitude_at: g0(tp) / (z - tp)), a, b, 200
    for t, s in ((0.0, 0.5), (3.0, -0.8), (-0.7, 0.05)):
        upper = gaussian.spectral_limit(abs(s))
        yield complex(t, -s), spectral_integrand(gaussian, t, s), 0.0, upper, 800


def test_quad_is_bitwise_scipy_quad():
    from scipy.integrate import quad as scipy_quad

    missed = 0
    for tau, func, a, b, limit in _quad_cases():
        options = {"full_output": 1, "epsabs": 1e-15, "epsrel": 1e-12, "limit": limit}
        for part in (lambda t: func(t).real, lambda t: func(t).imag):
            got, bits, nodes = _noting(signals.quad, part, a, b, options)
            want, want_bits, want_nodes = _noting(scipy_quad, part, a, b, options)
            assert bits.tolist() == want_bits.tolist(), (tau, a, b)
            assert nodes.tolist() == want_nodes.tolist(), (tau, a, b)
            # the subinterval tables past `last` are uninitialised memory
            last = want[2]["last"]
            assert (got[2]["neval"], got[2]["last"]) == (want[2]["neval"], last), tau
            for key in ("alist", "blist", "rlist", "elist", "iord"):
                assert got[2][key][:last].tobytes() == want[2][key][:last].tobytes(), (tau, key)
            # QUADPACK's ier closes the tuple; scipy swaps a nonzero one for its message
            assert (got[-1] != 0) == (len(want) == 4), (tau, a, b)
            missed += got[-1] != 0
    assert missed > 0


def test_an_empty_quadrature_panel_is_zero_without_quadrature(monkeypatch):
    # a width below the float spacing at the centre leaves the support one point
    # wide; QUADPACK would sample it and, at this amplitude, return nan
    def unexpected(*args, **kwargs):
        raise AssertionError("quad called on an empty panel")

    monkeypatch.setattr(signals, "quad", unexpected)
    sig = GaussianPulse(center=1.0, width=1e-20, amplitude=1e308)
    assert sig.effective_support() == (1.0, 1.0)
    for tau in (complex(1.0, -1e-10), complex(1.0, 1e-10), complex(1.0, -1.0)):
        value = analytic_signal(sig, tau)
        assert (value.real, value.imag) == (0.0, 0.0) and repr(value) == "0j"


def test_a_missing_quadpack_raises_one_import_error(monkeypatch, tmp_path):
    import importlib.machinery
    import importlib.util

    # no copy loaded, so the loader has to find one
    monkeypatch.delitem(sys.modules, "scipy.integrate._quadpack", raising=False)
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match="scipy is not installed"):
        signals._quadpack()
    # a scipy whose integrate directory has no extension
    empty = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    empty.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: empty)
    with pytest.raises(ImportError, match=r"needs scipy\.integrate\._quadpack, which is not in"):
        signals._quadpack()
    assert "scipy.integrate._quadpack" not in sys.modules


def test_quadrature_that_misses_its_target_warns_nothing():
    # QUADPACK's non-convergence message must not escape as an
    # IntegrationWarning; the accuracy check reports it instead
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AccuracyError, match=r"did not converge .* estimate 1\.413e-0"):
            analytic_signal(GaussianPulse(0.0, 1.0, 1.0), complex(0.7, -1e-7))


# ---------------------------------------------------------------------------
# _quad_complex evaluates the complex integrand once per node
# ---------------------------------------------------------------------------


def two_passes(func, lo, hi, limit):
    """The form before the node store: two independent quad passes, each calling func."""
    from scipy.integrate import quad

    options = {"full_output": 1, "epsabs": 1e-15, "epsrel": 1e-12, "limit": limit}
    re, re_err = quad(lambda u: func(u).real, lo, hi, **options)[:2]
    im, im_err = quad(lambda u: func(u).imag, lo, hi, **options)[:2]
    return complex(re, im), re_err + im_err


@pytest.fixture
def quad_calls(monkeypatch):
    """Every _quad_complex call of the test, as (storing, lo, hi, limit, (value, estimate))."""
    calls = []
    quad_complex = signals._quad_complex

    def recording(storing, lo, hi, limit=200):
        result = quad_complex(storing, lo, hi, limit)
        calls.append((storing, lo, hi, limit, result))
        return result

    monkeypatch.setattr(signals, "_quad_complex", recording)
    return calls


def quiet(evaluate, *args):
    """Run an evaluation whose quadratures are under test; a missed target is fine."""
    try:
        evaluate(*args)
    except AccuracyError:
        pass


def assert_two_pass_bits(calls, func):
    """Each recorded value and estimate, as repr, is the two-pass form's over its panel."""
    assert calls
    for _, lo, hi, limit, (value, estimate) in calls:
        want, want_estimate = two_passes(func, lo, hi, limit)
        got = (repr(value.real), repr(value.imag), repr(estimate))
        assert got == (repr(want.real), repr(want.imag), repr(want_estimate)), (lo, hi)
    calls.clear()


def test_gaussian_quadrature_is_bitwise_the_two_pass_form(quad_calls):
    sig = GaussianPulse(center=0.4, width=0.7, amplitude=-1.3)
    rng = np.random.default_rng(29)
    t = rng.uniform(-4.0, 4.0, 300)
    s = 10.0 ** rng.uniform(-3.0, 1.0, 300) * np.where(np.arange(300) % 2, 1.0, -1.0)
    # the last tau misses the target (test_quadrature_that_misses_its_target_warns_nothing)
    taus = [*map(complex, t.tolist(), (-s).tolist()), complex(0.7, -1e-7)]
    for z in taus:
        quiet(sig.analytic, z)
        assert_two_pass_bits(quad_calls, lambda tp: sig.amplitude_at(tp) / (z - tp))


def spectral_integrand(signal, t, s):
    """spectral_signal's complex integrand, written as it was before the node store."""
    if s > 0.0:
        return lambda w: cmath.exp(complex(-w * s, -w * t)) * fourier_transform(signal, w)
    return lambda w: cmath.exp(complex(w * s, w * t)) * fourier_transform(signal, -w)


SPECTRAL_SIGNALS = {
    "delta": DeltaDerivative(1),
    "gaussian": GaussianPulse(center=0.4, width=0.7, amplitude=-1.3),
    "sampled": seeded_wave(count=9),
}


@pytest.mark.parametrize("name", SPECTRAL_SIGNALS)
def test_spectral_quadrature_is_bitwise_the_two_pass_form(quad_calls, name):
    sig = SPECTRAL_SIGNALS[name]
    for t, s in ((0.0, 0.5), (-0.0, -0.5), (1.5, 1.0), (3.0, -0.8), (-0.7, 0.05), (2.2, -3.0)):
        quiet(spectral_signal, sig, t, s)
        assert_two_pass_bits(quad_calls, spectral_integrand(sig, t, s))


def test_sampled_oracle_quadrature_is_bitwise_the_two_pass_form(quad_calls):
    sig = seeded_wave()
    for z in [*oracle_taus("near")[:20], *oracle_taus("far")[:5], complex(50.0, 0.0)]:
        _cauchy_quadrature(sig, z, sig.amplitude_at)
        assert_two_pass_bits(quad_calls, lambda tp: sig.amplitude_at(tp) / (z - tp))


def test_gaussian_evaluates_its_integrand_once_per_node(monkeypatch):
    # GaussianPulse.analytic reads math.exp once per density evaluation
    exponents = []

    def counting_exp(x):
        exponents.append(x)
        return math.exp(x)

    namespace = types.SimpleNamespace(**{name: getattr(math, name) for name in dir(math)})
    namespace.exp = counting_exp
    monkeypatch.setattr(signals, "math", namespace)
    passes = []
    quad = signals.quad

    def noting(func, *args, **kwargs):
        nodes = []
        passes.append(nodes)

        def node(t):
            nodes.append(t)
            return func(t)

        return quad(node, *args, **kwargs)

    monkeypatch.setattr(signals, "quad", noting)
    sig = GaussianPulse(center=0.4, width=0.7, amplitude=-1.3)
    rng = np.random.default_rng(31)
    t = rng.uniform(-4.0, 4.0, 60)
    s = 10.0 ** rng.uniform(-3.0, 1.0, 60) * np.where(np.arange(60) % 2, 1.0, -1.0)
    for z in map(complex, t.tolist(), (-s).tolist()):
        quiet(sig.analytic, z)
    assert passes and len(passes) % 2 == 0
    want = 0
    for real_nodes, imag_nodes in zip(passes[0::2], passes[1::2]):
        visited = set(real_nodes)
        assert len(visited) == len(real_nodes)
        want += len(visited) + len(set(imag_nodes) - visited)
    assert len(exponents) == want
    assert want < 0.6 * sum(map(len, passes))


def test_the_node_store_is_freed_when_quad_complex_returns():
    # the store and its real pass refer to each other; a cycle left behind
    # would keep every store until the cycle collector runs
    stores = []

    def storing(imag):
        stores.append(imag)
        return signals._storing(lambda t: complex(math.cos(t), t) / (2.0 - t))(imag)

    signals._quad_complex(storing, 0.0, 1.0)
    store = stores.pop()
    references = sys.getrefcount(store)  # counts the argument's reference too
    assert len(store) > 0
    assert references == 2


def test_every_integrand_gives_the_same_bits_at_both_zeros(quad_calls):
    # the node store is keyed by the float node, so -0.0 and 0.0 share an entry
    sampled = SampledSignal((-1.0, 0.0, 0.5, 1.0), (0.0, 0.7, -0.3, 0.0))
    for s in (0.5, -0.5):
        quiet(analytic_signal, GaussianPulse(0.0, 1.0, 1.0), complex(-0.0, -s))
        quiet(_cauchy_quadrature, sampled, complex(-0.0, -s), sampled.amplitude_at)
        for sig in (DeltaDerivative(0), DeltaDerivative(1), GaussianPulse(0.0, 0.6, -2.0), sampled):
            for t in (0.0, -0.0):
                quiet(spectral_signal, sig, t, s)
    assert len(quad_calls) == 2 * (2 + 3 + 4 * 2)
    for storing, *_ in quad_calls:
        bits = []
        for node in (0.0, -0.0):
            imag = {}
            real = storing(imag)(node)
            bits.append((real.hex(), imag[node].hex()))
        assert bits[0] == bits[1]
