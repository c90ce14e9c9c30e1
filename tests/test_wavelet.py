import math

import numpy as np
import pytest
from scipy.integrate import quad

from pulsebeam import (
    AccuracyError,
    CausalityError,
    ConeVector,
    DeltaDerivative,
    DomainError,
    GaussianPulse,
    NonAnalyticPointError,
    RealEvent,
    SampledSignal,
    SingularityProximityError,
    StencilPlacementError,
    ValidationError,
    boundary_jump,
    extended_propagator,
    wave_residual,
    wavelet,
    wavelet_eval,
)
from pulsebeam.signals import DEFAULT_EPS_LADDER, richardson_limit

FOUR_PI = 4.0 * math.pi


def test_impulse_wavelet_reduces_to_propagator():
    rng = np.random.default_rng(5)
    signal = DeltaDerivative(0)
    y = ConeVector((0.2, 0.1, 0.9), 1.5)
    for _ in range(200):
        x = RealEvent(tuple(rng.uniform(-4, 4, size=3)), float(rng.uniform(-5, 8)))
        if x.radius < 0.1:
            continue
        w = wavelet_eval(signal, x, y)
        p = extended_propagator(x.space, y.space, x.time, y.time)
        assert abs(w - p) <= 1e-14 * abs(p)


def test_gaussian_wavelet_composed_oracle():
    # on-axis: radial root is exactly 5 - i and tau - rt = -i, so the value
    # is g(-i)/(4 pi (5-i)); g(-i) = 0.2615782918651234 (Faddeeva oracle)
    signal = GaussianPulse(0.0, 1.0, 1.0)
    value = wavelet_eval(signal, RealEvent((0, 0, 5), 5.0), ConeVector((0, 0, 1), 2.0))
    g_at_minus_i = 0.2615782918651234
    expected = g_at_minus_i / (FOUR_PI * complex(5, -1))
    assert value == pytest.approx(expected, rel=1e-11)
    assert value == pytest.approx(
        complex(4.0030267457566255e-3, 8.006053491513252e-4), rel=1e-11
    )


def test_wavelet_envelope_in_the_early_tail():
    # well before arrival the wavelet is the analytic-signal envelope over
    # 4 pi |rt|, and it decays like the signal tail
    signal = GaussianPulse(0.0, 1.0, 1.0)
    y = ConeVector((0, 0, 1), 2.0)
    mags = []
    for t in (1.0, 0.0, -1.0, -2.0, -3.0):
        event = RealEvent((0, 0, 5), t)
        value = wavelet_eval(signal, event, y)
        mags.append(abs(value))
    assert all(a > b for a, b in zip(mags, mags[1:]))


def test_wavelet_requires_interior_extent():
    with pytest.raises(CausalityError):
        wavelet_eval(DeltaDerivative(0), RealEvent((0, 0, 3), 3.0), ConeVector.null())


def test_wavelet_guards_branch_circle():
    with pytest.raises(SingularityProximityError):
        wavelet_eval(DeltaDerivative(0), RealEvent((1, 0, 0), 1.0), ConeVector((0, 0, 1), 2.0))


def test_wavelet_with_temporal_extension_only():
    # zero spatial extension: plain distance, complex time
    signal = DeltaDerivative(0)
    value = wavelet_eval(signal, RealEvent((0, 0, 2), 2.0), ConeVector((0, 0, 0), 0.7))
    expected = 1.0 / (2j * math.pi * complex(0.0, -0.7)) / (FOUR_PI * 2.0)
    assert value == pytest.approx(expected, rel=1e-14)
    with pytest.raises(SingularityProximityError):
        wavelet_eval(signal, RealEvent((0, 0, 0), 1.0), ConeVector((0, 0, 0), 0.7))


def test_temporal_extension_guard_radius_acts_around_the_origin():
    from pulsebeam.wavelet import _radial_distance

    zero = (0.0, 0.0, 0.0)
    assert _radial_distance((0.5, 0.0, 0.0), zero, 0.6).near_circle
    assert not _radial_distance((1.0, 0.0, 0.0), zero, 0.6).near_circle
    # the origin is singular whatever the guard, and the default guard is 0
    assert _radial_distance(zero, zero, 0.0).near_circle
    assert not _radial_distance((1e-300, 0.0, 0.0), zero).near_circle
    with pytest.raises(ValidationError):
        _radial_distance((1.0, 0.0, 0.0), zero, -1.0)


def test_wavelet_linear_in_the_signal():
    # scalar homogeneity through the amplitude, and additivity against a
    # direct quadrature oracle of the summed integrand
    y = ConeVector((0, 0, 0.8), 1.4)
    event = RealEvent((1.0, 0.5, 2.0), 2.2)
    g1 = GaussianPulse(0.0, 1.0, 1.0)
    g2 = GaussianPulse(0.7, 0.5, -0.6)
    w1 = wavelet_eval(g1, event, y)
    w2 = wavelet_eval(g2, event, y)
    assert wavelet_eval(GaussianPulse(0.0, 1.0, 2.5), event, y) == pytest.approx(
        2.5 * w1, rel=1e-12
    )

    from pulsebeam import complex_distance

    rt = complex_distance(event.space, y.space).value
    z = complex(event.time, -y.time) - rt

    def summed(tp):
        g0 = math.exp(-0.5 * tp * tp) - 0.6 * math.exp(-0.5 * ((tp - 0.7) / 0.5) ** 2)
        return g0 / (z - tp)

    re = quad(lambda u: summed(u).real, -10, 10, epsabs=1e-14, epsrel=1e-13, limit=300)[0]
    im = quad(lambda u: summed(u).imag, -10, 10, epsabs=1e-14, epsrel=1e-13, limit=300)[0]
    oracle = complex(re, im) / (2j * math.pi) / (FOUR_PI * rt)
    assert w1 + w2 == pytest.approx(oracle, rel=1e-12)


# ---------------------------------------------------------------------------
# boundary jump
# ---------------------------------------------------------------------------


def test_boundary_jump_matches_point_source_field():
    # oracle: Richardson extrapolation over the geometric ladder against
    # g0(t - r)/(4 pi r) = exp(-1/8)/(8 pi) for r=2, t=2.5
    signal = GaussianPulse(0.0, 1.0, 1.0)
    x = RealEvent((0, 0, 2), 2.5)
    y = ConeVector((0, 0, 0.5), 1.0)
    jump = boundary_jump(signal, x, y)
    assert jump.real == pytest.approx(math.exp(-0.125) / (8 * math.pi), rel=1e-9)
    assert abs(jump.imag) <= 1e-8


def test_boundary_jump_is_real_for_real_signals():
    signal = GaussianPulse(0.3, 0.8, 2.0)
    for r, t in ((1.5, 1.2), (3.0, 3.4), (2.0, 2.0)):
        jump = boundary_jump(signal, RealEvent((0.6 * r, 0, 0.8 * r), t), ConeVector((0, 0, 0.5), 1.0))
        assert abs(jump.imag) <= 1e-8 * max(abs(jump.real), 1.0)


def test_boundary_jump_vanishes_outside_the_pulse():
    signal = GaussianPulse(0.0, 0.3, 1.0)
    jump = boundary_jump(signal, RealEvent((0, 0, 2), 30.0), ConeVector((0, 0, 0.5), 1.0))
    assert abs(jump) < 1e-10


def test_boundary_jump_validation():
    signal = GaussianPulse()
    with pytest.raises(DomainError):
        boundary_jump(signal, RealEvent((0, 0, 0), 1.0), ConeVector((0, 0, 0.5), 1.0))
    with pytest.raises(DomainError):
        # ladder epsilon times extension radius must stay below |x|
        boundary_jump(
            signal, RealEvent((0, 0, 0.04), 1.0), ConeVector((0, 0, 0.5), 1.0)
        )
    with pytest.raises(CausalityError):
        boundary_jump(signal, RealEvent((0, 0, 2), 1.0), ConeVector.null())
    # a sampled signal that starts at a nonzero value jumps at its first sample
    starts_at_one = SampledSignal((0.0, 1.0, 2.0), (1.0, 0.5, 0.0))
    with pytest.raises(NonAnalyticPointError):
        boundary_jump(starts_at_one, RealEvent((0, 0, 2), 2.0), ConeVector((0, 0, 0.5), 1.0))


# ---------------------------------------------------------------------------
# one side per rung: the reflection identity against the two-sided ladder
# ---------------------------------------------------------------------------


def two_sided_ladder(signal, x, y):
    """boundary_jump's ladder as written before the reflection identity.

    Both sides at every rung, W(+eps y) - W(-eps y); the links below pass
    boundary_jump's checks, which did not change.
    """
    eps = DEFAULT_EPS_LADDER

    def scaled(e):
        dist = wavelet._radial_distance(x.space, tuple(e * v for v in y.space))
        return wavelet._field(signal, dist, x.time, e * y.time)

    samples = [scaled(e) - scaled(-e) for e in eps]
    limit, est = richardson_limit(eps, samples)
    scale = max(signal.peak_scale() / (FOUR_PI * x.radius), 1e-30)
    if est > 1e-6 * abs(limit) + 1e-9 * scale:
        raise AccuracyError(
            f"boundary-jump extrapolation did not converge: estimate {est:.3e}",
            value=limit,
            estimate=est,
        )
    return limit


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


def bump(count=41, seed=3):
    """A jittered sampled bump on [0, 4], zero at both ends."""
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, 4.0, count)
    values = np.sin(np.pi * times / 4.0) ** 2 * rng.uniform(0.7, 1.3, count)
    values[0] = values[-1] = 0.0
    return SampledSignal(tuple(map(float, times)), tuple(map(float, values)))


JUMP_SIGNALS = {
    "delta-0": DeltaDerivative(0),
    "delta-1": DeltaDerivative(1),
    "delta-2": DeltaDerivative(2),
    "delta-120": DeltaDerivative(120),
    "gaussian": GaussianPulse(0.0, 1.0, 1.0),
    "gaussian-narrow": GaussianPulse(0.4, 0.6, -1.7),
    "sampled": bump(),
}


def seeded_links(rng, count):
    """Events at r in [0.5, 4] retarded by -0.5 to 4.5, extensions of radius up to 1.2."""
    links = []
    for _ in range(count):
        u, v = rng.standard_normal((2, 3))
        r, a = rng.uniform(0.5, 4.0), rng.uniform(0.0, 1.2)
        x = RealEvent(tuple((r * u / np.linalg.norm(u)).tolist()), float(r + rng.uniform(-0.5, 4.5)))
        y = ConeVector(tuple((a * v / np.linalg.norm(v)).tolist()), float(a + rng.uniform(0.05, 1.5)))
        links.append((x, y))
    return links


def imaginary_at_rung(space, y, rung):
    """The link whose tau - rt is pure imaginary at one rung (rt is real there: x . y = 0)."""
    e = DEFAULT_EPS_LADDER[rung]
    return RealEvent(space, wavelet._radial_distance(space, tuple(e * v for v in y.space)).p), y


# x . y = +-0.0, so complex_distance sees x3 = +-0.0 at both signs of eps;
# the fourth and fifth make x3 = +0.0 on both sides, by cancellation.  A
# pure imaginary tau - rt gives an odd delta order a zero real part whose
# sign the two paths set differently; the limit does not see it.
SIGNED_ZERO_LINKS = [
    (RealEvent((1.0, 0.5, 0.0), 1.4), ConeVector((0.0, 0.0, 0.5), 1.0)),
    (RealEvent((1.0, 0.5, -0.0), 1.4), ConeVector((0.0, 0.0, 0.5), 1.0)),
    (RealEvent((-0.0, 2.0, 0.0), 2.3), ConeVector((0.0, 0.0, 0.8), 1.1)),
    (RealEvent((1.0, -1.0, 0.3), 1.9), ConeVector((0.5, 0.5, 0.0), 0.9)),
    (RealEvent((-1.0, 1.0, -0.3), 1.2), ConeVector((0.5, 0.5, 0.0), 0.9)),
    imaginary_at_rung((1.2, -1.6, 0.0), ConeVector((0.0, 0.0, 0.5), 1.0), 0),
    imaginary_at_rung((1.2, -1.6, -0.0), ConeVector((0.0, 0.0, -0.5), 0.8), 3),
    # a temporal extension with t = r: pure imaginary at every rung
    (RealEvent((0.0, 0.0, 2.0), 2.0), ConeVector((0.0, 0.0, 0.0), 0.7)),
]


def test_boundary_jump_is_bitwise_the_two_sided_ladder():
    rng = np.random.default_rng(41)
    kinds = {"value": 0, "ladder": 0, "rung": 0}
    for name, signal in JUMP_SIGNALS.items():
        for index, (x, y) in enumerate([*seeded_links(rng, 60), *SIGNED_ZERO_LINKS]):
            if not signal.is_continuous_at(x.time - x.radius):
                continue
            want = outcome(two_sided_ladder, signal, x, y)
            assert outcome(boundary_jump, signal, x, y) == want, (name, index)
            if isinstance(want, str):
                kinds["value"] += 1
            else:
                kinds["ladder" if "boundary-jump" in want[1] else "rung"] += 1
    # converged jumps, ladders that miss their target, and rungs that raise
    assert min(kinds.values()) > 0, kinds


def test_boundary_jump_evaluates_one_side_per_rung(monkeypatch):
    signals_seen, distances = [], []
    analytic_signal, radial_distance = wavelet.analytic_signal, wavelet._radial_distance

    def counting_signal(signal, tau):
        signals_seen.append(tau)
        return analytic_signal(signal, tau)

    def counting_distance(*args):
        distances.append(args)
        return radial_distance(*args)

    monkeypatch.setattr(wavelet, "analytic_signal", counting_signal)
    monkeypatch.setattr(wavelet, "_radial_distance", counting_distance)
    boundary_jump(GaussianPulse(0.0, 1.0, 1.0), RealEvent((0, 0, 2), 2.5), ConeVector((0, 0, 0.5), 1.0))
    assert len(signals_seen) == len(DEFAULT_EPS_LADDER)
    assert len(distances) == len(DEFAULT_EPS_LADDER)
    # the lower side: tau - rt below the real axis
    assert all(tau.imag < 0.0 for tau in signals_seen)


# ---------------------------------------------------------------------------
# wave-equation residual
# ---------------------------------------------------------------------------


def test_wave_residual_second_order_with_impulse():
    signal = DeltaDerivative(0)
    x = RealEvent((0, 0, 3), 2.0)
    y = ConeVector((0, 0, 1), 2.0)
    scale = abs(wavelet_eval(signal, x, y))
    res = {h: abs(wave_residual(signal, x, y, h)) for h in (1e-2, 5e-3, 2.5e-3)}
    assert res[1e-2] / scale <= 1e-3
    assert res[1e-2] / res[5e-3] == pytest.approx(4.0, rel=0.15)
    assert res[5e-3] / res[2.5e-3] == pytest.approx(4.0, rel=0.15)


def test_wave_residual_small_behind_the_cut():
    signal = DeltaDerivative(0)
    x = RealEvent((0.4, 0.2, -2.5), 2.0)  # negative axis component
    y = ConeVector((0, 0, 1), 2.0)
    scale = abs(wavelet_eval(signal, x, y))
    res1 = abs(wave_residual(signal, x, y, 1e-2))
    res2 = abs(wave_residual(signal, x, y, 5e-3))
    assert res1 / scale <= 1e-3
    assert res1 / res2 == pytest.approx(4.0, rel=0.2)


def test_wave_residual_guard_rejects_cut_crossing():
    signal = DeltaDerivative(0)
    y = ConeVector((0, 0, 1), 2.0)
    with pytest.raises(StencilPlacementError):
        wave_residual(signal, RealEvent((0.3, 0, 0.004), 1.0), y, 1e-2)
    with pytest.raises(DomainError):
        wave_residual(signal, RealEvent((0, 0, 3), 1.0), y, 0.0)


@pytest.mark.parametrize(
    "center", [(0.3, 0.0, 0.01), (1.0, 0.0, 0.0)], ids=["point-on-cut", "point-on-circle"]
)
def test_wave_residual_guard_rejects_a_point_before_a_crossing(center):
    # the z arm of the first stencil ends on the cut disk, the second is
    # centred on the branch circle
    y = ConeVector((0, 0, 1), 2.0)
    with pytest.raises(StencilPlacementError, match="touches the branch cut or circle"):
        wave_residual(DeltaDerivative(0), RealEvent(center, 1.0), y, 1e-2)


def test_wave_residual_with_a_temporal_extension():
    # only the spatial origin is singular when the extension has no space part
    signal = DeltaDerivative(0)
    y = ConeVector((0, 0, 0), 2.0)
    x = RealEvent((0.4, 0.2, 3.0), 2.5)
    residual = abs(wave_residual(signal, x, y, 1e-2))
    assert residual / abs(wavelet_eval(signal, x, y)) <= 1e-3
    with pytest.raises(StencilPlacementError, match="spatial origin"):
        wave_residual(signal, RealEvent((0.01, 0, 0), 1.0), y, 1e-2)


def test_wave_residual_spikes_only_near_the_cut():
    # on a line piercing the cut disk, the unguarded residual is large only
    # within a stencil width of the crossing
    signal = GaussianPulse(0.0, 1.0, 1.0)
    y = ConeVector((0, 0, 1), 2.0)
    h = 5e-3
    near, far = [], []
    for x3 in np.linspace(-0.05, 0.05, 21):
        event = RealEvent((0.5, 0.0, float(x3)), 1.2)
        value = abs(wave_residual(signal, event, y, h, guard=False))
        if abs(x3) <= h:
            near.append(value)
        elif abs(x3) >= 3 * h:
            far.append(value)
    assert max(near) > 100 * max(far)
