"""Acceptance suite: one test per criterion, each printing its pass/fail line.

The checks themselves live in pulsebeam.verification so that the CLI
`verify` subcommand and this module exercise the exact same code.
"""

import math
import tracemalloc

import numpy as np
import pytest

from pulsebeam import channel, spacetime, verification
from pulsebeam.channel import Channel, channel_amplitude, channel_metrics, channel_translate
from pulsebeam.errors import CausalityError, ConeViolationError
from pulsebeam.geometry import complex_distance
from pulsebeam.propagator import extended_propagator
from pulsebeam.signals import DeltaDerivative
from pulsebeam.spacetime import ConeStatus, ConeVector, RealEvent, cone_status
from pulsebeam.verification import ACCEPTANCE_CHECKS, _link_durations, _translation_trials

# Detail strings of the seeded sampling checks at their stated seeds, and of
# check 5's boundary jumps.  A change to a seed, a sample count, a
# distribution, the order of the draws or the jump's ladder changes them.
PINNED_DETAILS = {
    "1": "max rel residual: squares 4.37e-16, product 6.30e-16 over 100000 samples",
    "2": "bound slack min 0 (worst normalized excess p -5.3e-08, q -1.4e-05); "
    "on-axis equality residual 6.41e-16; oblique strictness ok",
    "3": "max surface-identity residual 7.99e-14 over 10000 regular points",
    "4": "min convergence order 1.999 (need >= 1.8), max |residual|/|W| at h=1e-2: 4.80e-04",
    "5": "max rel error 8.19e-13 on 5x5 grid, max |imag| 0.00e+00, "
    "pinned exp(-1/8)/(8 pi) case rel 7.71e-15",
    "6": "max rel amplitude change 1.29e-15 over 1000 moves; endpoint trio 0.00e+00",
    "7": "min normalized slack 1.07e-04 over 10000 links; bandwidth chain ok; "
    "parallel equality residual 2.71e-16",
}


@pytest.mark.parametrize(
    "ident,name,func", ACCEPTANCE_CHECKS, ids=[f"{i}-{n}" for i, n, _ in ACCEPTANCE_CHECKS]
)
def test_acceptance_criterion(ident, name, func):
    passed, detail = func()
    print(f"[{ident:>2}] {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {ident} ({name}) failed: {detail}"
    if ident in PINNED_DETAILS:
        assert detail == PINNED_DETAILS[ident], "the check's draws or counts changed"


@pytest.mark.parametrize(
    "check", [verification.check_distance_identities, verification.check_distance_bounds]
)
def test_distance_checks_draw_and_evaluate_a_slice_at_a_time(check):
    # numpy.random is imported on first use; that import is not the check's memory
    np.random.default_rng(0)
    tracemalloc.start()
    try:
        passed, _ = check()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 100,000 offsets drawn whole would take 5.6 MB
    assert passed and peak < 2 * 2**20


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def test_check_7_flat_durations_match_channel_metrics(monkeypatch):
    """Oracle: every link check 7 draws, built and measured as a `Channel`."""
    origin, apart = RealEvent((0.0, 0.0, 0.0), 0.0), RealEvent((5.0, 0.0, 0.0), 5.0)
    calls = []

    def recording(*rows):
        durations = _link_durations(*rows)
        calls.append((rows, durations))
        return durations

    monkeypatch.setattr(verification, "_link_durations", recording)
    passed, detail = verification.check_duration_triangle()
    assert passed and detail == PINNED_DETAILS["7"]
    # the 10,000 triangle links in slices, then the 1,000 parallel links
    assert sum(len(rows[1]) for rows, _ in calls) == 11_000 and len(calls[-1][0][1]) == 1_000
    for rows, flat in calls:
        links = [
            Channel(origin, ConeVector(e_space, e_lag), apart, ConeVector(r_space, r_lag))
            for e_space, e_lag, r_space, r_lag in zip(*(part.tolist() for part in rows))
        ]
        metrics = [channel_metrics(ch) for ch in links]
        want = (
            [m.emit_duration for m in metrics],
            [m.receive_duration for m in metrics],
            [m.duration for m in metrics],
            [ch.combined_extent.time for ch in links],
        )
        assert np.array_equal(_bits(flat), _bits(want))


def _refuse_link_objects(monkeypatch):
    """Make every link type and link function raise, where it lives and in verification."""

    def refuse(*args, **kwargs):
        raise AssertionError("the check built a link object")

    for module, name in (
        (channel, "Channel"),
        (channel, "channel_translate"),
        (channel, "channel_amplitude"),
        (channel, "channel_metrics"),
        (spacetime, "ConeVector"),
        (spacetime, "RealEvent"),
    ):
        monkeypatch.setattr(module, name, refuse)
        # and the name in verification: ConeVector and RealEvent are there for
        # checks 4 and 5, and a new import of any other would be caught
        monkeypatch.setattr(verification, name, refuse, raising=False)


def test_check_7_builds_no_link_objects(monkeypatch):
    _refuse_link_objects(monkeypatch)
    passed, detail = verification.check_duration_triangle()
    assert passed and detail == PINNED_DETAILS["7"]


def test_check_6_flat_amplitudes_match_the_link_objects():
    """Oracle: check 6's 1,000 links built, moved and evaluated as objects.

    The flat route evaluates the extended propagator, bit for bit that of
    the objects, and within the check's 1e-14 of the delta-impulse wavelet
    that `channel_amplitude` gives, which equals it in exact arithmetic.
    """
    signal = DeltaDerivative(0)
    zero = (0.0, 0.0, 0.0, 0.0)
    links, (re, im, _), refused = _translation_trials(np.random.default_rng(20260806), 1_000)
    assert not refused.any()
    want, wavelet, moves, redraws = [], [], 0, []
    for e, r, c_e, c_r, xi, eta in zip(*(part.tolist() for part in links)):
        ch = _link(e, r, c_e, c_r)
        moved = channel_translate(ch, xi, eta)
        # a move keeps both extents interior; a link with no admissible trial stays put
        for extent in (moved.emitter_extent, moved.receiver_extent):
            assert cone_status(extent.space, extent.time) is ConeStatus.INTERIOR
        moves += any(eta)
        variants = (
            ch,
            moved,
            channel_translate(ch, zero, r),
            channel_translate(ch, zero, tuple(-v for v in e)),
        )
        want.append(
            [
                extended_propagator(
                    each.separation.space,
                    each.combined_extent.space,
                    each.separation.time,
                    each.combined_extent.time,
                )
                for each in variants
            ]
        )
        wavelet.append([channel_amplitude(each, signal) for each in variants])
        # a link near the branch circle, on the cut, or below 0.3 in
        # magnitude would need a redraw
        dist = complex_distance(ch.separation.space, ch.combined_extent.space)
        if dist.near_circle or dist.on_cut or dist.magnitude < 0.3:
            redraws.append(dist)

    want, wavelet = np.asarray(want).T, np.asarray(wavelet).T
    assert np.array_equal(_bits([re, im]), _bits([want.real, want.imag]))
    assert (np.abs(wavelet - want) / np.abs(wavelet)).max() <= 1e-14
    # every link of the stated seed finds an admissible trial
    assert moves == 1_000
    # some moves change the amplitude's last bits, so the moved links are compared
    assert (want[0] != want[1]).any()
    # check 6 draws without a redraw; draw ranges that reach the branch
    # circle would need it back
    assert redraws == []


def test_check_6_makes_one_call_to_each_block_kernel(monkeypatch):
    calls = []
    for name in ("_distance_block", "_impulse_field_block"):
        kernel = getattr(verification, name)

        def counting(*args, kernel=kernel, name=name):
            calls.append((name, len(args[0])))
            return kernel(*args)

        monkeypatch.setattr(verification, name, counting)
    passed, detail = verification.check_translation_invariance()
    assert passed and detail == PINNED_DETAILS["6"]
    assert calls == [("_distance_block", 4_000), ("_impulse_field_block", 4_000)]


def test_check_6_fails_and_counts_a_refused_link(monkeypatch):
    kernel = verification._impulse_field_block

    def flagging(*args):
        re, im, magnitude, bad = kernel(*args)
        # link 7's reference and its move, as the kernel leaves a row it flags
        re[[7, 1_007]] = math.nan
        bad[[7, 1_007]] = True
        return re, im, magnitude, bad

    monkeypatch.setattr(verification, "_impulse_field_block", flagging)
    passed, detail = verification.check_translation_invariance()
    assert not passed
    assert detail.endswith("over 999 moves; endpoint trio 0.00e+00; 1 of 1000 links refused")


def _link(e, r, c_e, c_r):
    return Channel(
        RealEvent(c_e[:3], c_e[3]),
        ConeVector(e[:3], e[3]),
        RealEvent(c_r[:3], c_r[3]),
        ConeVector(r[:3], r[3]),
    )


def test_check_6_translation_keeps_signed_zeros():
    # extents with zeros of both signs, moved as check 6 moves them:
    # x + 0.0 turns -0.0 into +0.0, so each move by zero still counts
    emitter, receiver = (-0.0, 0.0, 0.5, 1.0), (0.0, -0.0, 0.5, 1.0)
    ch = _link(emitter, receiver, (0.0, -0.0, 0.0, -0.0), (-0.0, 0.0, 4.0, 4.0))
    zero = (0.0, 0.0, 0.0, 0.0)
    for xi, eta in (
        (zero, zero),
        (zero, receiver),
        (zero, tuple(-v for v in emitter)),
        ((-0.0, 0.0, -0.0, 0.0), (-0.0, -0.0, 0.0, 0.1)),
    ):
        moved = channel_translate(ch, xi, eta)
        e, r = channel._moved(emitter, receiver, eta)
        want = [
            (*moved.emitter_extent.space, moved.emitter_extent.time),
            (*moved.receiver_extent.space, moved.receiver_extent.time),
            (*moved.combined_extent.space, moved.combined_extent.time),
        ]
        assert np.array_equal(_bits([e, r, channel._summed(e, r)]), _bits(want))


def test_check_6_flat_route_refuses_what_the_objects_refuse():
    emitter, receiver = (0.0, 0.0, 0.5, 1.0), (0.0, 0.5, 0.0, 1.0)
    centers = (0.0, 0.0, 0.0, 0.0), (4.0, 0.0, 0.0, 4.0)
    zero = (0.0, 0.0, 0.0, 0.0)
    # the last move overflows the emitter's lag (time = inf) and leaves the
    # receiver's lag below its radius: both routes name the emitter
    far = (0.0, 0.0, 0.5, 1e308)
    for e, r, eta in (
        (emitter, receiver, (0.0, 0.0, 0.0, 0.6)),
        (emitter, receiver, (0.0, 0.0, 0.0, -0.6)),
        (emitter, receiver, (0.0, 0.0, 1.0, 0.0)),
        (far, (0.0, 0.0, 0.5, 1.0), (0.0, 0.0, 0.0, 8e307)),
    ):
        with pytest.raises(ConeViolationError) as want:
            channel_translate(_link(e, r, *centers), zero, eta)
        with pytest.raises(ConeViolationError) as got:
            channel._moved(e, r, eta)
        assert str(got.value) == str(want.value)
    assert "emitter" in str(want.value) and "time=inf" in str(want.value)
    # two point endpoints, and two interior extents whose rounded sum is lightlike
    small = (0.0, 0.0, 0.125, math.nextafter(0.125, 1.0))
    large = (0.0, 0.0, 3.9583333333333335, math.nextafter(3.9583333333333335, 5.0))
    for e, r in ((zero, zero), (small, large)):
        with pytest.raises(CausalityError) as want:
            _link(e, r, *centers)
        with pytest.raises(CausalityError) as got:
            channel._summed(e, r)
        assert str(got.value) == str(want.value)


def test_check_6_builds_no_link_objects(monkeypatch):
    _refuse_link_objects(monkeypatch)
    passed, detail = verification.check_translation_invariance()
    assert passed and detail == PINNED_DETAILS["6"]


def test_check_3_draws_no_candidate_past_its_last_point(monkeypatch):
    # 5 blocks of 4,096 = 20,480 candidates when every block was full-size;
    # a block sized to the points still wanted stops at the 10,000th point
    distance_block = verification._distance_block
    rows = []

    def counting(x, y, *args):
        rows.append(len(x))
        return distance_block(x, y, *args)

    monkeypatch.setattr(verification, "_distance_block", counting)
    passed, detail = verification.check_spheroidal_residuals()
    assert passed and detail == PINNED_DETAILS["3"]
    assert sum(rows) < 20_480
