"""Acceptance suite: one test per criterion, each printing its pass/fail line.

The checks themselves live in pulsebeam.verification so that the CLI
`verify` subcommand and this module exercise the exact same code.
"""

import math

import numpy as np
import pytest

from pulsebeam import channel, spacetime, verification
from pulsebeam.channel import Channel, channel_amplitude, channel_metrics, channel_translate
from pulsebeam.errors import CausalityError, ConeViolationError
from pulsebeam.geometry import complex_distance
from pulsebeam.signals import DeltaDerivative
from pulsebeam.spacetime import ConeStatus, ConeVector, RealEvent, cone_status
from pulsebeam.verification import (
    ACCEPTANCE_CHECKS,
    _interior_extents,
    _link_durations,
    _parallel_links,
    _translation_trials,
    _uniform,
    _unit3,
    _unit_rows,
    _unit_vectors,
)

# Detail strings of the seeded sampling checks, as printed by the
# point-by-point implementation they replaced, and of check 5's boundary
# jumps.  A change to a seed, a sample count, the draw order or the jump's
# ladder changes them.
PINNED_DETAILS = {
    "1": "max rel residual: squares 4.69e-16, product 5.97e-16 over 100000 samples",
    "2": "bound slack min 0 (worst normalized excess p -1.0e-08, q -1.4e-05); "
    "on-axis equality residual 4.90e-16; oblique strictness ok",
    "3": "max surface-identity residual 6.04e-14 over 10000 regular points",
    "4": "min convergence order 1.999 (need >= 1.8), max |residual|/|W| at h=1e-2: 4.80e-04",
    "5": "max rel error 8.19e-13 on 5x5 grid, max |imag| 0.00e+00, "
    "pinned exp(-1/8)/(8 pi) case rel 7.71e-15",
    "6": "max rel amplitude change 1.30e-15 over 1000 moves; endpoint trio 0.00e+00",
    "7": "min normalized slack 1.11e-05 over 10000 links; bandwidth chain ok; "
    "parallel equality residual 2.28e-16",
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


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def test_single_unit_vector_draw_matches_the_array_draw():
    old, new = np.random.default_rng(20260803), np.random.default_rng(20260803)
    # rows filled one at a time between scalar draws, as checks 2, 3 and 7 draw them
    g = np.empty((5_000, 3))
    want = np.empty((5_000, 3))
    for k in range(5_000):
        new.standard_normal(out=g[k])
        new.random()
        want[k] = _unit_vectors(old, 1)[0]
        old.uniform(0.0, 1.0)
    assert np.array_equal(_bits(_unit_rows(g)), _bits(want))
    # one row drawn on its own, as check 4 draws it, and in Python floats,
    # as check 6 draws it
    for _ in range(1_000):
        one = _unit_rows(new.standard_normal((1, 3)))[0]
        assert np.array_equal(_bits(one), _bits(_unit_vectors(old, 1)[0]))
        one = _unit3(*new.standard_normal(3).tolist())
        assert np.array_equal(_bits(one), _bits(_unit_vectors(old, 1)[0]))


# The scalar uniforms of each check, in the order one pass of its loop draws
# them; the bounds are written as verification.py writes them.
UNIFORM_DRAWS = {
    "2-on-axis": ((-1.0, 0.5), (-1.0, 1.0)),
    "3": ((-0.5, 0.5), (-1.0, 0.6)),
    "4": ((1.5, 3.5), (-0.5, 0.5)),
    "6-extent": ((0.2, 1.0), (0.5, 0.5 + 0.8)),
    "6-channel": ((3.0, 6.0), (-1.0, 1.0), (-0.3, 0.3)),
    "7": ((0.2, 1.0), (0.05, 0.05 + 0.8)),
    "7-parallel": ((0.1, 1.5), (0.1, 1.5), (0.1, 1.0), (0.1, 1.0)),
}


@pytest.mark.parametrize("bounds", UNIFORM_DRAWS.values(), ids=UNIFORM_DRAWS.keys())
def test_uniform_helper_matches_rng_uniform(bounds):
    n = 10_000
    want = np.empty((n, len(bounds)))
    scalar = np.empty((n, len(bounds)))
    units = np.empty((n, len(bounds)))
    old, new, filled = (np.random.default_rng(20260807) for _ in range(3))
    for k in range(n):
        filled.random(out=units[k])
        for j, (lo, hi) in enumerate(bounds):
            want[k, j] = old.uniform(lo, hi)
            scalar[k, j] = _uniform(lo, hi, new.random())
    assert np.array_equal(_bits(scalar), _bits(want))
    arrays = np.column_stack(
        [_uniform(lo, hi, units[:, j]) for j, (lo, hi) in enumerate(bounds)]
    )
    assert np.array_equal(_bits(arrays), _bits(want))


def test_sign_draw_matches_rng_choice():
    # check 2's on-axis loop: a direction, a uniform, a sign, a uniform
    old, new = np.random.default_rng(20260802), np.random.default_rng(20260802)
    want, got = np.empty(20_000), np.empty(20_000)
    for k in range(20_000):
        old.standard_normal(3)
        new.standard_normal(3)
        old.random()
        new.random()
        want[k] = old.choice([-1.0, 1.0])
        got[k] = (-1.0, 1.0)[new.integers(0, 2)]
        old.random()
        new.random()
    assert np.array_equal(_bits(got), _bits(want))
    assert old.bit_generator.state == new.bit_generator.state


def test_check_7_flat_durations_match_channel_metrics():
    """Oracle: the first 2,000 links of each loop, built and measured as objects."""
    origin, apart = RealEvent((0.0, 0.0, 0.0), 0.0), RealEvent((5.0, 0.0, 0.0), 5.0)
    old = np.random.default_rng(20260807)

    def extent(a, direction, lag):
        return ConeVector(tuple(a * c for c in direction), lag)

    def interior():
        direction = _unit_vectors(old, 1)[0].tolist()
        radius = old.uniform(0.2, 1.0)
        return extent(radius, direction, radius + old.uniform(0.05, 0.05 + 0.8))

    triangle = []
    for k in range(10_000):
        link = (origin, interior(), apart, interior())
        if k < 2_000:
            triangle.append(Channel(*link))
    parallel = []
    for _ in range(1_000):
        direction = _unit_vectors(old, 1)[0].tolist()
        a_e, a_r = old.uniform(0.1, 1.5), old.uniform(0.1, 1.5)
        e = extent(a_e, direction, a_e + old.uniform(0.1, 1.0))
        r = extent(a_r, direction, a_r + old.uniform(0.1, 1.0))
        parallel.append(Channel(origin, e, apart, r))

    new = np.random.default_rng(20260807)
    space, lag = _interior_extents(new, 2 * 10_000, min_margin=0.05)
    flat_triangle = _link_durations(space[0::2], lag[0::2], space[1::2], lag[1::2])
    flat_parallel = _link_durations(*_parallel_links(new, 1_000))
    for links, flat in ((triangle, flat_triangle), (parallel, flat_parallel)):
        metrics = [channel_metrics(ch) for ch in links]
        want = (
            [m.emit_duration for m in metrics],
            [m.receive_duration for m in metrics],
            [m.duration for m in metrics],
            [ch.combined_extent.time for ch in links],
        )
        for got, expected in zip(flat, want):
            assert np.array_equal(_bits(got[: len(links)]), _bits(expected))


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


def _random_channel(rng, redraws):
    """A link of check 6, drawn and built as objects: the oracle's link.

    A link near the branch circle, on the cut, or below 0.3 in magnitude is
    redrawn, and its distance appended to redraws.
    """
    while True:
        extents = []
        for _ in range(2):
            direction = _unit_vectors(rng, 1)[0]
            radius = rng.uniform(0.2, 1.0)
            lag = radius + rng.uniform(0.5, 0.5 + 0.8)
            extents.append(ConeVector(tuple((radius * direction).tolist()), lag))
        center = rng.uniform(-2.0, 2.0, size=3)
        direction = _unit_vectors(rng, 1)[0]
        separation = rng.uniform(3.0, 6.0)
        t_e = rng.uniform(-1.0, 1.0)
        emitter_center = RealEvent(tuple(center.tolist()), t_e)
        receiver_center = RealEvent(
            tuple((center + separation * direction).tolist()),
            t_e + separation + rng.uniform(-0.3, 0.3),
        )
        ch = Channel(emitter_center, extents[0], receiver_center, extents[1])
        dist = complex_distance(ch.separation.space, ch.combined_extent.space)
        if not (dist.near_circle or dist.on_cut or dist.magnitude < 0.3):
            return ch
        redraws.append(dist)


def test_check_6_flat_amplitudes_match_the_link_objects():
    """Oracle: check 6's 1,000 links built, moved and evaluated as objects."""
    rng = np.random.default_rng(20260806)
    signal = DeltaDerivative(0)
    etas, amplitudes, redraws = [], [], []
    for _ in range(1_000):
        ch = _random_channel(rng, redraws)
        xi = tuple(rng.uniform(-1.0, 1.0, size=4).tolist())
        e, r = ch.emitter_extent, ch.receiver_extent
        margin = min(e.time - e.radius, r.time - r.radius)
        eta = (0.0, 0.0, 0.0, 0.0)
        for _attempt in range(50):
            trial = tuple(rng.normal(scale=0.15 * margin, size=4).tolist())
            e_space = tuple(a + b for a, b in zip(e.space, trial[:3]))
            r_space = tuple(a - b for a, b in zip(r.space, trial[:3]))
            if (
                cone_status(e_space, e.time + trial[3]) is ConeStatus.INTERIOR
                and cone_status(r_space, r.time - trial[3]) is ConeStatus.INTERIOR
            ):
                eta = trial
                break
        zero = (0.0, 0.0, 0.0, 0.0)
        links = (
            ch,
            channel_translate(ch, xi, eta),
            channel_translate(ch, zero, (*r.space, r.time)),
            channel_translate(ch, zero, tuple(-v for v in (*e.space, e.time))),
        )
        etas.append(eta)
        amplitudes.append([channel_amplitude(link, signal) for link in links])

    flat = list(_translation_trials(np.random.default_rng(20260806), signal, 1_000))
    assert np.array_equal(_bits([eta for _, _, eta, _ in flat]), _bits(etas))
    got = np.asarray([values for *_, values in flat], dtype=complex)
    want = np.asarray(amplitudes, dtype=complex)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # some moves change the amplitude's last bits, so the moved links are compared
    assert (want[:, 0] != want[:, 1]).any()
    # check 6 draws without a redraw; draw ranges that reach the branch
    # circle would need it back
    assert redraws == []


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
