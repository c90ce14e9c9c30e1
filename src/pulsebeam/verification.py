"""Acceptance checks: every identity, bound, and invariance the library promises.

Each check is deterministic (fixed seeds), runs at desk scale, and returns
(passed, detail), recording the worst observed residual in its detail
string.  Its id and name are written once, in `ACCEPTANCE_CHECKS`.
`run_checks` executes them all (or a subset), pairs each verdict with its
id and name in a `CheckResult`, and is shared by the CLI `verify`
subcommand and the acceptance test module.

The seeded checks (1-4, 6 and 7) draw whole arrays from their generator:
`_unit_vectors(rng, n)` for directions, `rng.uniform(lo, hi, n)`,
`rng.choice([-1.0, 1.0], n)` for signs and `10.0 ** array` for log-uniform
lengths.  Each keeps its seed, its sample count, its distributions and its
bounds, so a run is reproducible and its detail string is pinned in the
tests; a change to any of them changes the string on purpose.  Checks 1-3
evaluate their points through the block kernel `geometry._distance_block`
(and `_rho_block` for check 3), in slices of `_BLOCK` rows so that memory
stays bounded, keeping running maxima.  The kernel is bit-identical to the
scalar `complex_distance` and `spheroidal_coords`, which stay its oracle
in the tests.  The row lengths and dot products that the checks take
themselves come from `_rows`, the interpreter's `math.hypot` and `dot3`
on arrays, as the kernel's do.

Checks 6 and 7 run on flat arrays, not on `Channel`, `ConeVector` or
`RealEvent` objects: `_link_durations` does the operations of
`ConeVector.__add__` and `channel_metrics`, and `_translation_trials` sums
and moves the links with the float operations and cone tests of
`Channel` and `channel_translate`, then evaluates the extended
propagator, the paper's transmission amplitude, on all 4,000 variants of
check 6 with one `_distance_block` and one `_impulse_field_block` call.
A link that a cone test, the branch-circle guard or the kernel refuses
fails the check, and the detail counts it.  The object routes stay the
oracles in the tests over every link: `Channel` and `channel_translate`
evaluated with `extended_propagator` (bit for bit) and with
`channel_amplitude` for the delta impulse (within the check's bound).
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .channel import gain_scan
from .errors import ValidationError
from ._rows import _dot_rows, _norm_rows
from .geometry import _BLOCK, _distance_block, _rho_block
from .propagator import (
    _EIGHT_PI_SQ,
    _impulse_field_block,
    beam_profile,
    extended_propagator,
    far_zone_propagator,
)
from .signals import (
    DeltaDerivative,
    GaussianPulse,
    analytic_signal,
    spectral_signal,
)
from .spacetime import ConeVector, RealEvent
from .wavelet import (
    _FOUR_PI,
    boundary_jump,
    wave_residual,
    wavelet_eval,
)


@dataclass(frozen=True)
class CheckResult:
    ident: str
    name: str
    passed: bool
    detail: str


def _unit_vectors(rng: np.random.Generator, count: int) -> np.ndarray:
    vecs = rng.normal(size=(count, 3))
    norms = np.linalg.norm(vecs, axis=1)
    # Degenerate draws are essentially impossible but keep the guard cheap.
    norms[norms < 1e-12] = 1.0
    return vecs / norms[:, None]


def _offset_blocks(rng: np.random.Generator, n: int):
    """The n offsets of checks 1-2 as (x, yhat, a, r, p, q), a `_BLOCK` of rows at a time.

    Drawn in the order n unit yhat, a = 10^U(-1, 0.5), x in U(-5, 5)^3."""
    dirs = _unit_vectors(rng, n)
    radii = 10.0 ** rng.uniform(-1.0, 0.5, size=n)
    xs = rng.uniform(-5.0, 5.0, size=(n, 3))
    for lo in range(0, n, _BLOCK):
        x, yhat, a = xs[lo : lo + _BLOCK], dirs[lo : lo + _BLOCK], radii[lo : lo + _BLOCK]
        _, r, _, p, q, _, _ = _distance_block(x, a[:, None] * yhat)
        yield x, yhat, a, r, p, q


# ---------------------------------------------------------------------------
# 1: algebraic identities of the complex radial coordinate
# ---------------------------------------------------------------------------


def check_distance_identities() -> Tuple[bool, str]:
    n = 100_000
    worst_sq = 0.0
    worst_pq = 0.0
    for x, yhat, a, r, p, q in _offset_blocks(np.random.default_rng(20260801), n):
        x3 = _dot_rows(x, yhat)
        res_sq = np.abs((p * p - q * q) - (r * r - a * a)) / (r + a) ** 2
        res_pq = np.abs(p * q - a * x3) / np.maximum(a * r, 1e-300)
        worst_sq = max(worst_sq, float(res_sq.max()))
        worst_pq = max(worst_pq, float(res_pq.max()))
    passed = worst_sq <= 1e-12 and worst_pq <= 1e-12
    return passed, (
        f"max rel residual: squares {worst_sq:.2e}, product {worst_pq:.2e} over {n} samples"
    )


# ---------------------------------------------------------------------------
# 2: bounds |p| <= r, |q| <= a with equality exactly on the axis
# ---------------------------------------------------------------------------


def check_distance_bounds() -> Tuple[bool, str]:
    rng = np.random.default_rng(20260802)
    worst_p = -math.inf
    worst_q = -math.inf
    oblique_ok = True
    for x, yhat, a, r, p, q in _offset_blocks(rng, 100_000):
        worst_p = max(worst_p, float(((p - r) / (r + a)).max()))
        worst_q = max(worst_q, float(((np.abs(q) - a) / a).max()))
        off_origin = r > 0.0
        cos_angle = _dot_rows(x, yhat)[off_origin] / r[off_origin]
        sin_angle = np.sqrt(np.maximum(1.0 - cos_angle**2, 0.0))
        strict = (r - p > 0.0) & (a - np.abs(q) > 0.0)
        if not strict[off_origin][sin_angle > 0.1].all():
            oblique_ok = False
    # On-axis batch: equality of both bounds to 1e-12.
    yhat = _unit_vectors(rng, 2000)
    a = 10.0 ** rng.uniform(-1.0, 0.5, 2000)
    sign = rng.choice([-1.0, 1.0], 2000)
    lam = sign * 10.0 ** rng.uniform(-1.0, 1.0, 2000) * a
    _, r, _, p, q, _, _ = _distance_block(lam[:, None] * yhat, a[:, None] * yhat)
    worst_axis = max(
        0.0,
        float((np.abs(p - r) / np.maximum(r, a)).max()),
        float((np.abs(np.abs(q) - a) / a).max()),
    )
    passed = (
        worst_p <= 1e-13 and worst_q <= 1e-13 and oblique_ok and worst_axis <= 1e-12
    )
    return passed, (
        f"bound slack min 0 (worst normalized excess p {worst_p:.1e}, q {worst_q:.1e}); "
        f"on-axis equality residual {worst_axis:.2e}; oblique strictness "
        f"{'ok' if oblique_ok else 'violated'}"
    )


# ---------------------------------------------------------------------------
# 3: spheroid / hyperboloid coordinate-surface identities
# ---------------------------------------------------------------------------


def check_spheroidal_residuals() -> Tuple[bool, str]:
    rng = np.random.default_rng(20260803)
    wanted = 10_000
    accepted = 0
    worst = 0.0
    while accepted < wanted:
        # A candidate yields at most one point, so a block of no more
        # candidates than points still wanted never draws past the last
        # accepted one.
        rows = min(_BLOCK, wanted - accepted)
        yhat = _unit_vectors(rng, rows)
        a = 10.0 ** rng.uniform(-0.5, 0.5, rows)
        x = (a * 10.0 ** rng.uniform(-1.0, 0.6, rows))[:, None] * _unit_vectors(rng, rows)
        y = a[:, None] * yhat
        norm_y, r, _, p, q, _, _ = _distance_block(x, y)
        # Both identities need p != 0 and 0 < |q| < a with sane conditioning.
        keep = ~((p < 0.05 * a) | (np.abs(q) < 0.05 * a) | (np.abs(q) > 0.95 * a))
        keep = np.flatnonzero(keep)
        x, yhat, a, p, q = x[keep], yhat[keep], a[keep], p[keep], q[keep]
        rho_sq = _rho_block(x, y[keep], norm_y[keep], r[keep]) ** 2
        x3 = _dot_rows(x, yhat)
        p_sq, q_sq = p**2, q**2
        res1 = np.abs(rho_sq / (a * a + p_sq) + x3 * x3 / p_sq - 1.0)
        res2 = np.abs(rho_sq / (a * a - q_sq) - x3 * x3 / q_sq - 1.0)
        worst = max(worst, float(res1.max(initial=0.0)), float(res2.max(initial=0.0)))
        accepted += len(keep)
    passed = worst <= 1e-10
    return passed, f"max surface-identity residual {worst:.2e} over {accepted} regular points"


# ---------------------------------------------------------------------------
# 4: finite-difference wave residual vanishes at second order
# ---------------------------------------------------------------------------


def check_wave_residual_order() -> Tuple[bool, str]:
    rng = np.random.default_rng(20260804)
    extent = ConeVector((0.0, 0.0, 0.6), 1.1)
    delta = DeltaDerivative(0)
    gauss = GaussianPulse(0.0, 1.0, 1.0)
    steps = (1e-2, 5e-3, 2.5e-3)
    log_h = np.log(steps)

    points: List[RealEvent] = []
    while len(points) < 20:
        xhat = _unit_vectors(rng, 1)[0].tolist()
        if abs(xhat[2]) < 0.12:
            continue
        r = rng.uniform(1.5, 3.5)
        t = r + rng.uniform(-0.5, 0.5)
        event = RealEvent((r * xhat[0], r * xhat[1], r * xhat[2]), t)
        scale = abs(wavelet_eval(delta, event, extent))
        ratio = abs(wave_residual(delta, event, extent, steps[0])) / scale
        if not (1e-8 <= ratio <= 1e-3):
            continue
        points.append(event)

    min_order = math.inf
    max_ratio = 0.0
    for signal in (delta, gauss):
        for event in points:
            scale = abs(wavelet_eval(signal, event, extent))
            residuals = [abs(wave_residual(signal, event, extent, h)) for h in steps]
            slope = float(np.polyfit(log_h, np.log(residuals), 1)[0])
            min_order = min(min_order, slope)
            max_ratio = max(max_ratio, residuals[0] / scale)
    passed = min_order >= 1.8 and max_ratio <= 1e-3
    return passed, (
        f"min convergence order {min_order:.3f} (need >= 1.8), "
        f"max |residual|/|W| at h=1e-2: {max_ratio:.2e}"
    )


# ---------------------------------------------------------------------------
# 5: boundary-value jump recovers the retarded point-source field
# ---------------------------------------------------------------------------


def check_hyperfunction_jump() -> Tuple[bool, str]:
    extent = ConeVector((0.0, 0.0, 0.5), 1.0)
    signal = GaussianPulse(0.0, 1.0, 1.0)
    directions = (
        (0.0, 0.0, 1.0),
        (0.6, 0.0, 0.8),
        (1.0, 0.0, 0.0),
        (0.0, 0.28, 0.96),
        (-0.8, 0.0, 0.6),
    )
    radii = (1.5, 2.0, 2.5, 3.0, 4.0)
    offsets = (-0.5, -0.25, 0.0, 0.25, 0.5)
    worst_rel = 0.0
    worst_imag = 0.0
    pinned_rel = math.inf
    for i, r in enumerate(radii):
        for j, dt in enumerate(offsets):
            direction = directions[(i + j) % len(directions)]
            event = RealEvent(tuple(r * c for c in direction), r + dt)
            jump = boundary_jump(signal, event, extent)
            truth = math.exp(-0.5 * dt * dt) / (_FOUR_PI * r)
            rel = abs(jump.real - truth) / truth
            worst_rel = max(worst_rel, rel)
            worst_imag = max(worst_imag, abs(jump.imag))
            if r == 2.0 and dt == 0.5:
                pinned = math.exp(-0.125) / (8.0 * math.pi)
                pinned_rel = abs(jump.real - pinned) / pinned
    passed = worst_rel <= 1e-6 and worst_imag <= 1e-8 and pinned_rel <= 1e-6
    return passed, (
        f"max rel error {worst_rel:.2e} on 5x5 grid, max |imag| {worst_imag:.2e}, "
        f"pinned exp(-1/8)/(8 pi) case rel {pinned_rel:.2e}"
    )


# ---------------------------------------------------------------------------
# 6: invariance under equivalence translations, and the endpoint trio
# ---------------------------------------------------------------------------


def _extents(rng: np.random.Generator, count: int, min_margin: float):
    """`count` interior extents as (space rows, lags).

    Each has a unit direction, a radius in U(0.2, 1) and a lag that exceeds
    the radius by U(min_margin, min_margin + 0.8).
    """
    direction = _unit_vectors(rng, count)
    radius = rng.uniform(0.2, 1.0, count)
    return radius[:, None] * direction, radius + rng.uniform(min_margin, min_margin + 0.8, count)


def _admissible(v: np.ndarray) -> np.ndarray:
    """`channel._moved`'s test on every row (space, lag): interior or zero, and a finite lag."""
    radius, lag = _norm_rows(v[:, :3]), v[:, 3]
    return ((lag > radius) | ((lag == 0.0) & (radius == 0.0))) & (lag < math.inf)


def _translation_trials(rng: np.random.Generator, count: int):
    """Check 6's `count` links, their moves, and the transmission amplitude of four variants.

    Returns (links, field, refused).  links is (e, r, c_e, c_r, xi, eta),
    (count, 4) arrays of the emitter and receiver extents and centers and
    each link's real and imaginary move.  A link's eta is the first of up
    to 50 normal trials, of scale 0.15 times its smaller extent margin,
    that keeps both moved extents admissible, or zero.  field is
    `_impulse_field_block`'s (re, im, magnitude) of the extended
    propagator on each link's variants [reference, moved by (xi, eta),
    point receiver, point emitter], as (4, count) arrays, and refused
    marks the variants that fail a cone test of `channel._summed` or
    `channel._moved`, lie within the branch-circle guard, or that the
    kernel flags.  The variants are summed and moved with the float
    operations of `Channel` and `channel_translate`, so each equals, bit
    for bit, `extended_propagator` on the separation and combined extent
    of those objects.  No link needs a redraw: the centers are 3 to 6
    apart and the combined radius is at most 2, so |p - iq|^2 >= r^2 - a^2
    >= 5, far from the branch circle.
    """
    e, r = (np.column_stack(_extents(rng, count, 0.5)) for _ in range(2))
    c_e = np.column_stack([rng.uniform(-2.0, 2.0, (count, 3)), rng.uniform(-1.0, 1.0, count)])
    separation = rng.uniform(3.0, 6.0, count)
    c_r = np.column_stack(
        [
            c_e[:, :3] + separation[:, None] * _unit_vectors(rng, count),
            c_e[:, 3] + separation + rng.uniform(-0.3, 0.3, count),
        ]
    )
    xi = rng.uniform(-1.0, 1.0, (count, 4))
    scale = 0.15 * np.minimum(e[:, 3] - _norm_rows(e[:, :3]), r[:, 3] - _norm_rows(r[:, :3]))
    eta = np.zeros((count, 4))
    pending = np.arange(count)
    for _round in range(50):
        trial = rng.normal(0.0, scale[pending, None], (len(pending), 4))
        moved = _admissible(e[pending] + trial) & _admissible(r[pending] - trial)
        eta[pending[moved]] = trial[moved]
        pending = pending[~moved]
        if not len(pending):
            break
    # The reference link, then the move and the trio of equivalent links: an
    # idealized event receiver and an idealized event emitter.
    zero = np.zeros_like(e)
    x, y, ok = [c_r - c_e], [e + r], [np.ones(count, dtype=bool)]
    for shift, exchange in ((xi, eta), (zero, r), (zero, -e)):
        e_moved, r_moved = e + exchange, r - exchange
        x.append((c_r + shift) - (c_e + shift))
        y.append(e_moved + r_moved)
        ok.append(_admissible(e_moved) & _admissible(r_moved))
    x, y, ok = np.concatenate(x), np.concatenate(y), np.concatenate(ok)
    # the test of `channel._summed`: the combined extent is interior and finite
    ok &= (_norm_rows(y[:, :3]) < y[:, 3]) & (y[:, 3] < math.inf)
    _, _, _, p, q, _, near_circle = _distance_block(x[:, :3], y[:, :3])
    *field, bad = _impulse_field_block(p, q, x[:, 3], y[:, 3])
    refused = ~ok | near_circle | bad
    field = [part.reshape(4, count) for part in field]
    return (e, r, c_e, c_r, xi, eta), field, refused.reshape(4, count)


def check_translation_invariance() -> Tuple[bool, str]:
    count = 1000
    _, (re, im, magnitude), refused = _translation_trials(np.random.default_rng(20260806), count)
    failed = refused.any(axis=0)
    with np.errstate(all="ignore"):
        change = np.hypot(re[1:] - re[0], im[1:] - im[0]) / magnitude[0]
    change[:, failed] = 0.0
    worst, worst_trio = float(change[0].max()), float(change[1:].max())
    refusals = int(failed.sum())
    passed = not refusals and worst <= 1e-14 and worst_trio <= 1e-14
    detail = (
        f"max rel amplitude change {worst:.2e} over {count - refusals} moves; "
        f"endpoint trio {worst_trio:.2e}"
    )
    return passed, detail + (f"; {refusals} of {count} links refused" if refusals else "")


# ---------------------------------------------------------------------------
# 7: duration triangle inequality and the bandwidth chain
# ---------------------------------------------------------------------------


def _parallel_links(rng: np.random.Generator, count: int):
    """`count` links whose two extents share one direction, as (space, lag) pairs."""
    direction = _unit_vectors(rng, count)
    a_e, a_r = rng.uniform(0.1, 1.5, count), rng.uniform(0.1, 1.5, count)
    e_lag = a_e + rng.uniform(0.1, 1.0, count)
    r_lag = a_r + rng.uniform(0.1, 1.0, count)
    return a_e[:, None] * direction, e_lag, a_r[:, None] * direction, r_lag


def _link_durations(e_space, e_lag, r_space, r_lag):
    """Emitter, receiver and link durations `lag - |space|` and the summed lag.

    The floating-point operations of `ConeVector.__add__` and
    `channel_metrics` on the `Channel` of each row, without building it.
    """
    lag = e_lag + r_lag
    return (
        e_lag - _norm_rows(e_space),
        r_lag - _norm_rows(r_space),
        lag - _norm_rows(e_space + r_space),
        lag,
    )


def check_duration_triangle() -> Tuple[bool, str]:
    rng = np.random.default_rng(20260807)
    n = 10_000
    worst_slack = math.inf
    chain_ok = True
    # Slices of _BLOCK extents, emitter and receiver alternating: slices of
    # _BLOCK links grew the peak RSS of repeated runs by 0.3 MB.
    for lo in range(0, n, _BLOCK // 2):
        space, lag = _extents(rng, 2 * min(_BLOCK // 2, n - lo), min_margin=0.05)
        emit, receive, link, total_lag = _link_durations(
            space[0::2], lag[0::2], space[1::2], lag[1::2]
        )
        endpoint_sum = emit + receive
        worst_slack = min(worst_slack, float(((link - endpoint_sum) / total_lag).min()))
        # Every endpoint is interior (margin >= 0.05), so its bandwidth is finite.
        bound = 1.0 / endpoint_sum
        chain = (1.0 / link <= bound * (1.0 + 1e-15)) & (
            bound < np.minimum(1.0 / emit, 1.0 / receive)
        )
        chain_ok = chain_ok and bool(chain.all())
    # Parallel extents: the triangle inequality is saturated.
    emit, receive, link, total_lag = _link_durations(*_parallel_links(rng, 1000))
    worst_eq = float((np.abs(link - (emit + receive)) / total_lag).max())
    passed = worst_slack >= -1e-12 and chain_ok and worst_eq <= 1e-12
    return passed, (
        f"min normalized slack {worst_slack:.2e} over 10000 links; bandwidth chain "
        f"{'ok' if chain_ok else 'violated'}; parallel equality residual {worst_eq:.2e}"
    )


# ---------------------------------------------------------------------------
# 8: line-of-sight maximization of the tilt scan
# ---------------------------------------------------------------------------


def check_line_of_sight_gain() -> Tuple[bool, str]:
    half = np.linspace(0.0, math.pi, 361)
    thetas = np.concatenate([-half[:0:-1], half])  # 721 points, exact 0 at center
    separation = 100.0
    scan = gain_scan(1.0, 2.0, 1.0, 2.0, separation, [float(v) for v in thetas])
    peaks = [p for _, p in scan]
    center = len(peaks) // 2
    argmax = max(range(len(peaks)), key=peaks.__getitem__)
    unique = peaks.count(max(peaks)) == 1
    monotone = all(peaks[i] > peaks[i + 1] for i in range(center, len(peaks) - 1)) and all(
        peaks[i] < peaks[i + 1] for i in range(center)
    )
    symmetric = max(
        abs(peaks[center + k] - peaks[center - k]) / peaks[center + k]
        for k in range(1, center + 1)
    )
    # Cross-module consistency: the theta = 0 peak must match both the
    # parallel-link prediction and the full field at arrival time.
    predicted = 1.0 / (_EIGHT_PI_SQ * separation * (4.0 - 2.0))
    formula_rel = abs(peaks[center] - predicted) / predicted
    amplitude = abs(
        extended_propagator((0.0, 0.0, separation), (0.0, 0.0, 2.0), separation, 4.0)
    )
    field_rel = abs(peaks[center] - amplitude) / amplitude
    passed = (
        scan[center][0] == 0.0
        and argmax == center
        and unique
        and monotone
        and symmetric <= 1e-12
        and formula_rel <= 1e-14
        and field_rel <= 0.02
    )
    return passed, (
        f"argmax at theta={scan[argmax][0]:g} (unique: {unique}), strictly monotone "
        f"each side: {monotone}, symmetry {symmetric:.1e}, field consistency {field_rel:.2%}"
    )


# ---------------------------------------------------------------------------
# 9: angular pattern shape
# ---------------------------------------------------------------------------


def check_pattern_shape() -> Tuple[bool, str]:
    thetas = [float(v) for v in np.linspace(0.0, math.pi, 1801)]
    profile = beam_profile(2.0, 1.0, 100.0, thetas)
    decreasing = all(
        profile.pattern[i] > profile.pattern[i + 1] for i in range(len(thetas) - 1)
    )
    constant = 1.0 / _EIGHT_PI_SQ
    worst = max(
        abs(f * d - constant) / constant
        for f, d in zip(profile.pattern, profile.duration)
    )
    passed = decreasing and worst <= 1e-12
    return passed, f"strictly decreasing: {decreasing}; pattern*duration deviation {worst:.2e}"


# ---------------------------------------------------------------------------
# 10: far-zone form converges at first order in a/r
# ---------------------------------------------------------------------------


def check_far_zone_convergence() -> Tuple[bool, str]:
    a, s = 1.0, 2.0
    angles = (0.0, math.pi / 6, math.pi / 3, math.pi / 2, 2 * math.pi / 3, math.pi)
    worst_near = 0.0
    ratio_lo, ratio_hi = math.inf, -math.inf
    for theta in angles:
        errs = []
        for r in (100.0, 200.0):
            x = (r * math.sin(theta), 0.0, r * math.cos(theta))
            exact = extended_propagator(x, (0.0, 0.0, a), r, s)
            approx = far_zone_propagator(r, theta, r, s, a)
            errs.append(abs(exact - approx) / abs(approx))
        worst_near = max(worst_near, errs[0])
        ratio = errs[1] / errs[0]
        ratio_lo = min(ratio_lo, ratio)
        ratio_hi = max(ratio_hi, ratio)
    passed = worst_near <= 0.02 and 0.4 <= ratio_lo and ratio_hi <= 0.6
    return passed, (
        f"max rel error at r=100a: {worst_near:.2%}; doubling-r error ratio in "
        f"[{ratio_lo:.3f}, {ratio_hi:.3f}] (need within [0.4, 0.6])"
    )


# ---------------------------------------------------------------------------
# 11: the two analytic-signal routes agree
# ---------------------------------------------------------------------------


def check_dual_path_signal() -> Tuple[bool, str]:
    signal = GaussianPulse(0.0, 1.0, 1.0)
    worst = 0.0
    for t in (-2.0, -0.8, 0.0, 0.6, 1.4, 3.0):
        for s in (0.1, 0.3, 1.0, 2.2, 5.0):
            direct = analytic_signal(signal, complex(t, -s))
            spectral = spectral_signal(signal, t, s)
            worst = max(worst, abs(direct - spectral) / max(abs(direct), 1e-300))
    passed = worst <= 1e-6
    return passed, f"max rel disagreement {worst:.2e} on the (t, s) grid"


# ---------------------------------------------------------------------------
# 12: CLI determinism across runs
# ---------------------------------------------------------------------------


def check_cli_determinism() -> Tuple[bool, str]:
    channel_obj = {
        "emitter": {"center": [0.0, 0.0, 0.0, 0.0], "extent": [0.0, 0.0, 0.8, 1.6]},
        "receiver": {"center": [0.0, 0.0, 10.0, 10.0], "extent": [0.3, 0.0, 0.9, 1.7]},
    }
    configs = {
        "pattern": {
            "s": 2.0,
            "a": 1.0,
            "r": 100.0,
            "theta": {"min": 0.0, "max": math.pi, "count": 181},
        },
        "channel": {
            "channel": channel_obj,
            "signal": {"type": "delta"},
            "theta": {"min": -math.pi, "max": math.pi, "count": 181},
        },
        # the grid subcommands over the spatial axes and t; the propagator
        # grid crosses the cut and the branch circle
        "propagator": {
            "extent": [0.0, 0.0, 1.0, 2.0],
            "grid": {
                "x1": {"min": -2.0, "max": 2.0, "count": 21},
                "x3": {"min": -1.0, "max": 1.0, "count": 11},
                "t": 1.5,
            },
        },
        "wavelet": {
            "extent": [0.2, 0.0, 0.8, 1.5],
            "signal": {"type": "gaussian", "center": 0.0, "width": 1.0, "amplitude": 1.0},
            "grid": {
                "x1": {"min": -1.0, "max": 1.0, "count": 5},
                "x3": {"min": 0.0, "max": 2.0, "count": 5},
                "t": 2.0,
            },
        },
    }
    detail = []
    passed = True
    with tempfile.TemporaryDirectory() as workdir:
        for command, config in configs.items():
            config_path = os.path.join(workdir, f"{command}.json")
            with open(config_path, "w") as handle:
                json.dump(config, handle)
            outputs = []
            for tag in "abc":
                out_path = os.path.join(workdir, f"{command}-{tag}.csv")
                proc = subprocess.run(
                    [sys.executable, "-m", "pulsebeam", command]
                    + ["--config", config_path, "--out", out_path],
                    capture_output=True,
                )
                if proc.returncode != 0:
                    passed = False
                    detail.append(
                        f"{command} exited {proc.returncode}: {proc.stderr.decode()[:120]}"
                    )
                    break
                with open(out_path, "rb") as handle:
                    outputs.append(handle.read())
            else:
                identical = outputs[0] == outputs[1] == outputs[2]
                passed = passed and identical
                detail.append(
                    f"{command}: {len(outputs[0])} bytes, "
                    f"{'identical' if identical else 'DIFFER'} across 3 runs"
                )
    return passed, "; ".join(detail)


# ---------------------------------------------------------------------------


ACCEPTANCE_CHECKS: Tuple[Tuple[str, str, Callable[[], Tuple[bool, str]]], ...] = (
    ("1", "complex-distance-identities", check_distance_identities),
    ("2", "complex-distance-bounds", check_distance_bounds),
    ("3", "spheroidal-residuals", check_spheroidal_residuals),
    ("4", "wave-residual-order", check_wave_residual_order),
    ("5", "hyperfunction-jump", check_hyperfunction_jump),
    ("6", "translation-invariance", check_translation_invariance),
    ("7", "duration-triangle", check_duration_triangle),
    ("8", "line-of-sight-gain", check_line_of_sight_gain),
    ("9", "pattern-shape", check_pattern_shape),
    ("10", "far-zone-convergence", check_far_zone_convergence),
    ("11", "dual-path-signal", check_dual_path_signal),
    ("12", "cli-determinism", check_cli_determinism),
)


def run_checks(only: Optional[Sequence[str]] = None) -> List[CheckResult]:
    """Run the acceptance checks (all, or those matching ids/names in `only`)."""
    wanted = None
    if only is not None:
        wanted = {str(item).strip() for item in only}
    results = []
    for ident, name, func in ACCEPTANCE_CHECKS:
        if wanted is not None and ident not in wanted and name not in wanted:
            continue
        results.append(CheckResult(ident, name, *func()))
    if not results:
        raise ValidationError(f"no acceptance checks match {only!r}")
    return results
