"""Causal impulse field extended to complexified spacetime, and its beam shape.

With complex time tau = t - i s and complex radial coordinate
rt = p - i q, the extended impulse field is

    1 / (8 i pi^2 rt (tau - rt)).

For an interior extension (s > a) the denominator is bounded away from
zero, since Im(tau - rt) = -(s - q) <= -(s - a) < 0: the field is an
everywhere-finite beam pulse aimed along the extension axis.  In the far
zone it reduces to

    1 / (8 i pi^2 r {(t - r) - i (s - a cos theta)}),

a pulse of angle-dependent duration s - a cos(theta) peaking at t = r,
whose angular pattern 1/(8 pi^2 (s - a cos theta)) traces an ellipse of
eccentricity a/s with one focus at the origin and has no sidelobes.

The public functions evaluate one point.  `_impulse_field_block(p, q, t,
s)` evaluates the field on arrays of roots p - iq and times t, for the
CLI grids.  Its contract is bit identity: on every row that it does not
flag, its real part, imaginary part and magnitude equal, bit for bit,
those of `_impulse_field` and `abs` on the same row, and it flags exactly
the rows where `_impulse_field` raises AccuracyError.  It takes the
interpreter's complex product and quotient from `_rows`, which holds the
contract, and the magnitude from `np.hypot`, the C library's hypot that
`abs` calls; the scalar `_impulse_field` is the kernel's oracle in the
tests.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ._rows import _product_rows, _quot_rows
from .errors import AccuracyError, CausalityError, SingularityProximityError, ValidationError
from .geometry import ComplexDistance, complex_distance
from .spacetime import as_scalar, as_vec3, norm3

_EIGHT_PI_SQ = 8.0 * math.pi * math.pi
# The fields' leading factor 8j * pi * pi, evaluated as CPython does.
_EIGHT_I_PI_SQ = 8j * math.pi * math.pi


def _require_interior(s: float, a: float) -> None:
    if s <= a:
        raise CausalityError(
            f"extension lag must exceed the extension radius (s > a), got s={s:g}, a={a:g}"
        )


def _reciprocal(denominator: complex, what: str) -> complex:
    """1/denominator; a denominator that underflowed to 0 or a quotient that overflows is refused."""
    value = 1.0 / denominator if denominator else math.inf
    if not cmath.isfinite(value):
        raise AccuracyError(f"{what} 1/({denominator}) overflows a float", value=value)
    return value


def _impulse_field(dist: ComplexDistance, t: float, s: float) -> complex:
    """1/(8 i pi^2 rt (tau - rt)) at rt = dist.value, tau = t - i s; the caller checks s > a."""
    if dist.near_circle:
        raise SingularityProximityError(
            "evaluation point is within the guard distance of the branch circle"
        )
    rt = dist.value
    tau = complex(t, -s)
    return _reciprocal(_EIGHT_I_PI_SQ * rt * (tau - rt), "propagator")


def _impulse_field_block(p: np.ndarray, q: np.ndarray, t: np.ndarray, s):
    """`_impulse_field` and its magnitude on every row of the roots p - iq and times t.

    s is the extension lag, one float or one per row.  Returns the arrays
    (re, im, magnitude, bad).  bad marks the rows where the scalar raises
    AccuracyError (the denominator is 0, or its reciprocal is not
    finite); their values are meaningless.  The near-circle guard is the
    caller's, as is the check s > a.
    """
    with np.errstate(all="ignore"):
        krt_re, krt_im = _product_rows(_EIGHT_I_PI_SQ.real, _EIGHT_I_PI_SQ.imag, p, -q)
        den_re, den_im = _product_rows(krt_re, krt_im, t - p, -s - -q)
        re, im = _quot_rows(1.0, 0.0, den_re, den_im)
        magnitude = np.hypot(re, im)
    bad = ((den_re == 0.0) & (den_im == 0.0)) | ~np.isfinite(re) | ~np.isfinite(im)
    return re, im, magnitude, bad


def extended_propagator(x: Sequence[float], y: Sequence[float], t: float, s: float) -> complex:
    """Extended impulse field at spatial offset x, time t, extension (y, s).

    Requires an interior extension (s > |y| > 0) and an evaluation point
    away from the branch circle.  The purely real case y = 0 is refused:
    its boundary value is a distribution, not a pointwise field.  A value
    that overflows a float raises AccuracyError.
    """
    t = as_scalar(t, "time")
    s = as_scalar(s, "extension lag")
    dist = complex_distance(x, y)
    _require_interior(s, norm3(as_vec3(y, "extension vector")))
    return _impulse_field(dist, t, s)


def far_zone_propagator(r: float, theta: float, t: float, s: float, a: float) -> complex:
    """Far-zone beam form at radius r and polar angle theta off the beam axis.

    A value that overflows a float raises AccuracyError.
    """
    r = as_scalar(r, "radius")
    theta = as_scalar(theta, "polar angle")
    t = as_scalar(t, "time")
    s = as_scalar(s, "extension lag")
    a = as_scalar(a, "extension radius")
    if r <= 0.0:
        raise ValidationError(f"radius must be positive, got {r}")
    if a < 0.0:
        raise ValidationError(f"extension radius must be nonnegative, got {a}")
    _require_interior(s, a)
    denominator = complex(t - r, -(s - a * math.cos(theta)))
    return _reciprocal(_EIGHT_I_PI_SQ * r * denominator, "far-zone propagator")


@dataclass(frozen=True)
class BeamProfile:
    """Angular beam characteristics sampled on a polar-angle grid.

    duration[i] = s - a cos(theta[i]) is the pulse length radiated at that
    angle, pattern[i] its far-field amplitude, and peak[i] the t = r peak
    value at the reference radius.  pattern * duration is constant in
    theta (the elliptical-pattern property) and eccentricity = a / s.
    """

    theta: Tuple[float, ...]
    duration: Tuple[float, ...]
    pattern: Tuple[float, ...]
    peak: Tuple[float, ...]
    eccentricity: float


def _beam_peaks(s: float, a: float, r: float, theta_grid: Sequence[float]):
    """Validated angles, durations s - a cos(theta), far-zone peaks 1/(8 pi^2 r duration), a/s.

    A peak that over- or underflows a float raises AccuracyError.
    """
    s = as_scalar(s, "extension lag")
    a = as_scalar(a, "extension radius")
    r = as_scalar(r, "reference radius")
    if r <= 0.0:
        raise ValidationError(f"reference radius must be positive, got {r}")
    if a < 0.0:
        raise ValidationError(f"extension radius must be nonnegative, got {a}")
    _require_interior(s, a)
    thetas = tuple(as_scalar(th, "polar angle") for th in theta_grid)
    durations = tuple(s - a * math.cos(th) for th in thetas)
    peaks = tuple(_reciprocal(_EIGHT_PI_SQ * r * d, "beam peak") for d in durations)
    return thetas, durations, peaks, a / s


def beam_profile(s: float, a: float, r: float, theta_grid: Sequence[float]) -> BeamProfile:
    """Sample duration, angular pattern, and peak amplitude over theta_grid.

    The peak uses the far-zone form and is approximate at moderate r.  A
    peak or pattern value that over- or underflows a float raises
    AccuracyError.
    """
    thetas, durations, peaks, eccentricity = _beam_peaks(s, a, r, theta_grid)
    return BeamProfile(
        theta=thetas,
        duration=durations,
        pattern=tuple(_reciprocal(_EIGHT_PI_SQ * d, "beam pattern") for d in durations),
        peak=peaks,
        eccentricity=eccentricity,
    )
