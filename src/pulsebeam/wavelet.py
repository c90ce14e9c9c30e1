"""Beam-shaped wave fields driven by an arbitrary signal.

Convolving the extended impulse field with a driving signal g0 gives the
beam wavelet

    W = g(tau - rt) / (4 pi rt),

with g the analytic signal of g0 and rt = p - iq the complex radial
coordinate.  For an interior extension the argument of g stays a distance
of at least s - a below the real axis, so W is finite and smooth away
from the branch circle and solves the homogeneous wave equation off the
cut disk.  Two testable facts about its singular structure are exposed
here: the finite-difference wave residual vanishes at second order away
from the cut, and the boundary-value jump across real spacetime recovers
the retarded field g0(t - r) / (4 pi r) of an ideal point source.

The jump is the difference of W at the extensions +eps*y (tau below the
real axis, the reception-type side) and -eps*y (the emission-type side).
Negating y conjugates rt and tau, and a real g0 has
g(conj z) = -conj g(z), so the second value is minus the conjugate of
the first and the jump is 2 Re W(+eps*y): each rung of the ladder costs
one evaluation of g.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

from .errors import (
    AccuracyError,
    DomainError,
    NonAnalyticPointError,
    SingularityProximityError,
    StencilPlacementError,
)
from .geometry import (
    NEAR_CIRCLE_REL_TOL,
    BranchRegion,
    ComplexDistance,
    _tolerance,
    branch_classify,
    complex_distance,
    segment_crosses_cut,
)
from .propagator import _require_interior
from .signals import DEFAULT_EPS_LADDER, DrivingSignal, _jump_limit, analytic_signal
from .spacetime import ConeVector, RealEvent, as_scalar, norm3

_FOUR_PI = 4.0 * math.pi


def _radial_distance(
    x_space: Sequence[float], ext_space: Sequence[float], near_circle_tol: float | None = None
) -> ComplexDistance:
    """The radial coordinate rt of the field step, for an extension of any sign or size.

    A nonzero extension takes p - iq from complex_distance; a zero one
    takes the Euclidean |x|, flagged near_circle at the spatial origin,
    the only singular point left, and within near_circle_tol of it.
    """
    if any(ext_space):
        return complex_distance(x_space, ext_space, near_circle_tol=near_circle_tol)
    r = norm3(x_space)
    tol = 0.0 if near_circle_tol is None else _tolerance(near_circle_tol, "near-circle tolerance")
    return ComplexDistance(r, 0.0, near_circle=r < tol or r == 0.0)


def _field(signal: DrivingSignal, dist: ComplexDistance, t: float, lag: float) -> complex:
    """g(tau - rt)/(4 pi rt) with rt = dist.value and tau = t - i lag."""
    if dist.near_circle:
        raise SingularityProximityError(
            "evaluation point is within the guard distance of the field's singular set "
            "(the branch circle, or the spatial origin for a purely temporal extension)"
        )
    rt = dist.value
    tau = complex(t, -lag)
    value = analytic_signal(signal, tau - rt) / (_FOUR_PI * rt)
    if not cmath.isfinite(value):
        raise AccuracyError(f"wavelet at rt = {rt} overflows a float", value=value)
    return value


def wavelet_eval(signal: DrivingSignal, x: RealEvent, y: ConeVector) -> complex:
    """Beam wavelet g(tau - rt)/(4 pi rt) at the real event x for extension y.

    y must be interior.  When its space part vanishes the radial coordinate
    is the plain Euclidean distance and only r = 0 is singular; otherwise
    evaluation near the branch circle is refused with the guard tolerance
    inherited from the geometry module.
    """
    _require_interior(y.time, y.radius)
    return _field(signal, _radial_distance(x.space, y.space), x.time, y.time)


def boundary_jump(signal: DrivingSignal, x: RealEvent, y: ConeVector) -> complex:
    """Jump of the wavelet between its two boundary values across real spacetime.

    The jump is W at the extension +eps*y (the side that continues the
    reception-type parameterization, tau below the real axis) minus W at
    -eps*y (the emission-type side), extrapolated to eps -> 0+ over
    DEFAULT_EPS_LADDER.  Negating the extension conjugates rt and tau, and
    for a real g0 the analytic signal obeys g(conj z) = -conj g(z), so
    W(-eps*y) = -conj W(+eps*y), in floating point too (see
    signals._jump_limit), and each rung evaluates one side only: the
    jump is 2 Re W(+eps*y).
    For a signal continuous at t - r the limit equals g0(t - r)/(4 pi r),
    the retarded field of an ideal point source.
    """
    _require_interior(y.time, y.radius)
    eps = DEFAULT_EPS_LADDER
    r = x.radius
    if r == 0.0:
        raise DomainError("the boundary jump is undefined at the spatial origin")
    if eps[0] * y.radius >= r:
        raise DomainError(
            "largest ladder epsilon times the extension radius must stay below |x|; "
            f"got {eps[0]:g} * {y.radius:g} >= {r:g}"
        )
    if not signal.is_continuous_at(x.time - r):
        raise NonAnalyticPointError(
            f"driving signal is not continuous at the retarded time {x.time - r:g}"
        )

    def below(e):
        dist = _radial_distance(x.space, tuple(e * v for v in y.space))
        return _field(signal, dist, x.time, e * y.time)

    return _jump_limit(below, max(signal.peak_scale() / (_FOUR_PI * r), 1e-30))


def _check_stencil(x: RealEvent, y: ConeVector, arms, guard_tol: float) -> None:
    """Refuse a stencil whose points touch, or whose (lo, hi) arms cross, the singular set."""
    points = [x.space, *(point for arm in arms for point in arm)]
    if y.radius == 0.0:
        if any(norm3(point) == 0.0 for point in points):
            raise StencilPlacementError("stencil touches the spatial origin")
        return
    for point in points:
        if branch_classify(point, y.space, guard_tol) is not BranchRegion.REGULAR:
            raise StencilPlacementError(
                "finite-difference stencil touches the branch cut or circle"
            )
    for lo, hi in arms:
        if segment_crosses_cut(lo, hi, y.space):
            raise StencilPlacementError("finite-difference stencil crosses the branch cut")


def wave_residual(
    signal: DrivingSignal, x: RealEvent, y: ConeVector, h: float, guard: bool = True
) -> complex:
    """Central-difference wave-operator residual d_tt W - Lap W with step h.

    Away from the cut the wavelet is an exact solution, so the residual is
    pure truncation error and shrinks as O(h^2).  With guard=True the
    full spatial stencil must stay regular and off the cut; guard=False
    permits diagnostic evaluation near the singular support, where the
    residual spikes.  The centre and both time shifts share one radial
    distance.
    """
    h = as_scalar(h, "stencil step")
    if h <= 0.0:
        raise DomainError(f"stencil step must be positive, got {h}")
    arms = []
    for axis in range(3):
        lo = list(x.space)
        hi = list(x.space)
        lo[axis] -= h
        hi[axis] += h
        arms.append((tuple(lo), tuple(hi)))
    if guard:
        _check_stencil(x, y, arms, NEAR_CIRCLE_REL_TOL * max(y.radius, 1.0))
    _require_interior(y.time, y.radius)

    dist = _radial_distance(x.space, y.space)
    center = _field(signal, dist, x.time, y.time)
    time_second = (
        _field(signal, dist, x.time + h, y.time)
        - 2.0 * center
        + _field(signal, dist, x.time - h, y.time)
    )
    laplacian = 0j
    for lo, hi in arms:
        laplacian += (
            _field(signal, _radial_distance(hi, y.space), x.time, y.time)
            - 2.0 * center
            + _field(signal, _radial_distance(lo, y.space), x.time, y.time)
        )
    return (time_second - laplacian) / (h * h)
