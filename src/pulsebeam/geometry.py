"""Complexified radial distance and its branch structure.

For a real offset x and a fixed nonzero extension y, the complexified
squared distance is

    (x - iy) . (x - iy) = r^2 - a^2 - 2 i a x3,

with r = |x|, a = |y| and x3 the component of x along y.  Its square root
is taken on the branch with nonnegative real part and written p - iq, so

    p^2 - q^2 = r^2 - a^2,    p q = a x3,    0 <= p <= r,    |q| <= a,

with equality in the bounds exactly when x is parallel to y.  Level sets
of p are oblate spheroids, level sets of q one-sheeted hyperboloids, and
the two families share the focal circle r = a, x3 = 0 where the root
vanishes.  The root is double-valued around that circle; it is made
single-valued by cutting along the spanning disk r <= a, x3 = 0, across
which it flips sign.  On the cut itself this module returns the limit
from the x3 -> 0+ side, i.e. p = 0, q = +sqrt(a^2 - r^2), and flags the
point so callers can avoid relying on cut values.

The public functions evaluate one point.  `_distance_block(x, y)`
evaluates (n, 3) blocks of offsets and extensions in numpy, and
`_rho_block` gives the matching cylindrical radius of
`spheroidal_coords`.  Their contract is bit identity: row k of every
array they return equals, bit for bit, what `_axis_frame` and
`_distance` with the same guard tolerance (and `spheroidal_coords` for
rho) give for row k, and they raise the scalar path's errors.  They
repeat the interpreter's `math.hypot`, dot product and `cmath.sqrt`
through `_rows`, which holds the contract, and the scalar
`complex_distance` is the kernel's oracle in the tests.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from ._rows import _dot_rows, _hypot_rows, _norm_rows, _sqrt_rows
from .errors import (
    AccuracyError,
    DegenerateExtensionError,
    UndefinedDirectionError,
    ValidationError,
)
from .spacetime import as_scalar, as_vec3, dot3, norm3

# Guard radius around the branch circle, relative to the extension radius.
# The fields diverge like 1/|p - iq| there; callers get a flag, not a NaN.
NEAR_CIRCLE_REL_TOL = 1e-9

# Rows per block-kernel call, in the acceptance checks and the CLI grids:
# large enough to amortise the call, small enough that the temporaries
# stay a few hundred kB.
_BLOCK = 4096


class BranchRegion(Enum):
    REGULAR = "regular"
    ON_CUT = "on_cut"
    ON_CIRCLE = "on_circle"


@dataclass(frozen=True)
class ComplexDistance:
    """The pair (p, q) with complex radial coordinate p - iq, plus branch flags."""

    p: float
    q: float
    on_cut: bool = False
    near_circle: bool = False

    @property
    def value(self) -> complex:
        return complex(self.p, -self.q)

    @property
    def magnitude(self) -> float:
        return math.hypot(self.p, self.q)


@dataclass(frozen=True)
class SpheroidalCoords:
    """Oblate-spheroidal coordinates (p, q, phi) of a point relative to an extension axis.

    rho is the cylindrical radius orthogonal to the axis.  Off the axis and
    off the cut the coordinates satisfy

        rho^2/(a^2 + p^2) + x3^2/p^2 = 1     (oblate spheroid through the point)
        rho^2/(a^2 - q^2) - x3^2/q^2 = 1     (one-sheeted hyperboloid through it)
    """

    p: float
    q: float
    phi: float
    rho: float


_ZERO_EXTENSION = (
    "extension vector must be nonzero; the real-distance case is served by a separate path"
)


def _tolerance(tol: float, what: str) -> float:
    """A length tolerance as a float; it must be finite and >= 0."""
    tol = as_scalar(tol, what)
    if tol < 0.0:
        raise ValidationError(f"{what} must be finite and >= 0, got {tol}")
    return tol


def _axis_frame(x: Sequence[float], y: Sequence[float], what: str = "observation offset"):
    """Validated x and y, a = |y| > 0, r = |x| and the axis component x3 = x . y / a."""
    x = as_vec3(x, what)
    y = as_vec3(y, "extension vector")
    a = norm3(y)
    if a == 0.0:
        raise DegenerateExtensionError(_ZERO_EXTENSION)
    return x, y, a, norm3(x), dot3(x, y) / a


def _distance(a: float, r: float, x3: float, near_circle_tol: float) -> ComplexDistance:
    """The root p - iq of r^2 - a^2 - 2 i a x3 with its on_cut and near_circle flags.

    A root of magnitude exactly 0 (the point is on the branch circle) is
    near_circle whatever the tolerance.
    """
    if x3 == 0.0 and r < a:
        p, q = 0.0, math.sqrt(a * a - r * r)
        on_cut = True
    else:
        root = cmath.sqrt(complex(r * r - a * a, -2.0 * a * x3))
        p, q = root.real, -root.imag
        on_cut = False
    magnitude = math.hypot(p, q)
    if not magnitude < math.inf:  # inf or nan: r^2 or a^2 overflowed
        raise AccuracyError(
            f"complex distance at r = {r:g}, a = {a:g} overflows a float", value=complex(p, -q)
        )
    near_circle = magnitude < near_circle_tol or magnitude == 0.0
    return ComplexDistance(p, q, on_cut=on_cut, near_circle=near_circle)


def _distance_block(x: np.ndarray, y: np.ndarray, near_circle_tol: float | None = None):
    """`_axis_frame` plus `_distance` on every row of (n, 3) blocks x and y.

    near_circle_tol is a validated length, or None for the default guard
    `NEAR_CIRCLE_REL_TOL * a`, as in `complex_distance`.

    Returns the arrays (a, r, x3, p, q, on_cut, near_circle), each of
    length n and bit-identical row by row to the scalar path.  Raises
    that path's errors: ValidationError when an input is not finite
    (naming its first such row), else DegenerateExtensionError for a zero
    row of y, else AccuracyError for the first root whose magnitude is
    not finite.  Finiteness is one flat test per block; the row is looked
    up only when it fails.  Callers keep n bounded: every intermediate has
    length n.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or x.shape[1] != 3 or x.shape != y.shape:
        raise ValidationError(f"blocks must both be (n, 3), got {x.shape} and {y.shape}")
    for block, what in ((x, "observation offset"), (y, "extension vector")):
        if not np.isfinite(block).all():
            k = int(np.argmax(~np.isfinite(block).all(axis=1)))
            raise ValidationError(f"{what} components must be finite, got row {k}: {block[k]}")
    a = _norm_rows(y)
    if not a.all():
        raise DegenerateExtensionError(_ZERO_EXTENSION)
    r = _norm_rows(x)
    x3 = _dot_rows(x, y) / a
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        p, root_imag = _sqrt_rows(r * r - a * a, (-2.0 * a) * x3)
        q = -root_imag
        on_cut = (x3 == 0.0) & (r < a)
        p[on_cut] = 0.0
        q[on_cut] = np.sqrt(a[on_cut] * a[on_cut] - r[on_cut] * r[on_cut])
    magnitude = _hypot_rows(p, q)
    overflow = ~(magnitude < math.inf)
    if overflow.any():
        k = int(np.argmax(overflow))
        raise AccuracyError(
            f"complex distance at r = {r[k]:g}, a = {a[k]:g} overflows a float",
            value=complex(p[k], -q[k]),
        )
    tol = NEAR_CIRCLE_REL_TOL * a if near_circle_tol is None else near_circle_tol
    near_circle = (magnitude < tol) | (magnitude == 0.0)
    return a, r, x3, p, q, on_cut, near_circle


def _rho_block(x: np.ndarray, y: np.ndarray, a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """`spheroidal_coords`' rho on every row, from `_distance_block`'s a and r.

    Like the scalar, it projects on y/a (x . (y/a) can differ from the
    kernel's x3 = (x . y)/a in the last bit).
    """
    x3 = _dot_rows(x, y / a[:, None])
    return np.sqrt(np.maximum(r * r - x3 * x3, 0.0))


def complex_distance(
    x: Sequence[float], y: Sequence[float], near_circle_tol: float | None = None
) -> ComplexDistance:
    """Complex radial coordinate of x relative to the extension y != 0.

    Returns the square root of r^2 - a^2 - 2 i a x3 on the branch with
    nonnegative real part.  On the cut disk (x3 = 0, r < a) the value is
    the limit from the x3 -> 0+ side and on_cut is set.  near_circle is
    set when |p - iq| falls below near_circle_tol (default 1e-9 * a), and
    always at |p - iq| = 0; a negative or non-finite near_circle_tol is a
    ValidationError.  A root that overflows a float raises AccuracyError.

    A zero extension is rejected: the purely real distance is not a
    degenerate case of this routine but a separate code path in the
    field evaluators.
    """
    _, _, a, r, x3 = _axis_frame(x, y)
    if near_circle_tol is None:
        near_circle_tol = NEAR_CIRCLE_REL_TOL * a
    else:
        near_circle_tol = _tolerance(near_circle_tol, "near-circle tolerance")
    return _distance(a, r, x3, near_circle_tol)


def _transverse_frame(yhat: Sequence[float]):
    """Deterministic right-handed orthonormal pair completing yhat."""
    k = min(range(3), key=lambda i: abs(yhat[i]))
    ref = [0.0, 0.0, 0.0]
    ref[k] = 1.0
    proj = dot3(ref, yhat)
    e1 = tuple(ref[i] - proj * yhat[i] for i in range(3))
    n1 = norm3(e1)
    e1 = tuple(v / n1 for v in e1)
    e2 = (
        yhat[1] * e1[2] - yhat[2] * e1[1],
        yhat[2] * e1[0] - yhat[0] * e1[2],
        yhat[0] * e1[1] - yhat[1] * e1[0],
    )
    return e1, e2


def spheroidal_coords(x: Sequence[float], y: Sequence[float]) -> SpheroidalCoords:
    """Oblate-spheroidal coordinates of x relative to the axis of y != 0.

    phi is the azimuth of the component of x orthogonal to y, measured in a
    deterministic transverse frame, and 0 when x sits on the axis.
    """
    x, y, a, r, axial = _axis_frame(x, y)
    dist = _distance(a, r, axial, NEAR_CIRCLE_REL_TOL * a)
    yhat = tuple(v / a for v in y)
    # x . yhat, not axial: the two can differ in the last bit
    x3 = dot3(x, yhat)
    rho = math.sqrt(max(r * r - x3 * x3, 0.0))
    if rho == 0.0:
        phi = 0.0
    else:
        e1, e2 = _transverse_frame(yhat)
        phi = math.atan2(dot3(x, e2), dot3(x, e1))
    return SpheroidalCoords(p=dist.p, q=dist.q, phi=phi, rho=rho)


def branch_classify(x: Sequence[float], y: Sequence[float], tol: float) -> BranchRegion:
    """Classify a point against the branch circle and the cut disk.

    ON_CIRCLE when |p - iq| < tol (i.e. r ~ a and x3 ~ 0 jointly),
    ON_CUT when the axis component vanishes within tol and r < a,
    REGULAR otherwise.  tol is a length and must be nonnegative.
    """
    tol = _tolerance(tol, "classification tolerance")
    _, _, a, r, x3 = _axis_frame(x, y)
    if _distance(a, r, x3, tol).near_circle:
        return BranchRegion.ON_CIRCLE
    # x3 == 0.0 keeps the cut itself classified when tol is 0
    if (abs(x3) < tol or x3 == 0.0) and r < a:
        return BranchRegion.ON_CUT
    return BranchRegion.REGULAR


def far_zone_distance(x: Sequence[float], y: Sequence[float]) -> complex:
    """Leading far-zone form r - i a cos(theta) with cos(theta) = xhat . yhat.

    No accuracy is guaranteed unless r >> a; the deviation from the exact
    complex distance scales as a^2/r at fixed direction.
    """
    x, y, a, r, _ = _axis_frame(x, y)
    if r == 0.0:
        raise UndefinedDirectionError(
            "far-zone distance needs a direction; the observation offset is zero"
        )
    cos_theta = dot3(x, y) / (r * a)
    return complex(r, -a * cos_theta)


def segment_crosses_cut(
    p0: Sequence[float], p1: Sequence[float], y: Sequence[float]
) -> bool:
    """True when the straight segment p0 -> p1 meets the branch-cut disk of y."""
    p0, y, a, r0, s0 = _axis_frame(p0, y, "segment start")
    p1, _, _, r1, s1 = _axis_frame(p1, y, "segment end")
    if s0 == 0.0 and s1 == 0.0:
        # Segment lies in the cut plane: meets the disk iff it comes within a
        # of the origin.
        d = tuple(b - c for b, c in zip(p1, p0))
        dd = dot3(d, d)
        lam = 0.0 if dd == 0.0 else min(max(-dot3(p0, d) / dd, 0.0), 1.0)
        closest = tuple(c + lam * e for c, e in zip(p0, d))
        return norm3(closest) <= a
    if s0 == 0.0:
        return r0 <= a
    if s1 == 0.0:
        return r1 <= a
    if (s0 > 0.0) == (s1 > 0.0):
        return False
    lam = s0 / (s0 - s1)
    crossing = tuple(c + lam * (e - c) for c, e in zip(p0, p1))
    return norm3(crossing) <= a
