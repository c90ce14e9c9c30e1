import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pulsebeam import (
    AccuracyError,
    BranchRegion,
    DegenerateExtensionError,
    UndefinedDirectionError,
    ValidationError,
    branch_classify,
    complex_distance,
    far_zone_distance,
    spheroidal_coords,
)
from pulsebeam.geometry import (
    _axis_frame,
    _distance_block,
    _rho_block,
    segment_crosses_cut,
)


def test_on_axis_value():
    d = complex_distance((0, 0, 3), (0, 0, 1))
    assert d.p == pytest.approx(3.0, abs=1e-15)
    assert d.q == pytest.approx(1.0, abs=1e-15)
    assert not d.on_cut and not d.near_circle


def test_disk_center_uses_positive_side_limit():
    d = complex_distance((0, 0, 0), (0, 0, 1))
    assert d.p == 0.0
    assert d.q == 1.0
    assert d.on_cut


def test_generic_point_against_principal_root_oracle():
    # oracle: principal square root of 1 - 2i by polar decomposition,
    # p = sqrt((sqrt(5)+1)/2), q = sqrt((sqrt(5)-1)/2)
    d = complex_distance((1, 0, 1), (0, 0, 1))
    assert d.p == pytest.approx(1.272019649514069, rel=1e-15)
    assert d.q == pytest.approx(0.7861513777574233, rel=1e-15)
    assert d.p**2 - d.q**2 == pytest.approx(1.0, abs=1e-14)
    assert d.p * d.q == pytest.approx(1.0, abs=1e-14)


def test_zero_extension_rejected():
    # every entry point shares one frame, so every one refuses y = 0
    calls = (
        complex_distance,
        spheroidal_coords,
        lambda x, y: branch_classify(x, y, 1e-3),
        far_zone_distance,
        lambda x, y: segment_crosses_cut(x, (0, 1, 0), y),
    )
    for call in calls:
        with pytest.raises(DegenerateExtensionError):
            call((1, 0, 0), (0, 0, 0))


def test_sign_flip_across_cut():
    # crossing the disk flips the root's sign
    for delta in (1e-3, 1e-6, 1e-9):
        above = complex_distance((0.5, 0, delta), (0, 0, 1))
        below = complex_distance((0.5, 0, -delta), (0, 0, 1))
        assert above.q > 0 > below.q
        assert above.q == pytest.approx(-below.q, rel=1e-12)
        assert above.p == pytest.approx(below.p, rel=1e-9, abs=1e-12)
    # and the on-cut value is the limit from the positive side
    exact = complex_distance((0.5, 0, 0.0), (0, 0, 1))
    assert exact.q == pytest.approx(math.sqrt(1 - 0.25), rel=1e-12)


def test_near_circle_flag_with_custom_tolerance():
    d = complex_distance((1.0000001, 0, 0), (0, 0, 1), near_circle_tol=1e-3)
    assert d.near_circle
    d = complex_distance((1.0000001, 0, 0), (0, 0, 1))
    assert not d.near_circle  # default guard is 1e-9 * a


@pytest.mark.parametrize("tol", (-1.0, math.nan, math.inf, "x"))
def test_near_circle_tolerance_must_be_finite_and_nonnegative(tol):
    with pytest.raises(ValidationError):
        complex_distance((1, 0, 0), (0, 0, 1), near_circle_tol=tol)


@pytest.mark.parametrize("tol", (None, 0.0, 1e-300))
def test_exact_branch_circle_is_near_circle_whatever_the_tolerance(tol):
    # p = q = 0: |p - iq| < tol fails for tol = 0, the guard must not
    d = complex_distance((1, 0, 0), (0, 0, 1), near_circle_tol=tol)
    assert d.p == 0.0 and d.q == 0.0
    assert d.near_circle


def _block_edge_rows():
    """Rows where the branch structure decides the result: cut, circle, axis, origin."""
    rows = []
    for y in ((0.0, 0.0, 1.0), (0.0, 0.0, 2.5), (0.6, 0.0, 0.8), (-1e-3, 2e-3, 0.0)):
        a = math.hypot(*y)
        yhat = tuple(v / a for v in y)
        # a transverse direction, exactly orthogonal for the first two extensions
        t = (1.0, 0.0, 0.0) if y[0] == 0.0 else (0.0, 0.0, 1.0)
        for scale in (0.0, 0.3, 0.999999999, 1.0, 1.0 + 4e-10, 1.0 - 4e-10, 3.0):
            rows.append((tuple(scale * a * v for v in t), y))  # cut plane: on the cut when r < a
        for lam in (3.0, -3.0, 1e-3, -1e-3, 1.0, -1.0):
            rows.append((tuple(lam * a * v for v in yhat), y))  # on the axis, both ways
        for tilt in (1e-20, -1e-20, 1e-10 * a, 3e-10 * a, -5e-10 * a):
            # within 1e-9 a of the circle, on either side of the disk
            rows.append((tuple(a * v + tilt * w for v, w in zip(t, yhat)), y))
    rows.append(((0.0, 0.0, -0.0), (0.0, 0.0, 1.0)))
    rows.append(((-0.0, -0.0, -0.0), (-1.0, 0.0, 0.0)))
    return rows


def test_distance_block_matches_the_scalar_oracle_bitwise():
    rng = np.random.default_rng(20260807)
    n = 20_000
    y = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-2.0, 2.0, size=(n, 1))
    x = rng.uniform(-5.0, 5.0, size=(n, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(n, 1))
    # one scale per row from 1e-165 to 1e150, so r^2 - a^2 also runs subnormal
    scale = 10.0 ** rng.uniform(-165.0, 150.0, size=(2_000, 1))
    x = np.vstack([x, rng.uniform(-2.0, 2.0, size=(2_000, 3)) * scale])
    y = np.vstack([y, rng.normal(size=(2_000, 3)) * scale])
    n = len(x)
    edges = _block_edge_rows()
    x = np.vstack([x, [row[0] for row in edges]])
    y = np.vstack([y, [row[1] for row in edges]])
    a, r, x3, p, q, on_cut, near_circle = _distance_block(x, y)
    rho = _rho_block(x, y, a, r)
    scalar = []
    flags = []
    for xk, yk in zip(x.tolist(), y.tolist()):
        _, _, ak, rk, x3k = _axis_frame(xk, yk)
        d = complex_distance(xk, yk)
        scalar.append((ak, rk, x3k, d.p, d.q, spheroidal_coords(xk, yk).rho))
        flags.append((d.on_cut, d.near_circle))
    # int64 views: -0.0 and 0.0 differ, and so would any two NaNs
    got = np.column_stack([a, r, x3, p, q, rho]).view(np.int64)
    want = np.array(scalar).view(np.int64)
    mismatched = np.flatnonzero((got != want).any(axis=1))
    assert mismatched.size == 0, f"rows {mismatched[:10]} differ from the scalar path"
    assert np.array_equal(np.column_stack([on_cut, near_circle]), np.array(flags))
    assert (np.abs(r * r - a * a) < sys.float_info.min).sum() > 10
    # the edge rows reach every branch of the scalar path
    tail = slice(n, None)
    assert on_cut[tail].any() and near_circle[tail].any() and (p[tail] == 0.0).any()
    assert (~on_cut[tail] & near_circle[tail] & (p[tail] > 0.0)).any()
    # an explicit guard tolerance goes through the kernel as through complex_distance
    rows = np.r_[0:2_000, n : len(x)]
    for tol in (0.0, 1e-3, 0.5):
        near_circle = _distance_block(x[rows], y[rows], tol)[6]
        want = [complex_distance(x[k], y[k], near_circle_tol=tol).near_circle for k in rows]
        assert np.array_equal(near_circle, want)


@pytest.mark.parametrize(
    "bad,error,message",
    [
        (((1.4e154, 0.0, 0.0), (0.0, 0.0, 1.0)), AccuracyError, None),
        (((1.0, 0.0, 0.0), (0.0, 0.0, 0.0)), DegenerateExtensionError, None),
        (
            ((math.nan, 0.0, 0.0), (0.0, 0.0, 1.0)),
            ValidationError,
            "observation offset components must be finite, got row 1: [nan  0.  0.]",
        ),
        (
            ((1.0, 0.0, 0.0), (0.0, math.inf, 1.0)),
            ValidationError,
            "extension vector components must be finite, got row 1: [ 0. inf  1.]",
        ),
    ],
    ids=["overflow", "zero-extension", "nan-offset", "inf-extension"],
)
def test_distance_block_raises_the_scalar_errors(bad, error, message):
    with pytest.raises(error) as scalar:
        complex_distance(*bad)
    good = ((0.3, 0.2, 0.1), (0.0, 0.0, 1.0))
    x, y = zip(good, bad, good, bad)
    with pytest.raises(error) as block:
        _distance_block(x, y)
    # the block names the first row of a bad input, and otherwise raises the scalar's text
    assert str(block.value) == (message or str(scalar.value))


def test_spheroidal_on_axis():
    sc = spheroidal_coords((0, 0, 3), (0, 0, 1))
    assert sc.rho == 0.0
    assert sc.phi == 0.0
    assert sc.p == pytest.approx(3.0)


def test_spheroidal_on_branch_circle():
    sc = spheroidal_coords((1, 0, 0), (0, 0, 1))
    assert sc.rho == pytest.approx(1.0)
    assert sc.p == 0.0 and sc.q == 0.0


def test_spheroidal_surface_identities_direct_substitution():
    sc = spheroidal_coords((1, 0, 1), (0, 0, 1))
    a = 1.0
    x3 = 1.0
    assert sc.rho == pytest.approx(1.0, rel=1e-15)
    res1 = sc.rho**2 / (a**2 + sc.p**2) + x3**2 / sc.p**2 - 1.0
    res2 = sc.rho**2 / (a**2 - sc.q**2) - x3**2 / sc.q**2 - 1.0
    assert abs(res1) < 1e-10
    assert abs(res2) < 1e-10


def test_spheroidal_azimuth_is_deterministic():
    a = spheroidal_coords((1, 0, 1), (0, 0, 1))
    b = spheroidal_coords((0, 1, 1), (0, 0, 1))
    assert abs(abs(a.phi - b.phi) - math.pi / 2) < 1e-12


def test_branch_classify_examples():
    assert branch_classify((1, 0, 0), (0, 0, 1), 1e-9) is BranchRegion.ON_CIRCLE
    assert branch_classify((0.5, 0, 0), (0, 0, 1), 1e-9) is BranchRegion.ON_CUT
    assert branch_classify((0, 0, 5), (0, 0, 1), 1e-9) is BranchRegion.REGULAR
    # tol = 0: the cut disk itself (x3 exactly 0) still classifies as ON_CUT,
    # and the band around it within tol does not
    assert branch_classify((0.5, 0, 0), (0, 0, 1), 0.0) is BranchRegion.ON_CUT
    assert branch_classify((0.5, 0, 1e-12), (0, 0, 1), 0.0) is BranchRegion.REGULAR
    assert branch_classify((0.5, 0, 1e-12), (0, 0, 1), 1e-9) is BranchRegion.ON_CUT
    with pytest.raises(ValidationError):
        branch_classify((1, 0, 0), (0, 0, 1), -1.0)


def test_far_zone_distance_values():
    assert far_zone_distance((0, 0, 100), (0, 0, 1)) == pytest.approx(100 - 1j)
    assert far_zone_distance((100, 0, 0), (0, 0, 1)) == pytest.approx(100 + 0j)
    with pytest.raises(UndefinedDirectionError):
        far_zone_distance((0, 0, 0), (0, 0, 1))


def test_far_zone_exact_on_axis():
    # on the axis the expansion terminates: r~ = x3 - i a exactly
    exact = complex_distance((0, 0, 10), (0, 0, 1)).value
    assert abs(exact - far_zone_distance((0, 0, 10), (0, 0, 1))) < 1e-13


def test_far_zone_error_magnitude_and_scaling():
    # oracle: |complex_distance - far_zone| at 60 degrees off axis, a = 1;
    # the deviation is a^2 sin^2(theta)/(2r) to leading order
    theta = math.pi / 3
    y = (0, 0, 1)

    def err(r):
        x = (r * math.sin(theta), 0.0, r * math.cos(theta))
        return abs(complex_distance(x, y).value - far_zone_distance(x, y))

    assert err(10.0) == pytest.approx(0.037523171636310082, rel=1e-12)
    for r in (50.0, 100.0):
        ratio = err(2 * r) / err(r)
        assert 0.4 <= ratio <= 0.6


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(*[st.floats(-5, 5) for _ in range(3)]),
    st.tuples(*[st.floats(-2, 2) for _ in range(3)]),
)
def test_defining_identities_property(x, y):
    a = math.hypot(*y)
    r = math.hypot(*x)
    if a < 1e-3:
        return
    x3 = sum(c * d for c, d in zip(x, y)) / a
    d = complex_distance(x, y)
    assert abs((d.p**2 - d.q**2) - (r * r - a * a)) <= 1e-12 * (r + a) ** 2
    assert abs(d.p * d.q - a * x3) <= 1e-12 * max(a * r, 1e-12)
    assert d.p <= r * (1 + 1e-13) + 1e-300
    assert abs(d.q) <= a * (1 + 1e-13)


def test_bounds_saturate_only_on_axis():
    rng = np.random.default_rng(7)
    for _ in range(500):
        yhat = rng.normal(size=3)
        yhat /= np.linalg.norm(yhat)
        a = float(rng.uniform(0.2, 2.0))
        lam = float(rng.uniform(-3.0, 3.0))
        on_axis = complex_distance(tuple(lam * yhat), tuple(a * yhat))
        assert abs(on_axis.p - abs(lam)) <= 1e-12 * max(abs(lam), a)
        assert abs(abs(on_axis.q) - a) <= 1e-12 * a
        perp = np.cross(yhat, rng.normal(size=3))
        perp /= np.linalg.norm(perp)
        oblique = complex_distance(tuple(lam * yhat + 0.7 * perp), tuple(a * yhat))
        r = math.hypot(lam, 0.7)
        assert r - oblique.p > 0.0
        assert a - abs(oblique.q) > 0.0


def test_segment_crosses_cut():
    y = (0, 0, 1)
    assert segment_crosses_cut((0.3, 0, -0.01), (0.3, 0, 0.01), y)
    assert not segment_crosses_cut((2.0, 0, -0.01), (2.0, 0, 0.01), y)
    assert not segment_crosses_cut((0.3, 0, 0.01), (0.3, 0, 0.03), y)
    # in-plane segment meeting the disk
    assert segment_crosses_cut((-2, 0, 0), (2, 0, 0), y)
    assert not segment_crosses_cut((-2, 3, 0), (2, 3, 0), y)
