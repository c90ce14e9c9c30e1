"""The array transcriptions of CPython's float arithmetic against the interpreter, bit for bit.

Every comparison is of int64 views, so -0.0 and 0.0 differ, and every test
runs with warnings as errors: the functions keep numpy's floating-point
warnings to themselves.
"""

import cmath
import math

import numpy as np
import pytest

from pulsebeam import _rows
from pulsebeam._rows import (
    _dot_rows,
    _hypot_rows,
    _norm_rows,
    _product_rows,
    _quot_rows,
    _sqrt_rows,
)
from pulsebeam.geometry import _distance_block
from pulsebeam.spacetime import dot3, norm3

pytestmark = pytest.mark.filterwarnings("error")

# signed zeros, subnormals and the smallest normal floats
SMALL = [0.0, -0.0, 5e-324, -5e-324, 1.5e-323, -1e-310, 2.0**-1022, -(2.0**-1022)]


def _floats(rng, n, width):
    """(n, width) finite floats of both signs, from 1e-320 to 1e308, 2% of them from SMALL.

    Half the rows share one log-uniform scale; in the other half each part
    has its own, so parts often differ by hundreds of binades.
    """
    scale = np.empty((n, width))
    scale[: n // 2] = 10.0 ** rng.uniform(-320.0, 308.0, size=(n // 2, 1))
    scale[n // 2 :] = 10.0 ** rng.uniform(-320.0, 308.0, size=(n - n // 2, width))
    rows = rng.choice([-1.0, 1.0], size=(n, width)) * scale
    hit = rng.random(size=rows.shape) < 0.02
    rows[hit] = rng.choice(SMALL, size=hit.sum())
    return rows


def _mismatched(got, want):
    """Indices of the rows where got and want differ in any bit."""
    want = np.asarray(want, dtype=float)
    return np.flatnonzero(np.asarray(got).view(np.int64) != want.view(np.int64))


@pytest.mark.parametrize("width", (2, 3))
def test_hypot_rows_matches_math_hypot_bitwise(width):
    rng = np.random.default_rng(20261020 + width)
    n = 100_000
    # half the rows share one scale, half scale each part alone, from the
    # subnormals to near overflow, so parts often differ by hundreds of
    # binades and rows run through both the array and the math.hypot route
    rows = rng.normal(size=(n, width)) * 10.0 ** rng.uniform(-320.0, 300.0, size=(n, 1))
    rows[n // 2 :] = rng.normal(size=(n // 2, width)) * 10.0 ** rng.uniform(
        -320.0, 300.0, size=(n // 2, width)
    )
    specials = [0.0, -0.0, 5e-324, 1.5e-323, 2.0**-1022, 2.0**-1000, 2.0**-1001]
    specials += [1e300, 1.7e308, math.inf, -math.inf, math.nan]
    hit = rng.random(size=rows.shape) < 0.02
    rows[hit] = rng.choice(specials, size=hit.sum())
    got = _hypot_rows(*rows.T)
    want = np.array([math.hypot(*row) for row in rows.tolist()])
    # int64 views: -0.0 and 0.0 differ, and so would any two NaNs
    mismatched = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert mismatched.size == 0, f"rows {rows[mismatched[:5]]} differ from math.hypot"
    big = np.abs(rows).max(axis=1)
    assert (big < 2.0**-1000).sum() > 1000 and (big > 1e300).sum() > 100
    assert np.isinf(got).sum() > 100 and np.isnan(got).sum() > 100


def test_hypot_rows_calls_math_hypot_only_for_rows_it_does_not_transcribe(monkeypatch):
    calls = []
    real = math.hypot

    def hypot(*row):
        calls.append(row)
        return real(*row)

    monkeypatch.setattr(_rows.math, "hypot", hypot)
    rng = np.random.default_rng(5)
    # every row finite with its largest part above 2**-1000: no call
    x = rng.normal(size=(5_000, 3)) * 10.0 ** rng.uniform(-150.0, 150.0, size=(5_000, 1))
    _distance_block(x, rng.normal(size=(5_000, 3)))
    _hypot_rows(*x.T)
    assert calls == []
    # zero, below 2**-1000, not finite
    rare = [(0.0, -0.0, 0.0), (1e-310, 0.0, 2e-305), (math.inf, 1.0, math.nan), (math.nan, 1, 0)]
    _hypot_rows(*np.array([(1.0, 2.0, 3.0), *rare]).T)
    assert len(calls) == len(rare) and calls[:2] == rare[:2]


def test_norm_rows_matches_norm3_bitwise():
    v = _floats(np.random.default_rng(31), 100_000, 3)
    want = [norm3(row) for row in v.tolist()]
    mismatched = _mismatched(_norm_rows(v), want)
    assert mismatched.size == 0, f"rows {v[mismatched[:5]]} differ from norm3"
    # rows through the array route and through math.hypot itself
    big = np.abs(v).max(axis=1)
    assert (big < 2.0**-1000).sum() > 100 and (big > 1e300).sum() > 100


def test_dot_rows_matches_dot3_bitwise():
    rng = np.random.default_rng(32)
    u, v = _floats(rng, 100_000, 3), _floats(rng, 100_000, 3)
    want = [dot3(a, b) for a, b in zip(u.tolist(), v.tolist())]
    mismatched = _mismatched(_dot_rows(u, v), want)
    assert mismatched.size == 0, f"rows {u[mismatched[:5]]} differ from dot3"
    # products overflow, underflow to signed zeros, and cancel to nan
    assert np.isinf(want).any() and np.isnan(want).any() and (np.array(want) == 0.0).any()


def test_sqrt_rows_matches_cmath_sqrt_bitwise_on_finite_rows():
    z = _floats(np.random.default_rng(33), 100_000, 2)
    # rows on the axes, where the C library's csqrt rounds differently, and the origin,
    # where the root divides 0 by 0 before it is overwritten
    zeros = np.random.default_rng(34).choice([0.0, -0.0], size=(2, 2_000))
    z[:2_000, 0] = zeros[0]
    z[2_000:4_000, 1] = zeros[1]
    re, im = z.T
    roots = [cmath.sqrt(complex(*row)) for row in z.tolist()]
    got_re, got_im = _sqrt_rows(re, im)
    mismatched = np.union1d(
        _mismatched(got_re, [w.real for w in roots]), _mismatched(got_im, [w.imag for w in roots])
    )
    assert mismatched.size == 0, f"rows {z[mismatched[:5]]} differ from cmath.sqrt"
    tiny = (np.abs(re) < 2.0**-1022) & (np.abs(im) < 2.0**-1022)
    assert tiny.sum() > 100 and ((re == 0.0) & (im == 0.0)).sum() > 10
    assert (re < 0.0).sum() > 1000 and (im < 0.0).sum() > 1000


def test_product_rows_matches_complex_multiplication_bitwise():
    rng = np.random.default_rng(35)
    a, b = _floats(rng, 100_000, 2), _floats(rng, 100_000, 2)
    want = [complex(*x) * complex(*y) for x, y in zip(a.tolist(), b.tolist())]
    got_re, got_im = _product_rows(a[:, 0], a[:, 1], b[:, 0], b[:, 1])
    mismatched = np.union1d(
        _mismatched(got_re, [w.real for w in want]), _mismatched(got_im, [w.imag for w in want])
    )
    assert mismatched.size == 0, f"rows {a[mismatched[:5]]} times {b[mismatched[:5]]} differ"


@pytest.mark.parametrize("numerator", ("rows", "one"))
def test_quot_rows_matches_complex_division_bitwise_where_finite(numerator):
    rng = np.random.default_rng(36)
    a, b = _floats(rng, 100_000, 2), _floats(rng, 100_000, 2)
    # zero divisors, where CPython raises ZeroDivisionError
    b[:4] = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)]
    if numerator == "one":
        # the propagator's reciprocal: the numerator 1 + 0i broadcast as two floats
        a[:] = (1.0, 0.0)
        got_re, got_im = _quot_rows(1.0, 0.0, b[:, 0], b[:, 1])
    else:
        got_re, got_im = _quot_rows(a[:, 0], a[:, 1], b[:, 0], b[:, 1])
    want = []
    for x, y in zip(a.tolist(), b.tolist()):
        try:
            want.append(complex(*x) / complex(*y))
        except ZeroDivisionError:
            want.append(complex(math.nan, math.nan))
    finite = np.array([cmath.isfinite(w) for w in want])
    kept = np.flatnonzero(finite)
    mismatched = np.union1d(
        _mismatched(got_re[kept], [want[k].real for k in kept]),
        _mismatched(got_im[kept], [want[k].imag for k in kept]),
    )
    assert mismatched.size == 0, f"rows {b[kept[mismatched[:5]]]} differ as divisors"
    assert finite.sum() > 50_000
