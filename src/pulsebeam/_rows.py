"""CPython's float arithmetic on arrays, row by row and bit for bit.

The block kernels `geometry._distance_block` and
`propagator._impulse_field_block` promise, on every row, the bits of the
scalar path they stand in for, and that path does its arithmetic in the
interpreter: `math.hypot`, `cmath.sqrt` and complex `*` and `/`.  This
module transcribes CPython 3.11.7's code for them to arrays of real and
imaginary parts, operation by operation in the interpreter's order, so
that no other module has to know how the interpreter rounds.  numpy's own
versions round differently:

- `np.hypot` takes two parts, and nesting it over three rounds twice;
  `math.hypot` sums the compensated squares of all parts and corrects the
  root once (`_hypot_rows`).
- complex `np.sqrt` is the C library's `csqrt`, which rounds the
  imaginary part differently, for instance whenever the real part is 0
  (`_sqrt_rows`).
- complex `*` in numpy's SIMD loops fuses a multiply-add where the CPU
  has one, so a part is rounded once where CPython rounds twice
  (`_product_rows`).
- complex `/` in numpy multiplies by a rounded reciprocal of Smith's
  scale, where CPython divides by the scale (`_quot_rows`).

The tests compare each function with its scalar twin bit for bit, so an
interpreter that rounds differently fails them.  Every function takes and
returns float arrays (the product and the quotient also take a float as a
constant part) and keeps numpy's floating-point warnings to itself.
"""

from __future__ import annotations

import math
import sys

import numpy as np

# `_hypot_rows`: the Veltkamp splitter 2**27 + 1, and the largest part below
# which a row goes through math.hypot itself (near 2**-1024 the scale 2**-e
# overflows, and CPython rescales by the smallest normal float first).
_VELTKAMP = 134217729.0
_HYPOT_SMALL = 2.0**-1000


def _hypot_rows(*columns: np.ndarray) -> np.ndarray:
    """math.hypot(*row) for every row of equal-length 1-d arrays, bit for bit.

    `vector_norm` (Modules/mathmodule.c) transcribed to arrays: the parts
    are scaled by 2**-e, e the frexp exponent of the largest; each is
    split at 2**27 + 1 (Veltkamp) so that its square is the exact sum
    hi*hi + 2*hi*lo + lo*lo; the squares are added to 1.0 with Neumaier's
    compensation; and the root h of the sum gets one differential
    correction from the exact residual of h*h.  Rows whose largest part
    is 0, below 2**-1000 or not finite go through `math.hypot` itself.
    """
    parts = [np.abs(column) for column in columns]
    big = parts[0]
    for part in parts[1:]:
        big = np.maximum(big, part)
    with np.errstate(all="ignore"):
        scale = np.ldexp(1.0, -np.frexp(big)[1])
        total = np.ones_like(big)
        frac1, frac2, frac3 = (np.zeros_like(big) for _ in range(3))
        for part in parts:
            hi, lo = _split(part * scale)
            total = _add(total, hi * hi, frac1)
            total = _add(total, 2.0 * hi * lo, frac2)
            frac3 += lo * lo
        h = np.sqrt(total - 1.0 + (frac1 + frac2 + frac3))
        hi, lo = _split(h)
        total = _add(total, -hi * hi, frac1)
        total = _add(total, -2.0 * hi * lo, frac2)
        total = _add(total, -lo * lo, frac3)
        out = (h + (total - 1.0 + (frac1 + frac2 + frac3)) / (2.0 * h)) / scale
    rare = np.flatnonzero(~((big >= _HYPOT_SMALL) & (big < math.inf)))
    if len(rare):
        rows = zip(*(column[rare].tolist() for column in columns))
        out[rare] = [math.hypot(*row) for row in rows]
    return out


def _split(x: np.ndarray):
    """Veltkamp's split x = hi + lo into halves whose products are exact (barring underflow)."""
    t = x * _VELTKAMP
    hi = t - (t - x)
    return hi, x - hi


def _add(total: np.ndarray, term: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """total + term, its rounding error added to frac in place (Neumaier)."""
    new = total + term
    np.add(frac, (total - new) + term, out=frac)
    return new


def _norm_rows(v: np.ndarray) -> np.ndarray:
    """`spacetime.norm3`, which is `math.hypot`, of every row of an (n, 3) array."""
    return _hypot_rows(v[:, 0], v[:, 1], v[:, 2])


def _dot_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """`spacetime.dot3` of every row pair of two (n, 3) arrays, summed in its order."""
    with np.errstate(all="ignore"):
        return u[:, 0] * v[:, 0] + u[:, 1] * v[:, 1] + u[:, 2] * v[:, 2]


def _sqrt_rows(re: np.ndarray, im: np.ndarray):
    """Real and imaginary parts of cmath.sqrt(complex(re, im)) on every finite row.

    `cmath_sqrt_impl`: s = 2 sqrt(|re|/8 + hypot(|re|/8, |im|/8)), or a
    rescaled form when both parts are below the smallest normal float,
    and d = |im|/(2 s); the root is (s, d) for re >= 0 and (d, s)
    otherwise, its imaginary part signed like im, and (0, im) when both
    parts are 0.  `np.hypot` is the C library's hypot, as in cmath.  A
    row with an infinite or NaN part is outside the contract: cmath
    treats it by a table of special values, and this function does not
    (sqrt(inf + inf j) comes out as inf + nan j, where cmath gives
    inf + inf j), so a caller refuses a root that is not finite.
    """
    with np.errstate(all="ignore"):
        ax = np.abs(re)
        ay = np.abs(im)
        ax8 = ax / 8.0
        s = 2.0 * np.sqrt(ax8 + np.hypot(ax8, ay / 8.0))
        tiny = np.flatnonzero((ax < sys.float_info.min) & (ay < sys.float_info.min))
        if len(tiny):
            up = np.ldexp(ax[tiny], 53)
            s[tiny] = np.ldexp(np.sqrt(up + np.hypot(up, np.ldexp(ay[tiny], 53))), -27)
        d = ay / (2.0 * s)
    right = re >= 0.0
    real = np.where(right, s, d)
    imag = np.copysign(np.where(right, d, s), im)
    origin = (re == 0.0) & (im == 0.0)
    real[origin] = 0.0
    imag[origin] = im[origin]
    return real, imag


def _product_rows(ar, ai, br, bi):
    """`_Py_c_prod`, the complex product (ar + i ai)(br + i bi): (ar br - ai bi, ar bi + ai br)."""
    with np.errstate(all="ignore"):
        return ar * br - ai * bi, ar * bi + ai * br


def _quot_rows(ar, ai, br, bi):
    """`_Py_c_quot`, the complex quotient (ar + i ai)/(br + i bi), on every row.

    Smith's division (R. L. Smith, "Algorithm 116: Complex division",
    CACM 5(8), 1962), as CPython writes it: numerator and denominator are
    divided through by the larger part of the divisor.  A zero divisor,
    where CPython raises ZeroDivisionError, gives a meaningless row here;
    the caller finds and refuses it.
    """
    with np.errstate(all="ignore"):
        by_re = np.abs(br) >= np.abs(bi)
        ratio = np.where(by_re, bi / br, br / bi)
        scale = np.where(by_re, br + bi * ratio, br * ratio + bi)
        re = np.where(by_re, ar + ai * ratio, ar * ratio + ai) / scale
        im = np.where(by_re, ai - ar * ratio, ai * ratio - ar) / scale
    return re, im
