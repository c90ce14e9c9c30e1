"""Independent reference values the benchmark checks the program against.

None of this code calls pulsebeam: the complex distance and propagator are
numpy closed forms, the Gaussian analytic signal uses the Faddeeva
function w(z) (scipy.special.wofz; Poppe & Wijers, ACM TOMS 16, 1990),
and the sampled signal uses the exact Cauchy integral of its
piecewise-linear interpolant.  Tolerances are the library's own accuracy
contracts (DEFAULT_REL_TOL 1e-9 for analytic signals, 1e-6 for boundary
jumps, 1e-3 for wave residuals at h = 1e-2, as in acceptance check 4).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import wofz

# Guard radius around the branch circle, relative to the extension radius
# (the program's documented near-circle tolerance).
NEAR_CIRCLE_REL_TOL = 1e-9

PROPAGATOR_REL_TOL = 1e-12
SIGNAL_REL_TOL = 1e-9
SIGNAL_ABS_FLOOR = 1e-12
JUMP_REL_TOL = 1e-6
JUMP_ABS_FLOOR = 1e-9
RESIDUAL_RATIO_MAX = 1e-3

OK, ON_CUT, SINGULAR = "ok", "on_cut", "singular"


def radial_root(x: np.ndarray, y: np.ndarray):
    """sqrt(r^2 - a^2 - 2 i a x3) for rows of x against extension y != 0.

    Returns (rt, status) where rt = p - i q on the branch p >= 0, cut
    points take the limit from the positive side of the axis (rt = -i q),
    and status classifies each point as ok, on_cut or singular (within
    1e-9 a of the branch circle, where rt is set to nan).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    a = math.sqrt(float(y @ y))
    r = np.sqrt(np.einsum("ij,ij->i", x, x))
    axial = x @ y / a
    on_cut = (axial == 0.0) & (r < a)
    rt = np.sqrt((r * r - a * a) - 2j * a * axial)
    rt = np.where(on_cut, -1j * np.sqrt(np.maximum(a * a - r * r, 0.0)), rt)
    singular = np.abs(rt) < NEAR_CIRCLE_REL_TOL * a
    status = np.where(singular, SINGULAR, np.where(on_cut, ON_CUT, OK))
    return np.where(singular, np.nan, rt), status


def propagator(rt: np.ndarray, t: float, s: float) -> np.ndarray:
    """Extended impulse field 1/(8 i pi^2 rt (tau - rt)) with tau = t - i s."""
    tau = complex(t, -s)
    with np.errstate(invalid="ignore"):
        return 1.0 / (8j * math.pi**2 * rt * (tau - rt))


def gaussian_signal(z, center: float, width: float, amplitude: float):
    """Analytic signal of amplitude*exp(-(t-center)^2/(2 width^2)) off the real axis.

    With u = (z - center)/(width sqrt 2): (A/2) w(-u) below the axis and
    -(A/2) w(u) above it.
    """
    z = np.asarray(z, dtype=complex)
    u = (z - center) / (width * math.sqrt(2.0))
    below = z.imag < 0.0
    return np.where(below, 0.5 * amplitude * wofz(-u), -0.5 * amplitude * wofz(u))


def gaussian_value(t: float, center: float, width: float, amplitude: float) -> float:
    v = (t - center) / width
    return amplitude * math.exp(-0.5 * v * v)


def sampled_signal(z: complex, times, values) -> complex:
    """Exact Cauchy integral of a piecewise-linear signal at non-real z.

    Each segment [t0, t1] with slope m contributes
    (v0 + m (z - t0)) Log((z - t0)/(z - t1)) - m (t1 - t0); the principal
    Log of that ratio does not cross its cut off the real axis.
    """
    t0 = np.asarray(times[:-1], dtype=float)
    t1 = np.asarray(times[1:], dtype=float)
    v0 = np.asarray(values[:-1], dtype=float)
    slope = (np.asarray(values[1:], dtype=float) - v0) / (t1 - t0)
    parts = (v0 + slope * (z - t0)) * np.log((z - t0) / (z - t1)) - slope * (t1 - t0)
    return complex(parts.sum()) / (2j * math.pi)


def wavelet_scale(amplitude: float, rt) -> np.ndarray:
    """Absolute error floor of an analytic-signal wavelet value."""
    return SIGNAL_ABS_FLOOR * abs(amplitude) / (4.0 * math.pi * np.abs(rt))


def close(value, reference, rel_tol: float, abs_floor=0.0):
    """Elementwise |value - reference| <= rel_tol |reference| + abs_floor."""
    return np.abs(np.asarray(value) - reference) <= rel_tol * np.abs(reference) + abs_floor


def link_geometry(link: dict):
    """Separation event and summed extension of a link description."""
    emitter, receiver = link["emitter"], link["receiver"]
    sep = [receiver["center"][i] - emitter["center"][i] for i in range(4)]
    ext = [emitter["extent"][i] + receiver["extent"][i] for i in range(4)]
    return sep, ext


def link_metrics(link: dict) -> dict:
    """Durations, bandwidths and aperture from the raw endpoint extents."""

    def duration(extent):
        return extent[3] - math.sqrt(sum(c * c for c in extent[:3]))

    _, ext = link_geometry(link)
    emit = duration(link["emitter"]["extent"])
    receive = duration(link["receiver"]["extent"])
    total = duration(ext)
    return {
        "emit_duration": emit,
        "receive_duration": receive,
        "duration": total,
        "emit_bandwidth": 1.0 / emit if emit > 0.0 else math.inf,
        "receive_bandwidth": 1.0 / receive if receive > 0.0 else math.inf,
        "bandwidth": 1.0 / total,
        "aperture": math.sqrt(sum(c * c for c in ext[:3])),
    }


def link_wavelet_root(link: dict) -> tuple:
    """(rt, z) for the link's wavelet: rt = p - i q and z = tau - rt."""
    sep, ext = link_geometry(link)
    rt, status = radial_root(np.array([sep[:3]]), np.array(ext[:3]))
    if status[0] != OK:
        raise ValueError("generated link lands on the branch cut or circle")
    rt = complex(rt[0])
    return rt, complex(sep[3], -ext[3]) - rt
