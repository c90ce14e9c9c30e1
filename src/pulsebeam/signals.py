"""Driving signals and their analytic continuations to complex time.

A real driving signal g0(t) extends to an analytic signal

    g(tau) = (1/(2 pi i)) integral g0(t') / (tau - t') dt',   tau = t - i s,

holomorphic off the support of g0; the lower half-plane (s > 0) carries
the positive-frequency content and the upper half-plane the negative-
frequency content.  Equivalently, with the transform convention

    ghat0(w) = integral g0(t) exp(+i w t) dt,

the same function is recovered from a one-sided spectral integral

    g(t - i s) = (Sgn s / (2 pi)) integral Theta(w s) exp(-i w (t - i s)) ghat0(w) dw,

which this module evaluates as an independent second route.  The two
routes agree identically on the Cauchy kernel (g0 = delta), which fixes
both the transform convention and the overall sign.

Since g0 is real, g(conj tau) = -conj g(tau) (Schwarz reflection): the
upper half-plane mirrors the lower one.  A boundary-value jump
g(t - i0+) - g(t + i0+) is therefore 2 Re g(t - i0+), and every jump
here (`jump_of_signal`, and `wavelet.boundary_jump` through the shared
`_jump_limit`) evaluates one side per rung of its ladder.  The identity
is exact in floating point as well, up to the sign of a zero part (see
`_jump_limit`).

Three signal families are provided, each evaluating its own analytic
signal and spectrum: derivatives of the delta impulse (closed forms),
Gaussian pulses (Cauchy integral by adaptive Gauss-Kronrod quadrature on
the truncated support, run well below the requested target so the
achieved estimate can be checked against it), and sampled waveforms with
linear interpolation between samples and zero outside (the exact Cauchy
integral of the interpolant, a sum of one logarithm per segment, with a
rounding-error bound checked against the same target).

Every quadrature goes through `_quad_complex`, which integrates the real
and then the imaginary part and evaluates the complex integrand once per
node: the real pass stores each node's imaginary part and the imaginary
pass reads it back (see `_quad_complex`).  The Gaussian hands it an
integrand that takes one Python frame per node.

scipy is used for quadrature only, by the Gaussian analytic signal and
`spectral_signal`, and only its compiled QUADPACK is loaded, at the first
quadrature: the module attribute `quad` is bound on first use to a thin
function over `scipy.integrate._quadpack`, loaded without running the
`scipy.integrate` package (which imports optimize, sparse, linalg and
special).  Importing pulsebeam, or a CLI call that never integrates, does
not import scipy at all.
"""

from __future__ import annotations

import bisect
import cmath
import csv
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

from .errors import (
    AccuracyError,
    DomainError,
    NonAnalyticPointError,
    ValidationError,
)
from .spacetime import as_scalar

# Fraction of the peak below which a signal is treated as numerically zero
# when truncating quadrature supports.
SUPPORT_FLOOR = 1e-14

# Accuracy target (relative) of every quadrature-backed evaluation.
DEFAULT_REL_TOL = 1e-9

# Geometric epsilon ladder (ratio 2) of every boundary-jump extrapolation.
DEFAULT_EPS_LADDER = (0.1, 0.05, 0.025, 0.0125, 0.00625, 0.003125)

# Highest impulse-derivative order: n! overflows a float beyond it.
MAX_DELTA_ORDER = 170

_TWO_PI = 2.0 * math.pi

# A sampled segment with |u| = |length / (tau - t0)| below this radius is
# summed as a power series in u, which avoids the cancellation in
# Log(1/(1 - u))/u - 1 (see _psi_series).
_SERIES_RADIUS = 1e-2

# Roundings charged per term of the sampled rounding-error bound.
_ROUNDING = 8.0 * sys.float_info.epsilon


class DrivingSignal:
    """Base class of the admissible driving-signal variants."""

    def amplitude_at(self, t: float) -> float:
        """Pointwise value g0(t)."""
        raise NotImplementedError

    def effective_support(self) -> Tuple[float, float]:
        """Interval outside which the signal is (numerically) zero."""
        raise NotImplementedError

    def peak_scale(self) -> float:
        """Magnitude scale of the signal, used for error thresholds."""
        raise NotImplementedError

    def is_continuous_at(self, t: float) -> bool:
        raise NotImplementedError

    def analytic(self, z: complex) -> complex:
        """Analytic signal g(z) at a finite z off the support (analytic_signal checks z)."""
        raise NotImplementedError

    def spectrum(self, omega: float) -> complex:
        """ghat0(omega) = integral g0(t) exp(+i omega t) dt."""
        raise NotImplementedError

    def spectral_limit(self, damping: float) -> float:
        """Frequency beyond which exp(-w*damping) * ghat0(w) is negligible."""
        return 45.0 / damping


@dataclass(frozen=True)
class DeltaDerivative(DrivingSignal):
    """The distribution d^n/dt^n of a unit impulse at t = 0."""

    order: int = 0

    def __post_init__(self):
        is_int = isinstance(self.order, int) and not isinstance(self.order, bool)
        if not (is_int and 0 <= self.order <= MAX_DELTA_ORDER):
            raise ValidationError(
                f"impulse-derivative order must be an integer in [0, {MAX_DELTA_ORDER}], "
                f"got {self.order!r}"
            )

    def amplitude_at(self, t: float) -> float:
        if float(t) == 0.0:
            raise DomainError("an impulse derivative has no pointwise value at t = 0")
        return 0.0

    def effective_support(self) -> Tuple[float, float]:
        return (0.0, 0.0)

    def peak_scale(self) -> float:
        return 1.0

    def is_continuous_at(self, t: float) -> bool:
        return float(t) != 0.0

    def analytic(self, z: complex) -> complex:
        """(-1)^n n! / (2 pi i z^(n+1)); inf where the power or the quotient leaves the floats."""
        n = self.order
        try:
            return (-1.0) ** n * math.factorial(n) / (2j * math.pi * z ** (n + 1))
        except (OverflowError, ZeroDivisionError):
            return complex(math.inf)

    def spectrum(self, omega: float) -> complex:
        return (-1j * omega) ** self.order

    def spectral_limit(self, damping: float) -> float:
        # |ghat0| grows like w^n, which pushes the cut-off out
        upper = super().spectral_limit(damping)
        if self.order > 0:
            for _ in range(4):
                upper = (45.0 + self.order * math.log(max(upper, 1.0))) / damping
        return upper


@dataclass(frozen=True)
class GaussianPulse(DrivingSignal):
    """g0(t) = amplitude * exp(-(t - center)^2 / (2 width^2))."""

    center: float = 0.0
    width: float = 1.0
    amplitude: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "center", as_scalar(self.center, "pulse center"))
        object.__setattr__(self, "width", as_scalar(self.width, "pulse width"))
        object.__setattr__(self, "amplitude", as_scalar(self.amplitude, "pulse amplitude"))
        if self.width <= 0.0:
            raise ValidationError(f"pulse width must be positive, got {self.width}")

    def amplitude_at(self, t: float) -> float:
        u = (float(t) - self.center) / self.width
        return self.amplitude * math.exp(-0.5 * u * u)

    def effective_support(self) -> Tuple[float, float]:
        half = self.width * math.sqrt(-2.0 * math.log(SUPPORT_FLOOR))
        return (self.center - half, self.center + half)

    def peak_scale(self) -> float:
        return abs(self.amplitude)

    def is_continuous_at(self, t: float) -> bool:
        return True

    def analytic(self, z: complex) -> complex:
        # amplitude_at's operations, then the Cauchy kernel's quotient, on
        # the float nodes quad passes: one frame per node, without the
        # method call and float() of amplitude_at
        center, width, amplitude = self.center, self.width, self.amplitude
        exp = math.exp

        def storing(imag: _ImagParts) -> Callable[[float], float]:
            def real(t: float) -> float:
                u = (t - center) / width
                value = amplitude * exp(-0.5 * u * u) / (z - t)
                imag[t] = value.imag
                return value.real

            return real

        return _cauchy_integral(self, z, storing, self.effective_support())

    def spectrum(self, omega: float) -> complex:
        sig = self.width
        return (
            self.amplitude
            * sig
            * math.sqrt(_TWO_PI)
            * cmath.exp(complex(-0.5 * sig * sig * omega * omega, omega * self.center))
        )

    def spectral_limit(self, damping: float) -> float:
        # ghat0 itself decays like exp(-(width*w)^2/2).
        return min(super().spectral_limit(damping), math.sqrt(2.0 * math.log(1e18)) / self.width)


@dataclass(frozen=True)
class SampledSignal(DrivingSignal):
    """Piecewise-linear interpolation of samples, zero outside the sampled range."""

    times: Tuple[float, ...]
    values: Tuple[float, ...]

    def __post_init__(self):
        times = tuple(as_scalar(t, "sample time") for t in self.times)
        values = tuple(as_scalar(v, "sample value") for v in self.values)
        if len(times) != len(values):
            raise ValidationError(
                f"sample times and values must have equal length, got {len(times)} and {len(values)}"
            )
        if len(times) < 2:
            raise ValidationError("a sampled signal needs at least 2 samples")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValidationError("sample times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_csv(cls, path) -> "SampledSignal":
        """Load from a two-column CSV (time,value); an optional header row is skipped.

        A leading UTF-8 byte-order mark is dropped, so it cannot turn the
        first sample into a header row.
        """
        try:
            with open(path, newline="", encoding="utf-8-sig") as handle:
                reader = csv.reader(handle)
                rows = list(reader)
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path} is not UTF-8 text: {exc}") from None
        except csv.Error as exc:  # a field over csv.field_size_limit(), say
            raise ValidationError(f"{path}: line {reader.line_num} is not CSV: {exc}") from None
        times, values = [], []
        for row_index, row in enumerate(rows):
            if not row:
                continue
            if len(row) != 2:
                raise ValidationError(
                    f"{path}: row {row_index + 1} must have exactly 2 columns, got {len(row)}"
                )
            try:
                t, v = float(row[0]), float(row[1])
            except ValueError:
                if row_index == 0:
                    continue  # header row
                raise ValidationError(
                    f"{path}: row {row_index + 1} is not numeric: {row!r}"
                ) from None
            times.append(t)
            values.append(v)
        return cls(tuple(times), tuple(values))

    def amplitude_at(self, t: float) -> float:
        t = float(t)
        if t < self.times[0] or t > self.times[-1]:
            return 0.0
        k = bisect.bisect_right(self.times, t) - 1
        if k >= len(self.times) - 1:
            return self.values[-1]
        t0, t1 = self.times[k], self.times[k + 1]
        v0, v1 = self.values[k], self.values[k + 1]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)

    def effective_support(self) -> Tuple[float, float]:
        return (self.times[0], self.times[-1])

    def peak_scale(self) -> float:
        return max(abs(v) for v in self.values)

    def is_continuous_at(self, t: float) -> bool:
        t = float(t)
        if t == self.times[0]:
            return self.values[0] == 0.0
        if t == self.times[-1]:
            return self.values[-1] == 0.0
        return True

    def analytic(self, z: complex) -> complex:
        value, estimate = self._cauchy_sum(z)
        return _check_accuracy(value, estimate, self.peak_scale(), "sampled analytic signal")

    def _cauchy_sum(self, z: complex) -> Tuple[complex, float]:
        """Exact Cauchy integral of the interpolant at z, and a bound on its rounding error.

        A segment [t0, t1] of length L rising by dv contributes
        v0 phi + dv psi, with u = L/(z - t0), phi = Log((z - t0)/(z - t1))
        = -Log(1 - u) and psi = phi/u - 1; for small |u| both come from
        the series psi = sum u^n/(n+1), phi = u (1 + psi).  Off the real
        axis, and on it outside [t0, t1], the ratio stays off the cut of
        the principal Log.  The bound charges each term a few roundings
        of its size and the log route the cancellation in phi/u - 1,
        whose absolute error is about eps (1 + |phi|)/|u|.
        """
        total = 0j
        bound = 0.0
        for t0, t1, v0, v1 in zip(self.times, self.times[1:], self.values, self.values[1:]):
            w = z - t0
            u = (t1 - t0) / w
            size = abs(u)
            if size < _SERIES_RADIUS:
                psi = _psi_series(u)
                phi = u * (1.0 + psi)
                phi_err = abs(phi)
                psi_err = abs(psi)
            else:
                phi = cmath.log(w / (z - t1))
                psi = phi / u - 1.0
                phi_err = 1.0 + abs(phi)
                psi_err = abs(psi) + phi_err / size
            dv = v1 - v0
            total += v0 * phi + dv * psi
            bound += abs(v0) * phi_err + abs(dv) * psi_err
        return total / (2j * math.pi), _ROUNDING * bound / _TWO_PI

    def spectrum(self, omega: float) -> complex:
        """Exact transform of the piecewise-linear interpolant."""
        total = 0j
        for k in range(len(self.times) - 1):
            t0, t1 = self.times[k], self.times[k + 1]
            v0, v1 = self.values[k], self.values[k + 1]
            length = t1 - t0
            e1, e2 = _phase_integrals(omega * length)
            total += cmath.exp(1j * omega * t0) * length * (v0 * e1 + (v1 - v0) * e2)
        return total


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------


def _psi_series(u: complex) -> complex:
    """sum_{n>=1} u^n/(n+1) = -Log(1 - u)/u - 1 for |u| < _SERIES_RADIUS (u^11/12 dropped)."""
    return u * (1/2 + u * (1/3 + u * (1/4 + u * (1/5 + u * (1/6 + u * (
        1/7 + u * (1/8 + u * (1/9 + u * (1/10 + u / 11)))))))))


def _phase_integrals(u: float) -> Tuple[complex, complex]:
    """int_0^1 exp(i u xi) dxi and int_0^1 xi exp(i u xi) dxi, stable for small u."""
    if abs(u) < 1e-3:
        iu = 1j * u
        e1 = 1.0 + iu / 2.0 + iu**2 / 6.0 + iu**3 / 24.0 + iu**4 / 120.0
        e2 = 0.5 + iu / 3.0 + iu**2 / 8.0 + iu**3 / 30.0 + iu**4 / 144.0
        return e1, e2
    iu = 1j * u
    eiu = cmath.exp(iu)
    e1 = (eiu - 1.0) / iu
    e2 = eiu / iu - (eiu - 1.0) / (iu * iu)
    return e1, e2


def fourier_transform(signal: DrivingSignal, omega: float) -> complex:
    """ghat0(omega) = integral g0(t) exp(+i omega t) dt.

    Closed forms for all three signal families; sampled signals use the
    exact transform of their piecewise-linear interpolant.
    """
    return signal.spectrum(as_scalar(omega, "angular frequency"))


# ---------------------------------------------------------------------------
# quadrature helpers
# ---------------------------------------------------------------------------


def __getattr__(name: str):
    """Bind `signals.quad` on first use to QUADPACK's adaptive Gauss-Kronrod routine alone.

    `quad(func, a, b, full_output, epsabs, epsrel, limit)` is
    `_qagse(func, a, b, (), full_output, epsabs, epsrel, limit)`, which
    is what `scipy.integrate.quad` calls for a finite interval with a < b
    and no weight or break points: every value, estimate and node is the
    same.  Only the extension module is loaded: `find_spec` locates
    scipy without importing it, and the extension is found in scipy's
    `integrate` directory and initialised on its own, so the
    `scipy.integrate` package, and the optimize, sparse, linalg and
    special packages it imports, stay unloaded.  A missing scipy or
    extension raises ImportError.
    """
    if name != "quad":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    qagse = _quadpack()._qagse

    def quad(func, a, b, full_output, epsabs, epsrel, limit):
        return qagse(func, a, b, (), full_output, epsabs, epsrel, limit)

    globals()["quad"] = quad
    return quad


def _quadpack():
    """The module `scipy.integrate._quadpack`, initialised without its package.

    A copy that is already loaded (scipy.integrate imported it) is reused.
    """
    import importlib.machinery
    import importlib.util
    import os

    name = "scipy.integrate._quadpack"
    module = sys.modules.get(name)
    if module is not None:
        return module
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("quadrature needs scipy's QUADPACK, and scipy is not installed")
    path = [os.path.join(root, "integrate") for root in scipy.submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec(name, path)
    if spec is None:
        raise ImportError(f"quadrature needs {name}, which is not in {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


class _ImagParts(dict):
    """Imaginary parts of a complex integrand by node, for one `_quad_complex` call.

    The real pass stores them.  The imaginary pass reads them through the
    dict's own lookup, so a node the real pass visited costs no Python
    frame; at a node it did not visit, the real pass runs (and stores) now.
    """

    __slots__ = ("real",)

    def __missing__(self, t: float) -> float:
        self.real(t)
        return dict.__getitem__(self, t)


def _quad_complex(storing: Callable, lo: float, hi: float, limit: int = 200):
    """Adaptive quadrature of a complex integrand f; returns (value, error estimate).

    QUADPACK integrates the real part, then the imaginary part, and asks
    for nearly the same nodes twice (98.5% of the imaginary pass on the
    Gaussian route), so f is evaluated once per node.  `storing(imag)`
    returns the real-pass integrand: at a node t it computes f(t), stores
    imag[t] = f(t).imag and returns f(t).real (`_storing` builds one from
    any complex f).  The imaginary pass reads imag[t] and evaluates f
    only at a node the real pass did not visit.  Both passes see the
    values a separate evaluation would give, so every value, estimate
    and AccuracyError is bit for bit that of two independent passes.

    The store lives for this call only and is freed when it returns.  It
    is keyed by the float node, so -0.0 and 0.0 share an entry; that is
    sound because every integrand here gives the same bits at both (the
    tests check it).  QUADPACK reports a missed target only in the flag
    that closes its result, which nothing reads and nothing turns into a
    warning; _check_accuracy judges the estimate.

    An empty interval, lo == hi (a Gaussian narrower than the float
    spacing at its centre), gives 0 with estimate 0 and no quadrature, as
    `scipy.integrate.quad` does; QUADPACK itself would sample it and can
    return nan, so `quad` is only ever called with lo < hi.
    """
    if lo == hi:
        return 0j, 0.0
    quad = globals().get("quad") or __getattr__("quad")
    imag = _ImagParts()
    real = imag.real = storing(imag)
    options = {"full_output": 1, "epsabs": 1e-15, "epsrel": 1e-12, "limit": limit}
    try:
        re, re_err = quad(real, lo, hi, **options)[:2]
        im, im_err = quad(imag.__getitem__, lo, hi, **options)[:2]
    finally:
        # The store and its real pass refer to each other.  Left as a cycle,
        # stores wait for the cycle collector: 100 seeded links with
        # Gaussian jumps peaked 4.5 MB higher.
        del imag.real
    return complex(re, im), re_err + im_err


def _storing(func: Callable[[float], complex]) -> Callable:
    """`_quad_complex`'s storing form of a complex integrand func (two frames per node)."""

    def storing(imag: _ImagParts) -> Callable[[float], float]:
        def real(t: float) -> float:
            value = func(t)
            imag[t] = value.imag
            return value.real

        return real

    return storing


def _check_accuracy(value: complex, estimate: float, scale: float, what: str) -> complex:
    if estimate > DEFAULT_REL_TOL * abs(value) and estimate > 1e-12 * scale:
        raise AccuracyError(
            f"{what} did not converge to the relative target {DEFAULT_REL_TOL:g}: "
            f"achieved estimate {estimate:.3e} for value {value!r}",
            value=value,
            estimate=estimate,
        )
    return value


# ---------------------------------------------------------------------------
# analytic signal (time-domain route)
# ---------------------------------------------------------------------------


def analytic_signal(signal: DrivingSignal, tau: complex) -> complex:
    """Analytic signal g(tau) of a driving signal at complex time tau = t - i s.

    Impulse derivatives use the closed form (-1)^n n! / (2 pi i tau^(n+1)),
    sampled signals the exact Cauchy integral of their linear interpolant,
    and Gaussian pulses adaptive quadrature over their truncated support,
    split at the real part of tau.  A real tau is accepted only where the
    signal vanishes, i.e. where the two boundary values coincide.  A value
    whose error estimate misses DEFAULT_REL_TOL, or that is not a finite
    float (the closed form overflows at high orders), raises AccuracyError.
    """
    z = complex(tau)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValidationError(f"complex time must be finite, got {z}")
    lo, hi = signal.effective_support()
    if z.imag == 0.0 and lo <= z.real <= hi:
        raise NonAnalyticPointError(
            f"analytic signal requested at tau = {z.real:g} on the real axis inside the "
            f"signal support [{lo:g}, {hi:g}]; it has no single value there"
        )
    value = signal.analytic(z)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise AccuracyError(
            f"analytic signal at tau = {z} does not evaluate to a finite float", value=value
        )
    return value


def _cauchy_integral(
    signal: DrivingSignal, z: complex, storing: Callable, nodes: Sequence[float]
) -> complex:
    """(1/(2 pi i)) integral g0(t)/(z - t) dt, checked against the target.

    storing is `_quad_complex`'s storing form of g0(t)/(z - t), integrated
    over each panel between consecutive nodes.
    """
    # Splitting each panel at the projection of tau keeps the adaptive
    # scheme sharp when tau sits close to the real axis.
    cut = z.real
    total = 0j
    est = 0.0
    for seg_lo, seg_hi in zip(nodes, nodes[1:]):
        if seg_lo < cut < seg_hi:
            panels = ((seg_lo, cut), (cut, seg_hi))
        else:
            panels = ((seg_lo, seg_hi),)
        for a, b in panels:
            val, err = _quad_complex(storing, a, b)
            total += val
            est += err
    value = total / (2j * math.pi)
    return _check_accuracy(value, est / _TWO_PI, signal.peak_scale(), "analytic-signal quadrature")


# ---------------------------------------------------------------------------
# spectral route
# ---------------------------------------------------------------------------


def spectral_signal(signal: DrivingSignal, t: float, s: float) -> complex:
    """Analytic signal via the one-sided spectral integral; requires s != 0.

    For s > 0 only positive frequencies contribute and the factor
    exp(-w s) makes the integral absolutely convergent; for s < 0 the
    negative-frequency half contributes, which is the same integral under
    s -> -s, w -> -w.  Agrees with the quadrature route wherever both are
    defined.  A |s| so small that the frequency cut-off leaves the floats
    (below about 2.5e-307 for impulses and sampled signals) raises
    DomainError.
    """
    t = as_scalar(t, "time")
    s = as_scalar(s, "imaginary time")
    if s == 0.0:
        raise DomainError("the spectral route needs s != 0; the real axis is a boundary")

    damping = abs(s)
    upper = signal.spectral_limit(damping)
    if not math.isfinite(upper):
        raise DomainError(f"the spectral route's frequency cut-off overflows a float at s = {s!r}")
    # quad's nodes are finite floats: fourier_transform would only validate them again
    spectrum = signal.spectrum
    sign = math.copysign(1.0, s)

    def integrand(w: float) -> complex:
        w = sign * w
        return cmath.exp(complex(-w * s, -w * t)) * spectrum(w)

    value, est = _quad_complex(_storing(integrand), 0.0, upper, limit=800)
    scale = abs(spectrum(min(1.0 / damping, upper))) / (_TWO_PI * damping)
    return _check_accuracy(
        sign / _TWO_PI * value, est / _TWO_PI, scale, "spectral-signal quadrature"
    )


# ---------------------------------------------------------------------------
# boundary jumps
# ---------------------------------------------------------------------------


def richardson_limit(eps_list: Sequence[float], values: Sequence[complex]):
    """Extrapolate samples f(eps) to eps -> 0+ by iterated Richardson steps.

    Neville's scheme on the nodes eps_list, evaluated at zero; on a
    geometric ladder this is the classic repeated two-term elimination of
    the leading O(eps) error.  Returns (limit, error_estimate) where the
    estimate is the difference of the last two extrapolation stages.  An
    empty ladder, or one with a non-finite or repeated eps, is a
    ValidationError.
    """
    eps = [float(e) for e in eps_list]
    table = [complex(v) for v in values]
    if len(eps) != len(table):
        raise ValidationError("epsilon ladder and sample list must have equal length")
    if not eps:
        raise ValidationError("epsilon ladder must not be empty")
    if not all(map(math.isfinite, eps)) or len(set(eps)) < len(eps):
        raise ValidationError(f"epsilon ladder must hold distinct finite values, got {eps}")
    n = len(table)
    best = table[0]
    prev = None
    for k in range(1, n):
        for i in range(n - k):
            ratio = eps[i + k] / (eps[i] - eps[i + k])
            table[i] = table[i + 1] + (table[i + 1] - table[i]) * ratio
        prev, best = best, table[0]
    estimate = abs(best - prev) if prev is not None else abs(best)
    return best, estimate


def _jump_limit(below: Callable[[float], complex], scale: float) -> complex:
    """Boundary-value jump of a real signal's extension, extrapolated to eps -> 0+.

    below(e) is the value on the lower side at rung e of DEFAULT_EPS_LADDER.
    For a real g0 the analytic signal obeys g(conj tau) = -conj g(tau), so
    the upper-side value is minus the conjugate of the lower one and the
    jump below - above is 2 Re below: one evaluation per rung.  This holds
    in floating point too: every step from tau to g (cmath.sqrt, cmath.log,
    QUADPACK on a conjugated integrand, complex products and quotients) is
    sign-symmetric in CPython, so the two-sided sample complex(2 Re, Im - Im)
    is 2 Re bit for bit, except that a part that is exactly zero may differ
    in its sign.  The tests keep the two-sided ladder as the oracle.  An
    estimate above 1e-6 |limit| + 1e-9 scale raises AccuracyError carrying
    the limit and the estimate.
    """
    eps = DEFAULT_EPS_LADDER
    limit, est = richardson_limit(eps, [2.0 * below(e).real for e in eps])
    if est > 1e-6 * abs(limit) + 1e-9 * scale:
        raise AccuracyError(
            f"boundary-jump extrapolation did not converge: estimate {est:.3e}",
            value=limit,
            estimate=est,
        )
    return limit


def jump_of_signal(signal: DrivingSignal, t: float) -> float:
    """Boundary-value jump g(t - i 0+) - g(t + i 0+), extrapolated over DEFAULT_EPS_LADDER.

    For a signal continuous at t the jump recovers g0(t) itself.  Since
    g0 is real, g(t + i e) = -conj g(t - i e), so each rung evaluates
    g once, below the axis, and takes 2 Re g(t - i e) (see _jump_limit).
    The extrapolation must converge; otherwise an AccuracyError carrying
    the best estimate is raised.
    """
    t = as_scalar(t, "time")
    if not signal.is_continuous_at(t):
        raise NonAnalyticPointError(f"driving signal is not continuous at t = {t:g}")
    scale = max(signal.peak_scale(), 1e-30)
    return _jump_limit(lambda e: analytic_signal(signal, complex(t, -e)), scale).real
