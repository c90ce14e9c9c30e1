"""Emitter/receiver link algebra for beam wavelets.

A link is a pair of endpoints: an emitter centered at the event x_e with
extension y_e (future-tube parameterization x_e + i y_e) and a receiver
centered at x_r with extension y_r (past-tube parameterization
x_r - i y_r).  The transmission amplitude is the beam wavelet evaluated
at the tube difference (x_r - i y_r) - (x_e + i y_e), which stays in the
past tube and depends only on

    x = x_r - x_e    and    y = y_e + y_r.

Channel is the only link type: its separation and combined_extent are
exactly this tube difference.  Shifting both centers by a common real
4-vector, or moving extension between the endpoints (y_e + eta,
y_r - eta), produces an equivalent link with identical amplitude.  The
summed extension must be interior; each endpoint may individually be an
idealized point (null extension).

The two formulas of the link algebra, the summed extension (`_summed`)
and the move (`_moved`), are written once, on (x1, x2, x3, t) float
tuples, with their cone tests and their errors.  `Channel` and
`channel_translate` build their objects from them.  Acceptance check 6
repeats their float operations and cone tests on arrays and evaluates
the extended propagator on the result; `extended_propagator` on these
objects is its oracle in the tests.

Durations and bandwidths: each endpoint can handle pulses no shorter
than lag - radius, and the link as a whole no shorter than s - a, which
by the triangle inequality is at least the sum of the endpoint durations,
with equality exactly for parallel extensions.  Peak transmission at
fixed endpoint sizes therefore occurs in the line-of-sight configuration
where separation and both extensions are parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import add, sub
from typing import Sequence, Tuple

from .errors import CausalityError, ConeViolationError, ValidationError
from .propagator import _beam_peaks
from .signals import DrivingSignal
from .spacetime import ConeStatus, ConeVector, RealEvent, _classify, _fields, as_scalar, as_vec4
from .wavelet import wavelet_eval


def _summed(e: Tuple[float, ...], r: Tuple[float, ...]) -> Tuple[float, ...]:
    """The combined extent e + r of two extents; it must be finite and interior."""
    y = tuple(map(add, e, r))
    if not math.hypot(y[0], y[1], y[2]) < y[3] < math.inf:
        raise CausalityError(
            "summed endpoint extension must be interior to the future cone; "
            "two idealized point endpoints cannot form a link"
        )
    return y


def _moved(e: Tuple[float, ...], r: Tuple[float, ...], eta: Tuple[float, ...]):
    """The extents e + eta and r - eta; each must be finite and admissible.

    The emitter is checked first.
    """
    moved = tuple(map(add, e, eta)), tuple(map(sub, r, eta))
    for extent, which in zip(moved, ("emitter", "receiver")):
        space, time = extent[:3], extent[3]
        if time == math.inf or _classify(space, time) is ConeStatus.INVALID:
            raise ConeViolationError(
                f"translated {which} extent leaves the admissible cone states "
                f"(space={space}, time={time:g})"
            )
    return moved


@dataclass(frozen=True)
class Channel:
    """An emitter endpoint and a receiver endpoint forming one transmission link.

    Either endpoint may be an idealized point (null extent); their summed
    extent must be interior, otherwise CausalityError is raised.  The sum
    is built and checked once, here, and kept as combined_extent.
    """

    emitter_center: RealEvent
    emitter_extent: ConeVector
    receiver_center: RealEvent
    receiver_extent: ConeVector
    combined_extent: ConeVector = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        e, r = self.emitter_extent, self.receiver_extent
        y = _summed((*e.space, e.time), (*r.space, r.time))
        object.__setattr__(self, "combined_extent", ConeVector(y[:3], y[3]))

    @property
    def separation(self) -> RealEvent:
        return self.receiver_center - self.emitter_center

    @property
    def aperture(self) -> float:
        """Radius of the summed extension, at most the sum of the endpoint radii."""
        return self.combined_extent.radius


def channel_amplitude(ch: Channel, signal: DrivingSignal) -> complex:
    """Transmission amplitude: the wavelet at the endpoint difference.

    Depends only on separation and combined extension, hence is invariant
    under the equivalence moves of channel_translate.
    """
    return wavelet_eval(signal, ch.separation, ch.combined_extent)


def channel_translate(ch: Channel, real_shift: Sequence[float], imag_shift: Sequence[float]) -> Channel:
    """Equivalent link: both centers shifted by real_shift, extension moved by imag_shift.

    The emitter extent gains imag_shift and the receiver extent loses it,
    so separation and combined extension are unchanged.  Both new extents
    must remain admissible (interior or null).
    """
    xi = as_vec4(real_shift, "real translation")
    eta = as_vec4(imag_shift, "imaginary translation")
    e, r = ch.emitter_extent, ch.receiver_extent
    e, r = _moved((*e.space, e.time), (*r.space, r.time), eta)
    return Channel(
        ch.emitter_center.shifted(xi),
        ConeVector(e[:3], e[3]),
        ch.receiver_center.shifted(xi),
        ConeVector(r[:3], r[3]),
    )


@dataclass(frozen=True)
class ChannelMetrics:
    """Durations, bandwidths, and aperture of a link.

    Bandwidths are reciprocals of the shortest pulse each side can handle;
    an idealized point endpoint has zero duration and infinite bandwidth,
    while the link bandwidth stays finite because the summed extension is
    interior.
    """

    emit_duration: float
    receive_duration: float
    duration: float
    emit_bandwidth: float
    receive_bandwidth: float
    bandwidth: float
    aperture: float


def channel_metrics(ch: Channel) -> ChannelMetrics:
    emit_duration = ch.emitter_extent.time - ch.emitter_extent.radius
    receive_duration = ch.receiver_extent.time - ch.receiver_extent.radius
    combined = ch.combined_extent
    duration = combined.time - combined.radius
    return ChannelMetrics(
        emit_duration=emit_duration,
        receive_duration=receive_duration,
        duration=duration,
        emit_bandwidth=1.0 / emit_duration if emit_duration > 0.0 else math.inf,
        receive_bandwidth=1.0 / receive_duration if receive_duration > 0.0 else math.inf,
        bandwidth=1.0 / duration,
        aperture=combined.radius,
    )


def gain_scan(
    emit_radius: float,
    emit_lag: float,
    receive_radius: float,
    receive_lag: float,
    separation: float,
    theta_grid: Sequence[float],
) -> Tuple[Tuple[float, float], ...]:
    """Peak received amplitude versus receiver tilt angle.

    The emitter extension is held along the separation axis and the
    receiver extension tilted by theta in a fixed plane, so the combined
    extension has axis component emit_radius + receive_radius*cos(theta);
    with s = emit_lag + receive_lag the far-zone peak (the t = separation
    slice) is

        1 / (8 pi^2 separation (s - emit_radius - receive_radius cos theta)),

    maximal at theta = 0: the line-of-sight configuration.
    """
    emit_radius = as_scalar(emit_radius, "emitter radius")
    emit_lag = as_scalar(emit_lag, "emitter lag")
    receive_radius = as_scalar(receive_radius, "receiver radius")
    receive_lag = as_scalar(receive_lag, "receiver lag")
    separation = as_scalar(separation, "separation")
    if emit_radius < 0.0 or receive_radius < 0.0:
        raise ValidationError("endpoint radii must be nonnegative")
    if emit_lag <= emit_radius or receive_lag <= receive_radius:
        raise CausalityError("endpoint extents must be interior (lag > radius)")
    if separation <= 0.0:
        raise ValidationError(f"separation must be positive, got {separation}")
    # the beam peak at lag s - emit_radius and radius receive_radius is this formula
    thetas, _, peaks, _ = _beam_peaks(
        emit_lag + receive_lag - emit_radius, receive_radius, separation, theta_grid
    )
    return tuple(zip(thetas, peaks))


# ---------------------------------------------------------------------------
# JSON wire format (field names are fixed; golden files depend on them)
# ---------------------------------------------------------------------------


def channel_to_json(ch: Channel) -> dict:
    def endpoint(center: RealEvent, extent: ConeVector) -> dict:
        return {
            "center": [*center.space, center.time],
            "extent": [*extent.space, extent.time],
        }

    return {
        "emitter": endpoint(ch.emitter_center, ch.emitter_extent),
        "receiver": endpoint(ch.receiver_center, ch.receiver_extent),
    }


def channel_from_json(obj: dict) -> Channel:
    """The link of {"emitter": {"center": x, "extent": y}, "receiver": ...}; no other field."""
    link = _fields(obj, "channel", ("emitter", "receiver"))
    parts = []
    for side in ("emitter", "receiver"):
        entry = _fields(link[side], side, ("center", "extent"))
        for key in ("center", "extent"):
            # float(True) is 1.0: a JSON boolean is refused, as in every other config number
            if isinstance(entry[key], list) and any(isinstance(v, bool) for v in entry[key]):
                raise ValidationError(f"{side} {key} must be 4 numbers, got {entry[key]!r}")
        center, extent = (as_vec4(entry[key], f"{side} {key}") for key in ("center", "extent"))
        parts += [RealEvent(center[:3], center[3]), ConeVector(extent[:3], extent[3])]
    return Channel(*parts)
