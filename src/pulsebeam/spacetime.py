"""Real spacetime events, extension vectors, and the future-cone constraint.

Units: the propagation speed is 1, so all four components of an event or
extension vector share one length unit.  Every type here is an immutable
value and every operation a pure function; unrestricted concurrent use is
safe.

Validation happens where a value is built: the public functions and the
constructors convert their inputs with float() and check that they are
finite.  Sums and differences (`ConeVector.__add__`, `RealEvent.__sub__`
and `shifted`) go through the constructors too, because a sum of finite
floats can overflow.  A ConeVector classifies its converted parts with
`_classify`, the comparison `cone_status` makes after its own validation,
so no part is validated twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Tuple

from .errors import ValidationError

Vec3 = Tuple[float, float, float]


def _as_vec(values: Sequence[float], n: int, what: str) -> Tuple[float, ...]:
    try:
        vals = tuple(map(float, values))
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{what} must be {n} numbers, got {values!r}") from None
    if len(vals) != n:
        raise ValidationError(f"{what} must have exactly {n} components, got {len(vals)}")
    if not all(map(math.isfinite, vals)):
        raise ValidationError(f"{what} components must be finite, got {vals}")
    return vals


def as_vec3(values: Sequence[float], what: str = "vector") -> Vec3:
    return _as_vec(values, 3, what)


def as_vec4(values: Sequence[float], what: str = "4-vector") -> Tuple[float, ...]:
    return _as_vec(values, 4, what)


def _fields(obj, name: str, required: Sequence[str] = (), optional: Sequence[str] = ()):
    """`obj`, once it is a JSON object with every required field and no undeclared one."""
    if not isinstance(obj, dict):
        raise ValidationError(f"'{name}' must be a JSON object, got {type(obj).__name__}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ValidationError(f"'{name}' is missing {missing}")
    unknown = [key for key in obj if key not in required and key not in optional]
    if unknown:
        allowed = [*required, *optional]
        raise ValidationError(f"'{name}' has unknown fields {unknown}; allowed: {allowed}")
    return obj


def as_scalar(value: float, what: str = "scalar") -> float:
    try:
        value = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{what} must be a number, got {value!r}") from None
    if not math.isfinite(value):
        raise ValidationError(f"{what} must be finite, got {value}")
    return value


def norm3(v: Sequence[float]) -> float:
    # hypot stays exact where the squares would under- or overflow
    return math.hypot(v[0], v[1], v[2])


def dot3(u: Sequence[float], v: Sequence[float]) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


class ConeStatus(Enum):
    INTERIOR = "interior"
    NULL_ENDPOINT = "null-endpoint"
    INVALID = "invalid"


def cone_status(space: Sequence[float], time: float) -> ConeStatus:
    """Classify a 4-vector against the future cone.

    INTERIOR requires time > |space| strictly, with exact floating-point
    comparison: boundary inputs are user errors, not numerical noise, and a
    caller needing slack should pre-inflate the time component.
    NULL_ENDPOINT is the exact zero vector, admitted so idealized point
    endpoints are representable.  Everything else is INVALID.
    """
    return _classify(
        as_vec3(space, "cone vector space part"), as_scalar(time, "cone vector time part")
    )


def _classify(space: Vec3, time: float) -> ConeStatus:
    """`cone_status` of parts that are already finite floats."""
    radius = norm3(space)
    if time > radius:
        return ConeStatus.INTERIOR
    if time == 0.0 and radius == 0.0:
        return ConeStatus.NULL_ENDPOINT
    return ConeStatus.INVALID


def _require_admissible(space: Vec3, time: float) -> None:
    if _classify(space, time) is ConeStatus.INVALID:
        raise ValidationError(
            "extension must lie strictly inside the future cone (time > |space|) "
            f"or be exactly zero, got space={space}, time={time}"
        )


@dataclass(frozen=True)
class RealEvent:
    """A point (space, time) of real spacetime."""

    space: Vec3
    time: float

    def __post_init__(self):
        object.__setattr__(self, "space", as_vec3(self.space, "event space part"))
        object.__setattr__(self, "time", as_scalar(self.time, "event time part"))

    @property
    def radius(self) -> float:
        return norm3(self.space)

    def __sub__(self, other: "RealEvent") -> "RealEvent":
        return RealEvent(
            tuple(a - b for a, b in zip(self.space, other.space)),
            self.time - other.time,
        )

    def shifted(self, delta: Sequence[float]) -> "RealEvent":
        """Translate by a 4-vector (dx1, dx2, dx3, dt)."""
        d = as_vec4(delta, "translation")
        return RealEvent(tuple(a + b for a, b in zip(self.space, d[:3])), self.time + d[3])


@dataclass(frozen=True)
class ConeVector:
    """Antenna extension 4-vector, constrained to the future cone.

    The space part carries the antenna radius and orientation, the time
    part the center-to-rim signal lag.  Admissible states are the open
    cone interior (time > |space|) and the exact zero vector, which stands
    for an idealized point endpoint.
    """

    space: Vec3
    time: float

    def __post_init__(self):
        space = as_vec3(self.space, "extension space part")
        time = as_scalar(self.time, "extension time part")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "time", time)
        _require_admissible(space, time)

    @classmethod
    def null(cls) -> "ConeVector":
        return cls((0.0, 0.0, 0.0), 0.0)

    @property
    def radius(self) -> float:
        return norm3(self.space)

    @property
    def is_null(self) -> bool:
        return self.time == 0.0

    @property
    def is_interior(self) -> bool:
        return self.time > 0.0

    def __add__(self, other: "ConeVector") -> "ConeVector":
        # The future cone is convex, so interior + interior stays interior
        # and adding a null endpoint changes nothing.
        return ConeVector(
            tuple(a + b for a, b in zip(self.space, other.space)),
            self.time + other.time,
        )

