import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pulsebeam import (
    CausalityError,
    Channel,
    ConeStatus,
    ConeVector,
    RealEvent,
    ValidationError,
    cone_status,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_cone_status_interior():
    assert cone_status((0, 0, 1), 2.0) is ConeStatus.INTERIOR


def test_cone_status_null_endpoint():
    assert cone_status((0, 0, 0), 0.0) is ConeStatus.NULL_ENDPOINT


def test_cone_status_boundary_is_invalid():
    # the lightlike boundary s = |y| is rejected: the comparison is strict
    assert cone_status((0, 0, 1), 1.0) is ConeStatus.INVALID


def test_cone_status_past_pointing_invalid():
    assert cone_status((0, 0, 1), -2.0) is ConeStatus.INVALID
    assert cone_status((0, 0, 0), 0.5) is ConeStatus.INTERIOR


def test_cone_status_rejects_non_finite():
    with pytest.raises(ValidationError):
        cone_status((0, 0, math.nan), 1.0)
    with pytest.raises(ValidationError):
        cone_status((0, 0, 1), math.inf)


def test_cone_vector_construction():
    v = ConeVector((0, 0, 1), 2.0)
    assert v.is_interior and not v.is_null
    assert v.radius == 1.0
    null = ConeVector.null()
    assert null.is_null and not null.is_interior
    with pytest.raises(ValidationError):
        ConeVector((0, 0, 1), 1.0)


def test_real_event_validation_and_difference():
    a = RealEvent((1, 2, 3), 4.0)
    b = RealEvent((0.5, 2, 1), 1.0)
    d = a - b
    assert d.space == (0.5, 0.0, 2.0) and d.time == 3.0
    with pytest.raises(ValidationError):
        RealEvent((1, 2, math.inf), 0.0)


def test_real_event_shifted():
    moved = RealEvent((1, 0, 0), 2.0).shifted((0.5, -1.0, 0.0, 3.0))
    assert moved.space == (1.5, -1.0, 0.0) and moved.time == 5.0
    for bad in (("a", 0, 0, 0), 5, (1, 2, 3)):
        with pytest.raises(ValidationError):
            RealEvent((1, 0, 0), 2.0).shifted(bad)


def test_tube_difference_sums_extensions():
    # the tube difference of a link is (x_r - x_e) + i (y_e + y_r)
    ch = Channel(
        RealEvent((0, 0, 0), 0.0),
        ConeVector((0, 0, 1), 2.0),
        RealEvent((1, 0, 0), 3.0),
        ConeVector((0, 0, 1), 2.0),
    )
    assert ch.separation.space == (1.0, 0.0, 0.0) and ch.separation.time == 3.0
    assert ch.combined_extent.space == (0.0, 0.0, 2.0) and ch.combined_extent.time == 4.0


def test_tube_difference_two_null_endpoints_violate_causality():
    with pytest.raises(CausalityError):
        Channel(
            RealEvent((0, 0, 0), 0.0),
            ConeVector.null(),
            RealEvent((1, 0, 0), 1.0),
            ConeVector.null(),
        )


def test_cone_sum_convexity_bulk():
    # interior + interior stays interior: convexity of the future cone
    rng = np.random.default_rng(42)
    for _ in range(10_000):
        d1 = rng.normal(size=3)
        d2 = rng.normal(size=3)
        a1, a2 = rng.uniform(0.01, 3.0, size=2)
        m1, m2 = rng.uniform(0.001, 2.0, size=2)
        v1 = ConeVector(tuple(a1 * d1 / np.linalg.norm(d1)), a1 + m1)
        v2 = ConeVector(tuple(a2 * d2 / np.linalg.norm(d2)), a2 + m2)
        assert (v1 + v2).is_interior


@given(
    st.tuples(finite, finite, finite),
    st.floats(min_value=1e-6, max_value=1e6),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_cone_status_scale_invariant(space, margin, factor):
    time = math.sqrt(sum(c * c for c in space)) + margin
    scaled_space = tuple(factor * c for c in space)
    assert cone_status(space, time) is ConeStatus.INTERIOR
    assert cone_status(scaled_space, factor * time) is ConeStatus.INTERIOR
    # and a past-pointing vector stays invalid under positive scaling
    assert cone_status(space, -time) is ConeStatus.INVALID
    assert cone_status(scaled_space, -factor * time) is ConeStatus.INVALID


_BIG = 1e308
# Each error with its type and words.  A sum of finite floats can
# overflow, so sums and differences are checked as the constructors check
# their inputs.
ERRORS = {
    "sum-space-overflow": (
        lambda: ConeVector((_BIG, 0.0, 0.0), 1.5 * _BIG) + ConeVector((_BIG, 0.0, 0.0), 1.5 * _BIG),
        "extension space part components must be finite, got (inf, 0.0, 0.0)",
    ),
    "sum-time-overflow": (
        lambda: ConeVector((0.0, 0.0, 0.0), _BIG) + ConeVector((0.0, 0.0, 0.5), _BIG),
        "extension time part must be finite, got inf",
    ),
    "sum-rounds-onto-boundary": (
        # two interior vectors whose rounded sum lies on the lightlike boundary
        lambda: ConeVector((0.0, 0.0, 0.125), math.nextafter(0.125, 1.0))
        + ConeVector((0.0, 0.0, 3.9583333333333335), math.nextafter(3.9583333333333335, 5.0)),
        "extension must lie strictly inside the future cone (time > |space|) or be exactly "
        "zero, got space=(0.0, 0.0, 4.083333333333334), time=4.083333333333334",
    ),
    "boundary-extent": (
        lambda: ConeVector((0, 0, 1), 1),
        "extension must lie strictly inside the future cone (time > |space|) or be exactly "
        "zero, got space=(0.0, 0.0, 1.0), time=1.0",
    ),
    "non-finite-space": (
        lambda: ConeVector((0, 0, math.nan), 1.0),
        "extension space part components must be finite, got (0.0, 0.0, nan)",
    ),
    "non-finite-time": (
        lambda: ConeVector((0, 0, 0), math.inf),
        "extension time part must be finite, got inf",
    ),
    "not-numbers": (
        lambda: ConeVector(("a", 0, 0), 1.0),
        "extension space part must be 3 numbers, got ('a', 0, 0)",
    ),
    "cone-status-non-finite": (
        lambda: cone_status((0, 0, 1), -math.inf),
        "cone vector time part must be finite, got -inf",
    ),
    "difference-overflow": (
        lambda: RealEvent((_BIG, 0, 0), 0.0) - RealEvent((-_BIG, 0, 0), 0.0),
        "event space part components must be finite, got (inf, 0.0, 0.0)",
    ),
    "difference-time-overflow": (
        lambda: RealEvent((0, 0, 0), _BIG) - RealEvent((0, 0, 0), -_BIG),
        "event time part must be finite, got inf",
    ),
    "shift-overflow": (
        lambda: RealEvent((0, -_BIG, 0), 0.0).shifted((0.0, -_BIG, 0.0, 0.0)),
        "event space part components must be finite, got (0.0, -inf, 0.0)",
    ),
    "shift-non-finite": (
        lambda: RealEvent((0, 0, 0), 0.0).shifted((0.0, 0.0, 0.0, math.nan)),
        "translation components must be finite, got (0.0, 0.0, 0.0, nan)",
    ),
}


@pytest.mark.parametrize("make,message", ERRORS.values(), ids=ERRORS.keys())
def test_validation_errors_keep_their_type_and_words(make, message):
    with pytest.raises(ValidationError) as caught:
        make()
    assert type(caught.value) is ValidationError and str(caught.value) == message
