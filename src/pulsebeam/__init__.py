"""Pulsed-beam wave fields on complexified spacetime.

Complexifying the observation point of the causal impulse field turns it
into a finite, sidelobe-free beam pulse whose imaginary spacetime
coordinates encode an antenna's radius, orientation, and internal signal
lag.  This package implements the complexified distance geometry, analytic
driving signals, the driven beam wavelets, and the emitter/receiver link
algebra built on them, together with an acceptance suite checking every
identity, bound, and invariance the constructions satisfy.
"""

from .channel import (
    Channel,
    ChannelMetrics,
    channel_amplitude,
    channel_from_json,
    channel_metrics,
    channel_to_json,
    channel_translate,
    gain_scan,
)
from .errors import (
    AccuracyError,
    CausalityError,
    ConeViolationError,
    DegenerateExtensionError,
    DomainError,
    NonAnalyticPointError,
    PulsebeamError,
    SingularityProximityError,
    StencilPlacementError,
    UndefinedDirectionError,
    ValidationError,
)
from .geometry import (
    BranchRegion,
    ComplexDistance,
    SpheroidalCoords,
    branch_classify,
    complex_distance,
    far_zone_distance,
    spheroidal_coords,
)
from .propagator import BeamProfile, beam_profile, extended_propagator, far_zone_propagator
from .signals import (
    DeltaDerivative,
    DrivingSignal,
    GaussianPulse,
    SampledSignal,
    analytic_signal,
    fourier_transform,
    jump_of_signal,
    spectral_signal,
)
from .spacetime import ConeStatus, ConeVector, RealEvent, cone_status
from .wavelet import boundary_jump, wave_residual, wavelet_eval

__version__ = "0.1.0"
