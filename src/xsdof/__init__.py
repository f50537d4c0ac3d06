"""Secure degrees-of-freedom toolkit for the two-user MIMO X-channel.

Simulates the phase-based transmission schemes for two transmitters and two
receivers under various output-feedback / delayed-CSI models, verifies their
decodability and zero-leakage rank identities at desk scale, and evaluates
the closed-form (secure) degrees-of-freedom regions in exact rational
arithmetic.
"""

from .channel import AntennaConfig, FeedbackModel, Regime
from .errors import (
    DecodeFailure,
    InvalidInput,
    InvalidMatrix,
    InvalidShape,
    InvalidTranscript,
    ProtocolViolation,
    RegimeError,
    SingularSystem,
    UnauthorizedAccess,
)
from .knowledge import Node
from .schemes import SchemeId

__all__ = [
    "AntennaConfig",
    "FeedbackModel",
    "Node",
    "Regime",
    "SchemeId",
    "DecodeFailure",
    "InvalidInput",
    "InvalidMatrix",
    "InvalidShape",
    "InvalidTranscript",
    "ProtocolViolation",
    "RegimeError",
    "SingularSystem",
    "UnauthorizedAccess",
]

__version__ = "0.1.0"
