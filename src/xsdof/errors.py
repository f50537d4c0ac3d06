"""Exception types shared across the package.

Error classes are part of the module contracts: callers are expected to
catch these by name (for example the trial driver resamples on
``SingularSystem``, while ``UnauthorizedAccess`` is a
hard abort that signals a scheme trying to read state its feedback model
does not grant).
"""


class InvalidMatrix(ValueError):
    """A matrix argument has non-finite entries, or is neither a 2-D array
    nor, where a stack is accepted, a 3-D stack of them."""


class InvalidShape(ValueError):
    """Operand dimensions are incompatible."""


class InvalidInput(ValueError):
    """A structurally invalid argument (empty block list, bad range, ...)."""


class SingularSystem(ArithmeticError):
    """A matrix that must be full rank is numerically rank deficient at the
    working tolerance: a square or tall system (or a matrix of a stack of
    them), a channel state or a precoder draw.  ``verify.run_trial``
    resamples the trial on it.  From ``matcore.solve_full_column_rank`` on
    one matrix it carries that matrix's rank, from ``schemes.decode`` the
    receiver's rate rank."""

    rank: int | None = None
    rate_rank: int | None = None


class ProtocolViolation(RuntimeError):
    """The simulation driver mis-sequenced the slot protocol (e.g. double advance)."""


class UnauthorizedAccess(PermissionError):
    """A node tried to read an item its feedback model never grants.

    This is the enforcement mechanism of the knowledge ledgers, not a bug
    path: schemes that structurally require more feedback than the model
    provides abort with this error.
    """


class RegimeError(ValueError):
    """The antenna configuration is outside the scheme's applicable regime."""


class DecodeFailure(RuntimeError):
    """A receiver's linear decode left a residual above tolerance."""

    rate_rank: int | None = None


class InvalidTranscript(ValueError):
    """A transcript is incomplete or inconsistent with its plan."""
