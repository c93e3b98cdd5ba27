"""Exception types shared across the package."""


class MMLError(Exception):
    """Base class for all package errors."""


class NotHyperbolic(MMLError):
    """An element expected to be hyperbolic (|trace| > 2, or eigenvalues
    lambda > 1 > 1/lambda) is elliptic or parabolic."""


class RecursionMismatch(MMLError):
    """Trace recursion and direct word evaluation disagree beyond tolerance."""


class InvalidCoords(MMLError):
    """Trace coordinates outside the acceptance domain, or the generator
    construction degenerated."""


class NonConvergence(MMLError):
    """The certified truncation tail could not be brought below the
    requested tolerance within the configured bin ceiling."""
