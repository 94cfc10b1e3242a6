"""Exception types shared across the library.

Everything derives from DomainError so the CLI can map precondition
violations to a single exit code while genuinely malformed input is
handled separately.
"""


class DomainError(Exception):
    """An operation was called outside its mathematical domain."""


class IncompatibleRadicals(DomainError):
    """Two quadratic surds over different radicands cannot be combined exactly."""


class NonPositiveLambda(DomainError):
    """Scaling factors must be strictly positive."""


class ZeroScale(DomainError):
    """Coordinate scaling requires both factors to be at least 1."""


class RationalLambda(DomainError):
    """Diophantine approximation is only defined for irrational slopes."""


class NotGenerated(DomainError):
    """Tensor lies outside the part generated by the left and right legs."""


class ZeroImage(DomainError):
    """A factoring homomorphism must send only zero to zero."""


class WindowTooSmall(DomainError):
    """Figure window does not cover the generating points."""


class LimitExceeded(DomainError):
    """A CLI size argument exceeds its documented limit."""
