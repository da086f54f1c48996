"""Exception types shared across the package."""


class NhsqError(Exception):
    """Base class for all package errors."""


class InvalidParams(NhsqError):
    """Construction parameters violate their invariants."""


class GeometryInfeasible(NhsqError):
    """A subdivision step produced a negative middle gap."""


class ReversedInterval(NhsqError):
    """Interval endpoints given in the wrong order."""


class NegativeRadius(NhsqError):
    """Ball radius must be non-negative."""


class QuadratureBudgetExceeded(NhsqError):
    """Requested tolerance unreachable within the configured budget."""


class OracleMismatch(NhsqError):
    """Collapsed computation disagrees with direct enumeration."""


class EmptyCubeList(NhsqError):
    """Testing functional needs at least one cube."""


class WrongProfile(NhsqError):
    """Operation only defined for a specific log-product profile."""


class OutOfDomain(NhsqError):
    """Query point outside the function's domain."""


class DegenerateInterval(NhsqError):
    """Interval of zero length where positive length is required."""


class ExponentOverflow(NhsqError):
    """Truncation level exceeds the representable exponent budget."""


class CutoffBelowR(NhsqError):
    """Goodness scale cutoff must be at least the parameter r."""


class AccretivityViolated(NhsqError):
    """Accretive average degraded below threshold at the root cube."""


class DivisionByNearZeroAverage(NhsqError):
    """Normalizing accretive average too small; stopping construction is broken."""


class UnknownExperiment(NhsqError):
    """Experiment name not in the registry."""


class ConfigError(NhsqError):
    """Malformed experiment configuration."""
