"""Exception hierarchy shared across the package."""


class PowertraceError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(PowertraceError):
    """Input violates a documented precondition or type invariant."""


class ResourceError(PowertraceError):
    """A construction would exceed the configured qubit cap."""


class ContractError(PowertraceError):
    """A polynomial handed to the eigenvalue transform fails its
    admissibility certificate: its Chebyshev coefficients sum to more
    than 1, so |p| <= 1 on [-1, 1] is not certified."""


class ConstructionError(PowertraceError):
    """A lower-bound construction cannot be built from the inputs."""


class UnreliableEstimateError(PowertraceError):
    """An estimate is too close to a singular regime to post-process
    (logarithm of a non-positive value, ratio with vanishing denominator)."""
