"""Exception types shared across the toolkit."""


class ClusterKitError(Exception):
    """Base class for all toolkit errors."""


class CapacityError(ClusterKitError):
    """Requested size exceeds a hard enumeration or quadrature cap."""


class DomainError(ClusterKitError):
    """Argument lies outside the mathematical domain of an operation."""


class InputError(ClusterKitError):
    """Malformed or incomplete input data (missing coefficients, bad tuples)."""


class JammedError(ClusterKitError):
    """Hard-core configuration space is empty (box too small for the cores)."""


class ConfigError(ClusterKitError):
    """Invalid run configuration: unknown keys, bad values, missing seeds."""
