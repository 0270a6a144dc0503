"""Exception types shared across the toolkit, and the integer test of the
orders and sizes they refuse."""

import numbers


def _integral(x) -> bool:
    """True for an int (numpy's too) or an integral float, not for a bool."""
    if isinstance(x, float):
        return x.is_integer()
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


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
