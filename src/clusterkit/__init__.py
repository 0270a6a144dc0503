"""Cluster-expansion toolkit.

Computes and cross-verifies, at desk scale: fugacity- and density-series
coefficients of simple gases (connected and two-connected graph sums over
Mayer bonds), the hard-core subset-polymer partition function and its
log-expansion, singleton-preimage tree combinatorics, and the convergence
radii and coefficient bounds that certify the expansions.
"""

__version__ = "0.1.0"

from .errors import (
    CapacityError,
    ClusterKitError,
    ConfigError,
    DomainError,
    InputError,
    JammedError,
)

__all__ = [
    "CapacityError",
    "ClusterKitError",
    "ConfigError",
    "DomainError",
    "InputError",
    "JammedError",
    "__version__",
]
