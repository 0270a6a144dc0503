"""Exception types shared across the toolkit, and the one home of the rules
its entry points check numeric arguments by: the paper's hypotheses
beta > 0, B >= 0, a finite C(beta) > 0 and integer orders k >= 1, finite
coefficients and exact inputs.  Each rule raises the class its caller
passes (InputError in ``polymer``, ConfigError in ``verify``, the Monte
Carlo counts and ``PairPotential``, ValueError in ``graphs``, DomainError
elsewhere) with one text, and takes no bool for a number.  The float rules
(2, 3 and ``_finite``) return the float, and refuse an int past the float
range as they refuse inf; rule 4 passes exact ints and Fractions of any size.
"""

import math
import numbers
from fractions import Fraction


def _number(x) -> bool:
    """True for a real number that is not a bool (a float or an int skips the ABC test)."""
    return type(x) in (float, int) or not isinstance(x, bool) and isinstance(x, numbers.Real)


def _integral(x) -> bool:
    """True for an int (numpy's too) or an integral float, not for a bool."""
    if isinstance(x, float):
        return x.is_integer()
    return type(x) is int or _number(x) and isinstance(x, numbers.Integral)


def _integer(name: str, x, low: int, error) -> int:
    """Rule 1, for orders, sizes and counts: ``x`` as an int, or ``error``
    naming it; an integral float or a numpy int is the int."""
    if not (_integral(x) and x >= low):
        raise error(f"{name} must be an integer >= {low}, got {x!r}")
    return int(x)


def _float(x) -> float:
    """``x`` as a float, or NaN, which every float rule refuses, for a bool,
    a non-number or a number past the float range."""
    if type(x) is float:
        return x
    try:
        return float(x) if _number(x) else math.nan
    except OverflowError:
        return math.nan


def _positive(name: str, x, error) -> float:
    """Rule 2, for beta, C(beta), a, a*, L, the box side and a potential's
    lengths: ``x`` as a float, or ``error`` naming it unless 0 < x < inf (at
    beta = inf a well's bond is inf)."""
    if not 0 < (f := _float(x)) < math.inf:
        raise error(f"{name} must be positive and finite, got {x!r}")
    return f


def _stability(B, error) -> float:
    """Rule 3: ``B`` as a float, or ``error`` unless 0 <= B < inf."""
    if not 0 <= (f := _float(B)) < math.inf:
        raise error(f"stability constant B must be >= 0 and finite, got {B!r}")
    return f


def _finite(name: str, x, error) -> float:
    """The rule of any other input that runs in floats: ``x`` as a float, or
    ``error`` naming it unless it is finite."""
    if not -math.inf < (f := _float(x)) < math.inf:
        raise error(f"{name} must be finite, got {x!r}")
    return f


def _real(name: str, x, error) -> None:
    """Rule 4, for coefficient tables and activities: ``error`` naming ``x``
    unless it is an int, a Fraction (of any size) or a finite float."""
    if not (_number(x) and (isinstance(x, numbers.Rational) or math.isfinite(x))):
        raise error(f"{name} must be a finite real, got {x!r}")


def _coefficients(table, first: int, last: int, what: str = "fugacity coefficient",
                  symbol: str = "b") -> dict:
    """Rule 4 for entries first..last of a table of b_n or C_k: a dict, each
    exact entry as ``_exact`` gives it, or InputError naming a missing or bad one."""
    out = dict(table)
    missing = [n for n in range(first, last + 1) if n not in out]
    if missing:
        raise InputError(f"missing {what}s: {missing}")
    for n in range(first, last + 1):
        _real(f"{what} {symbol}_{n}", out[n], InputError)
        out[n] = out[n] if (q := _exact(out[n])) is None else q
    return out


def _exact(x):
    """Rule 5: an exact ``x`` (``numbers.Rational``) as a Python int or
    Fraction, so that no numpy int runs; None for any other."""
    if not (_number(x) and isinstance(x, numbers.Rational)):
        return None
    if isinstance(x, numbers.Integral):
        return int(x)
    return Fraction(int(x.numerator), int(x.denominator))


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
