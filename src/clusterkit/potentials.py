"""Radial pair potentials, bond functions, and the interaction volume C(beta).

The Mayer bond f = e^(-beta V) - 1 is built here only: ``f_bond`` is the
scalar oracle, ``f_bond_array`` the evaluator, and ``bond_level_values``
the level table of a piecewise constant bond.

A potential carries a declared stability constant B (the constant in the
lower bound U >= -B*N on configuration energies).  B is a *declared* field:
purely repulsive potentials get B = 0 automatically, while a square well,
and a tabulated potential that goes negative, need an explicit value
because the optimal constant depends on packing geometry (a safe
d-dimensional choice is half the well depth times the number of
well-range neighbors a close packing allows, e.g. B = epsilon in d = 1
where at most two rods sit inside each other's well).

``PairPotential`` checks its numeric fields by the rules of ``errors``,
as every entry point does, and raises each refusal as a ConfigError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial
from typing import Mapping, Optional, Tuple

import numpy as np

from .errors import ConfigError, DomainError, _finite, _integer, _positive, _stability
from .quadrature import bond_levels, integrate_1d, sphere_surface

KINDS = ("hard_rod", "hard_sphere", "square_well", "custom_tabulated")

#: the largest dimension whose unit sphere and ball have finite positive
#: float measures, which c_beta and the Monte Carlo ball need: the ball's
#: Gamma(d/2 + 1) overflows from d = 342
MAX_DIMENSION = 341


@dataclass(frozen=True)
class PairPotential:
    """A radial pair interaction with core diameter ``sigma``.

    kind:
      hard_rod          infinite core in d = 1, zero beyond sigma
      hard_sphere       infinite core in d >= 1, zero beyond sigma
      square_well       infinite core, depth -epsilon on (sigma, lambda_w*sigma)
      custom_tabulated  linear interpolation of (r, V) samples inside a finite
                        cutoff radius, zero beyond

    Construction is the one check of a potential; each refusal is a
    ConfigError naming the field.  ``sigma``, ``epsilon``, ``lambda_w``,
    ``B`` and ``cutoff`` become floats, ``dimension`` an int (3.0 is 3) and
    ``table`` a tuple of float pairs, each number finite as a float (an int
    past the float range is refused) and no bool.
    sigma > 0; dimension is a whole number from 1 to MAX_DIMENSION, and 1 for hard_rod;
    B >= 0.  ``epsilon`` and ``lambda_w`` belong to square_well alone: it
    has lambda_w > 1, a finite range lambda_w*sigma and epsilon >= 0 (0
    when absent).  A table of (r, V) pairs with strictly increasing r, and
    a cutoff > 0, belong to custom_tabulated alone.  A square well, and a
    table that goes negative, need an explicit B; otherwise B is 0.
    """

    kind: str
    sigma: float
    dimension: int
    epsilon: Optional[float] = None
    lambda_w: Optional[float] = None
    B: Optional[float] = None
    table: Tuple[Tuple[float, float], ...] = ()
    cutoff: Optional[float] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown potential kind {self.kind!r}; want one of {KINDS}")
        fix = partial(object.__setattr__, self)
        fix("sigma", _positive("sigma", self.sigma, ConfigError))
        fix("dimension", _integer("dimension", self.dimension, 1, ConfigError))
        if self.dimension > MAX_DIMENSION:
            raise ConfigError(f"dimension must be at most {MAX_DIMENSION}, the last whose unit "
                              f"sphere and ball have finite float measures, got {self.dimension}")
        if self.kind == "hard_rod" and self.dimension != 1:
            raise ConfigError("hard_rod needs dimension 1; use hard_sphere for d > 1")
        for key in ("epsilon", "lambda_w"):
            value = getattr(self, key)
            if value is not None or self.kind == "square_well":
                # an absent well field reads 0: no depth, and too narrow a well
                fix(key, _finite(key, 0.0 if value is None else value, ConfigError))
                if self.kind != "square_well":
                    raise ConfigError(f"{key} is only valid for square_well, not {self.kind}")
        if self.kind == "square_well":
            if not self.lambda_w > 1.0:
                raise ConfigError("square_well needs well width ratio lambda_w > 1")
            if math.isinf(self.lambda_w * self.sigma):
                raise ConfigError("square_well range lambda_w*sigma overflows a float")
            if not self.epsilon >= 0:
                raise ConfigError("square_well well depth epsilon must be >= 0")
        if self.kind != "custom_tabulated":
            if self.table or self.cutoff is not None:
                key = "table" if self.table else "cutoff"
                raise ConfigError(f"{key} is only valid for custom_tabulated, not {self.kind}")
        else:
            rule = "(r, V) pairs of finite numbers"
            try:
                fix("table", tuple((_finite("table radius", r, ConfigError),
                                    _finite("table value", v, ConfigError))
                                   for r, v in self.table))
            except (TypeError, ValueError):
                raise ConfigError(f"table must be {rule}, got {self.table!r}") from None
            rs = [r for r, _ in self.table]
            if not rs or not all(b > a for a, b in zip(rs, rs[1:])):
                raise ConfigError("custom_tabulated needs a table with strictly increasing radii")
            fix("cutoff", _positive("cutoff", self.cutoff, ConfigError))
        if self.B is not None:
            fix("B", _stability(self.B, ConfigError))
        elif self.kind == "square_well" or not self.is_nonnegative:
            raise ConfigError(
                "a square well, and a table that goes negative, need an explicit stability "
                "constant B (e.g. half the maximal well-neighbor count times the well depth)")
        else:
            fix("B", 0.0)

    def to_config(self) -> dict:
        """The fields its kind uses, as the config ``potential_from_config`` reads back."""
        used = {"square_well": ("epsilon", "lambda_w"), "custom_tabulated": ("table", "cutoff")}
        return {key: getattr(self, key)
                for key in ("kind", "sigma", "dimension", "B", *used.get(self.kind, ()))}

    # -- shape queries ------------------------------------------------------

    @property
    def range_radius(self) -> float:
        """Radius beyond which the potential (and the bond function) vanishes."""
        return self.breakpoints()[-1]

    def breakpoints(self) -> Tuple[float, ...]:
        """Radii where the bond function jumps or kinks, ending at the range."""
        if self.kind == "square_well":
            return (self.sigma, self.lambda_w * self.sigma)
        if self.kind == "custom_tabulated":
            return (*(r for r, _ in self.table if 0 < r < self.cutoff), self.cutoff)
        return (self.sigma,)

    @property
    def piecewise_constant_bond(self) -> bool:
        """True when e^(-beta V) - 1 is piecewise constant in r."""
        return self.kind in ("hard_rod", "hard_sphere", "square_well")

    @property
    def is_nonnegative(self) -> bool:
        """True when V >= 0 everywhere (purely repulsive; B = 0 suffices)."""
        if self.kind in ("hard_rod", "hard_sphere"):
            return True
        if self.kind == "square_well":
            return self.epsilon == 0.0
        return all(v >= 0.0 for _, v in self.table)

    def value(self, r: float) -> float:
        """Potential value at separation r (math.inf inside the hard core)."""
        r = abs(r)
        if self.kind in ("hard_rod", "hard_sphere"):
            return math.inf if r < self.sigma else 0.0
        if self.kind == "square_well":
            if r < self.sigma:
                return math.inf
            if r < self.lambda_w * self.sigma:
                return -self.epsilon
            return 0.0
        if r >= self.cutoff:
            return 0.0
        rs, vs = zip(*self.table)
        return float(np.interp(r, rs, vs))


# ---------------------------------------------------------------------------
# bond function
# ---------------------------------------------------------------------------

def f_bond(p: PairPotential, beta: float, x) -> float:
    """e^(-beta V(x)) - 1 at separation ``x`` (vector or radius).

    Inside a hard core the value is exactly -1.  This scalar form is the
    reference that ``f_bond_array`` (the evaluator the integrals run) is
    tested against.
    """
    _positive("beta", beta, DomainError)
    if isinstance(x, (list, tuple, np.ndarray)):
        r = float(np.linalg.norm(np.asarray(x, dtype=float)))
    else:
        r = abs(float(x))
    v = p.value(r)
    if math.isinf(v):
        return -1.0
    if v == 0.0:
        return 0.0  # outside the range; expm1(-beta * 0.0) would be -0.0
    try:
        return math.expm1(-beta * v)
    except OverflowError:
        raise DomainError(f"-beta*V = {-beta * v:g} at r = {r:g} overflows e^(-beta V)") from None


def bond_level_values(p: PairPotential, beta: float) -> np.ndarray:
    """The bond value on each level of a piecewise constant bond.

    Level k holds the separations with k breakpoints at or below them
    (``quadrature.bond_levels``): the core is -1, a well e^(beta epsilon) - 1,
    and the outside 0.
    """
    if p.kind in ("hard_rod", "hard_sphere"):
        return np.array([-1.0, 0.0])
    if p.kind != "square_well":
        raise ValueError(f"a {p.kind} bond is not piecewise constant")
    try:
        well = math.expm1(beta * p.epsilon)
    except OverflowError:
        raise DomainError(
            f"beta*epsilon = {beta * p.epsilon:g} overflows e^(beta epsilon)") from None
    return np.array([-1.0, well, 0.0])


def f_bond_array(p: PairPotential, beta: float, r: np.ndarray) -> np.ndarray:
    """Vectorized bond function: ``bond_level_values`` read at each
    separation's bond level, or e^(-beta V) - 1 of the interpolated table."""
    r = np.abs(np.asarray(r, dtype=float))
    if p.piecewise_constant_bond:
        return bond_level_values(p, beta)[bond_levels(r, p.breakpoints())]
    rs, vs = np.array(p.table).T
    # as in PairPotential.value: the end samples held out to the cutoff, 0 beyond
    v = np.where(r >= p.cutoff, 0.0, np.interp(r, rs, vs))
    with np.errstate(over="ignore"):
        f = np.expm1(-beta * v)
    i = np.argmax(f == math.inf)  # the first overflow, if any
    if f.flat[i] == math.inf:
        raise DomainError(f"-beta*V = {-beta * v.flat[i]:g} at r = {r.flat[i]:g} "
                          "overflows e^(-beta V)")
    return f


def c_beta(p: PairPotential, beta: float) -> Tuple[float, float]:
    """Interaction volume: integral of |e^(-beta V(x)) - 1| over R^d.

    Computed radially as surface(d) * integral of r^(d-1) |f(r)| dr with the
    potential's discontinuity radii as quadrature breakpoints, and the radii
    where a table crosses zero between two samples, where |f| kinks.
    Returns the value and a mesh-doubling error estimate.
    """
    _positive("beta", beta, DomainError)
    d = p.dimension

    def integrand(r):
        return np.abs(f_bond_array(p, beta, r)) * r ** (d - 1)

    crossings = [r0 + (r1 - r0) * v0 / (v0 - v1)
                 for (r0, v0), (r1, v1) in zip(p.table, p.table[1:])
                 if min(v0, v1) < 0 < max(v0, v1)]
    val, err = integrate_1d(integrand, 0.0, p.range_radius,
                            breakpoints=(*p.breakpoints(), *crossings), tol=1e-12)
    s = sphere_surface(d)
    return s * val, s * err


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

# also the keys of the CLI's "potential" config section and the dests of its potential flags
CONFIG_KEYS = frozenset(f.name for f in fields(PairPotential))


def _parsed(key: str, value):
    """``value`` with each string in it read as a float, or ConfigError naming ``key``."""
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"invalid potential config value {key!r}: {value!r}") from None
    if isinstance(value, (list, tuple)):
        return [_parsed(key, item) for item in value]
    return value


def potential_from_config(cfg: Mapping) -> PairPotential:
    """The potential of a flat config mapping, the inverse of ``to_config``:
    unknown keys are refused, a null is an absent key, each string but the
    kind is read as a number, and ``PairPotential`` checks the rest."""
    unknown = sorted(set(cfg) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown potential config key(s): {', '.join(unknown)}")
    given = {key: value if key == "kind" else _parsed(key, value)
             for key, value in cfg.items() if value is not None}
    # an absent kind or sigma reaches the class as None, which it refuses by name
    return PairPotential(**{"kind": None, "sigma": None, "dimension": 1, **given})
