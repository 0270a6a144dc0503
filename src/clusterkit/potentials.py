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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

import numpy as np

from .errors import ConfigError, DivergenceError, DomainError
from .quadrature import bond_levels, integrate_1d, sphere_surface

KINDS = ("hard_rod", "hard_sphere", "square_well", "custom_tabulated")


@dataclass(frozen=True)
class PairPotential:
    """A radial pair interaction with core diameter ``sigma``.

    kind:
      hard_rod          infinite core in d = 1, zero beyond sigma
      hard_sphere       infinite core in d >= 1, zero beyond sigma
      square_well       infinite core, depth -epsilon on (sigma, lambda_w*sigma)
      custom_tabulated  linear interpolation of (r, V) samples inside a finite
                        cutoff radius, zero beyond
    """

    kind: str
    sigma: float
    dimension: int
    epsilon: float = 0.0
    lambda_w: float = 0.0
    B: Optional[float] = None
    table: Tuple[Tuple[float, float], ...] = ()
    cutoff: Optional[float] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown potential kind {self.kind!r}; want one of {KINDS}")
        if not self.sigma > 0:
            raise ConfigError("sigma must be positive")
        if self.dimension < 1:
            raise ConfigError("dimension must be a positive integer")
        if self.kind == "hard_rod" and self.dimension != 1:
            raise ConfigError("hard_rod is one-dimensional; use hard_sphere for d > 1")
        if self.kind == "square_well":
            if not self.lambda_w > 1.0:
                raise ConfigError("square_well needs well width ratio lambda_w > 1")
            if not self.epsilon >= 0:
                raise ConfigError("square_well well depth epsilon must be >= 0")
            if self.B is None:
                raise ConfigError(
                    "square_well needs an explicit stability constant B "
                    "(e.g. half the maximal well-neighbor count times epsilon)"
                )
        if self.kind == "custom_tabulated":
            if not self.table:
                raise ConfigError("custom_tabulated needs (r, V) samples")
            rs = [r for r, _ in self.table]
            if not all(b > a for a, b in zip(rs, rs[1:])):
                raise ConfigError("table radii must be strictly increasing")
            if self.cutoff is None:
                raise ConfigError("custom_tabulated needs an explicit finite cutoff radius")
            if self.B is None and not self.is_nonnegative:
                raise ConfigError(
                    "custom_tabulated table goes negative, so it needs an explicit "
                    "stability constant B"
                )
        if self.B is None:
            object.__setattr__(self, "B", 0.0)
        if not self.B >= 0:
            raise ConfigError("stability constant B must be >= 0")

    # -- shape queries ------------------------------------------------------

    @property
    def range_radius(self) -> float:
        """Radius beyond which the potential (and the bond function) vanishes."""
        if self.kind == "square_well":
            return self.lambda_w * self.sigma
        if self.kind == "custom_tabulated":
            return float(self.cutoff)
        return self.sigma

    def breakpoints(self) -> Tuple[float, ...]:
        """Radii where the bond function jumps or kinks."""
        if self.kind == "square_well":
            return (self.sigma, self.lambda_w * self.sigma)
        if self.kind == "custom_tabulated":
            knots = [r for r, _ in self.table if 0 < r < self.cutoff]
            return tuple(sorted(set(knots) | {self.cutoff}))
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
    if not beta > 0:
        raise DomainError("beta must be positive")
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
    potential's discontinuity radii as quadrature breakpoints.  Returns the
    value and a mesh-doubling error estimate.
    """
    if not beta > 0:
        raise DomainError("beta must be positive")
    top = p.range_radius
    if not math.isfinite(top):
        raise DivergenceError("potential support is not finite; C(beta) undefined here")
    d = p.dimension

    def integrand(r):
        return np.abs(f_bond_array(p, beta, r)) * r ** (d - 1)

    val, err = integrate_1d(integrand, 0.0, top, breakpoints=p.breakpoints(), tol=1e-12)
    s = sphere_surface(d)
    return s * val, s * err


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

# also the keys of the CLI's "potential" config section and the dests of its potential flags
CONFIG_KEYS = {"kind", "sigma", "epsilon", "lambda_w", "B", "dimension", "table", "cutoff"}


def _config_value(cfg: Mapping, key: str, convert=float, default=None):
    """``convert(cfg[key])``, or ``default`` when the key is absent or null;
    a value that does not convert raises ConfigError naming the key."""
    value = cfg.get(key)
    if value is None:
        return default
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ConfigError(f"invalid potential config value {key!r}: {value!r}") from None


def _integral(value) -> int:
    """``int(value)``, refusing a float with a fractional part (or NaN, or an
    infinity) rather than truncating it."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return int(value)


def potential_from_config(cfg: Mapping) -> PairPotential:
    """Build a potential from a flat config mapping, rejecting unknown keys
    and naming the key of a value that is not a number (or, for 'table', a
    list of (r, V) pairs)."""
    unknown = sorted(set(cfg) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown potential config key(s): {', '.join(unknown)}")
    if "kind" not in cfg:
        raise ConfigError("potential config needs a 'kind'")
    kind = cfg["kind"]
    if kind not in KINDS:
        raise ConfigError(f"unknown potential kind {kind!r}; want one of {KINDS}")
    if cfg.get("sigma") is None:
        raise ConfigError("potential config needs 'sigma'")
    if kind != "custom_tabulated" and ("table" in cfg or "cutoff" in cfg):
        raise ConfigError("'table'/'cutoff' are only valid for custom_tabulated")
    kwargs = dict(
        kind=kind,
        sigma=_config_value(cfg, "sigma"),
        dimension=_config_value(cfg, "dimension", _integral, 1),
        epsilon=_config_value(cfg, "epsilon", default=0.0),
        lambda_w=_config_value(cfg, "lambda_w", default=0.0),
        B=_config_value(cfg, "B"),
    )
    if kind == "custom_tabulated":
        kwargs["table"] = _config_value(
            cfg, "table", lambda t: tuple((float(r), float(v)) for r, v in t), ())
        kwargs["cutoff"] = _config_value(cfg, "cutoff")
    return PairPotential(**kwargs)
