import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clusterkit.errors import ConfigError, DomainError
from clusterkit.potentials import (
    PairPotential,
    c_beta,
    f_bond,
    f_bond_array,
    potential_from_config,
)


def test_f_bond_hard_rod(rod):
    assert f_bond(rod, 1.0, 0.5) == -1.0
    assert f_bond(rod, 1.0, 2.0) == 0.0
    assert f_bond(rod, 3.7, -0.25) == -1.0  # sign of the separation is irrelevant


def test_f_bond_square_well(well):
    assert f_bond(well, 1.0, 1.2) == pytest.approx(math.e - 1.0, rel=1e-15)
    assert f_bond(well, 1.0, 0.3) == -1.0
    assert f_bond(well, 1.0, 1.6) == 0.0


def test_f_bond_vector_argument(sphere):
    assert f_bond(sphere, 1.0, (0.3, 0.4, 0.0)) == -1.0  # |x| = 0.5 < sigma
    assert f_bond(sphere, 1.0, (1.0, 1.0, 1.0)) == 0.0


def test_f_bond_array_matches_scalar(well):
    rs = np.linspace(0.0, 2.0, 41)
    arr = f_bond_array(well, 1.3, rs)
    for r, v in zip(rs, arr):
        assert v == pytest.approx(f_bond(well, 1.3, float(r)), abs=1e-15)
    # a table whose last sample falls short of its cutoff holds that V out to
    # the cutoff in both; math.expm1 and np.expm1 differ by an ulp at V = -1
    table = PairPotential("custom_tabulated", 1.0, 1,
                          table=((0.0, 2.0), (1.0, -1.0), (1.5, -1.0)), cutoff=3.0, B=1.0)
    rs = np.linspace(0.0, 4.0, 81)
    for r, v in zip(rs, f_bond_array(table, 1.0, rs)):
        want = f_bond(table, 1.0, float(r))
        assert abs(v - want) <= math.ulp(want), (r, v, want)


@st.composite
def constant_bonds(draw):
    """A piecewise constant bond, a beta, and separations on every breakpoint,
    at zero, beyond the range, NaN and in between."""
    sigma = draw(st.sampled_from([0.5, 1.0, 1.25]))
    kind = draw(st.sampled_from(["hard_rod", "hard_sphere", "square_well"]))
    if kind == "square_well":
        pot = PairPotential(kind, sigma, 1, epsilon=draw(st.floats(0.0, 5.0)),
                            lambda_w=draw(st.sampled_from([1.2, 1.5, 1.9])), B=1.0)
    else:
        pot = PairPotential(kind, sigma, 1 if kind == "hard_rod" else 3)
    cuts = pot.breakpoints()
    sep = st.one_of(st.sampled_from([0.0, *cuts, -cuts[0], 3.0 * cuts[-1], math.inf, math.nan]),
                    st.floats(-2.0 * cuts[-1], 2.0 * cuts[-1]))
    return pot, draw(st.floats(0.01, 10.0)), draw(st.lists(sep, min_size=1, max_size=30))


@settings(max_examples=100, deadline=None)
@given(constant_bonds())
def test_f_bond_array_is_bitwise_f_bond(case):
    pot, beta, rs = case
    want = np.array([f_bond(pot, beta, r) for r in rs])
    assert f_bond_array(pot, beta, np.array(rs)).tobytes() == want.tobytes()


def test_tabulated_overflow_names_minus_beta_v():
    pot = PairPotential("custom_tabulated", 1.0, 1,
                        table=((0.0, 5.0), (1.0, -800.0), (1.5, 0.0)), cutoff=1.5, B=800.0)
    with pytest.raises(DomainError, match=r"-beta\*V = 800 at r = 1 "):
        f_bond_array(pot, 1.0, np.array([0.5, 1.0, 1.2]))
    with pytest.raises(DomainError, match=r"-beta\*V = 800 at r = 1 "):
        f_bond(pot, 1.0, 1.0)
    with pytest.raises(DomainError, match=r"-beta\*V"):
        c_beta(pot, 1.0)


def test_bond_overflow_names_beta_epsilon():
    deep = PairPotential("square_well", 1.0, 1, epsilon=800.0, lambda_w=1.5, B=800.0)
    with pytest.raises(DomainError, match="800"):
        f_bond(deep, 1.0, 1.2)
    with pytest.raises(DomainError, match=r"beta\*epsilon = 800"):
        f_bond_array(deep, 1.0, np.array([1.2]))


def test_c_beta_hard_rod(rod):
    val, err = c_beta(rod, 0.7)
    assert val == pytest.approx(2.0, rel=1e-12)
    assert err < 1e-10


def test_c_beta_hard_sphere(sphere):
    val, err = c_beta(sphere, 2.0)
    assert val == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)


def test_c_beta_square_well(well):
    val, err = c_beta(well, 1.0)
    assert val == pytest.approx(2.0 + (math.e - 1.0), rel=1e-12)


def test_c_beta_monotone_in_beta(well, rod):
    vals = [c_beta(well, b)[0] for b in (0.25, 0.5, 1.0, 2.0)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    rod_vals = [c_beta(rod, b)[0] for b in (0.5, 1.0, 2.0)]
    assert max(rod_vals) - min(rod_vals) < 1e-12


def test_c_beta_tabulated_matches_analytic():
    # V rises linearly from 1 to 0 on [0, 1]: integral of |e^-V - 1| doable
    pot = PairPotential("custom_tabulated", 0.5, 1,
                        table=((0.0, 1.0), (1.0, 0.0)), cutoff=1.0)
    val, err = c_beta(pot, 1.0)
    # |f| = 1 - e^{-(1-r)}; integral over (0,1) is e^{-1}, doubled for d=1
    assert val == pytest.approx(2.0 * math.exp(-1.0), rel=1e-10)
    assert err <= 1e-8


def _tabulated_c_beta(table, beta):
    """C(beta) in d = 1 of a table that ends at its cutoff, in closed form:
    on a linear piece from v0 to v1 the integral of e^(-beta V) is
    (e^(-beta v0) - e^(-beta v1)) (r1 - r0) / (beta (v1 - v0)), and |f| has
    one sign on each side of a zero crossing."""
    total = 0.0
    for (r0, v0), (r1, v1) in zip(table, table[1:]):
        pieces = [(r0, v0, r1, v1)]
        if v0 * v1 < 0:
            rc = r0 + (r1 - r0) * v0 / (v0 - v1)
            pieces = [(r0, v0, rc, 0.0), (rc, 0.0, r1, v1)]
        for a, va, b, vb in pieces:
            total += abs((math.exp(-beta * va) - math.exp(-beta * vb)) * (b - a)
                         / (beta * (vb - va)) - (b - a))
    return 2.0 * total


@pytest.mark.parametrize("table", [
    ((0.0, 2.0), (1.0, -1.0), (1.5, 0.0)),
    ((0.0, 3.0), (0.5, 1.0), (1.0, -0.3), (1.4, 0.0)),
    ((0.0, 5.0), (1.0, -0.8), (1.5, 0.0)),
])
@pytest.mark.parametrize("beta", [1.0, 0.4])
def test_c_beta_of_a_table_crossing_zero_matches_closed_form(table, beta):
    # |f| kinks where V crosses zero between two samples; with that radius
    # among the breakpoints the first mesh is exact to rounding
    pot = PairPotential("custom_tabulated", 1.0, 1, table=table, cutoff=table[-1][0], B=1.0)
    val, err = c_beta(pot, beta)
    assert val == pytest.approx(_tabulated_c_beta(table, beta), rel=1e-13)
    assert err < 1e-13


def test_stability_constant_rules():
    assert PairPotential("hard_rod", 1.0, 1).B == 0.0
    with pytest.raises(ConfigError):
        PairPotential("square_well", 1.0, 1, epsilon=1.0, lambda_w=1.5)  # no B
    with pytest.raises(ConfigError, match="stability constant B"):
        PairPotential("custom_tabulated", 1.0, 1,
                      table=((0.0, 2.0), (1.0, -0.5), (2.0, 0.0)), cutoff=2.0)  # no B
    with pytest.raises(ConfigError):
        PairPotential("square_well", 1.0, 1, epsilon=1.0, lambda_w=0.9, B=1.0)
    with pytest.raises(ConfigError):
        PairPotential("hard_rod", -1.0, 1)
    with pytest.raises(ConfigError):
        PairPotential("hard_rod", 1.0, 3)


def test_tabulated_validation():
    with pytest.raises(ConfigError):
        PairPotential("custom_tabulated", 1.0, 1, table=(), cutoff=2.0)
    with pytest.raises(ConfigError):
        PairPotential("custom_tabulated", 1.0, 1,
                      table=((0.0, 1.0), (0.0, 2.0)), cutoff=2.0)
    with pytest.raises(ConfigError):
        PairPotential("custom_tabulated", 1.0, 1, table=((0.0, 1.0),))


def test_c_beta_divergence_guard():
    # an infinite support is refused where the potential is made, so c_beta
    # never integrates out to infinity
    with pytest.raises(ConfigError, match="cutoff must be positive and finite, got inf"):
        PairPotential("custom_tabulated", 1.0, 1, table=((0.0, 1.0), (1.0, 0.5)), cutoff=math.inf)
    with pytest.raises(ConfigError, match=r"range lambda_w\*sigma overflows"):
        PairPotential("square_well", 1e200, 1, epsilon=1.0, lambda_w=1e200, B=1.0)


def _names(message, key):
    return re.search(rf"\b{key}\b", message)


TABLE = ((0.0, 1.0), (1.0, 0.5))


REFUSED_FIELDS = [
    (("hard_sphere", 1.0, 2.5), {}, "dimension"),
    (("hard_sphere", 1.0, True), {}, "dimension"),
    (("hard_sphere", 1.0, math.nan), {}, "dimension"),
    (("hard_sphere", 1.0, "3"), {}, "dimension"),
    (("hard_rod", True, 1), {}, "sigma"),
    (("hard_rod", math.inf, 1), {}, "sigma"),
    (("hard_rod", 10 ** 400, 1), {}, "sigma"),
    (("hard_rod", "1.5", 1), {}, "sigma"),
    (("hard_rod", 1.0, 1), {"epsilon": math.nan}, "epsilon"),
    (("hard_rod", 1.0, 1), {"lambda_w": math.inf}, "lambda_w"),
    (("hard_rod", 1.0, 1), {"B": math.inf}, "B"),
    (("hard_rod", 1.0, 1), {"B": False}, "B"),
    (("hard_rod", 1.0, 1), {"table": TABLE, "cutoff": 2.0}, "table"),
    (("hard_sphere", 1.0, 3), {"cutoff": 2.0}, "cutoff"),
    (("square_well", 1.0, 1), {"epsilon": math.inf, "lambda_w": 1.5, "B": 1.0}, "epsilon"),
    (("custom_tabulated", 1.0, 1), {"table": TABLE, "cutoff": -1.0}, "cutoff"),
    (("custom_tabulated", 1.0, 1), {"table": TABLE, "cutoff": True}, "cutoff"),
    (("custom_tabulated", 1.0, 1), {"table": TABLE}, "cutoff"),
    (("custom_tabulated", 1.0, 1), {"table": ((0.0, math.nan),), "cutoff": 1.0}, "table"),
    (("custom_tabulated", 1.0, 1), {"table": ((0.0, 1.0), (math.inf, 0.0)), "cutoff": 1.0},
     "table"),
    (("custom_tabulated", 1.0, 1), {"table": ((0.0, True),), "cutoff": 1.0}, "table"),
    (("custom_tabulated", 1.0, 1), {"table": ((0.0, 1.0, 2.0),), "cutoff": 1.0}, "table"),
    (("custom_tabulated", 1.0, 1), {"table": 5, "cutoff": 1.0}, "table"),
    (("custom_tabulated", 1.0, 1), {"table": (), "cutoff": 1.0}, "table"),
    # the unit ball's volume overflows from d = 342, its Gamma(d/2 + 1) first
    (("hard_sphere", 1.0, 342), {}, "dimension"),
    (("hard_sphere", 1.0, 400), {}, "dimension"),
    (("hard_sphere", 1.0, 10 ** 300), {}, "dimension"),
    # the well fields belong to square_well alone
    (("hard_rod", 1.0, 1), {"epsilon": 5.0}, "epsilon"),
    (("hard_sphere", 1.0, 3), {"epsilon": 0.0}, "epsilon"),
    (("hard_sphere", 1.0, 3), {"lambda_w": 1.5}, "lambda_w"),
    (("custom_tabulated", 1.0, 1), {"table": TABLE, "cutoff": 1.0, "epsilon": 1.0}, "epsilon"),
    # the rules of clusterkit.errors, by their texts: an int past the float
    # range is refused as inf is
    (("hard_sphere", 1.0, 2.5), {}, "dimension must be an integer >= 1, got 2.5"),
    (("hard_sphere", 1.0, 342), {}, "dimension must be at most 341"),
    (("hard_sphere", 1.0, 10 ** 400), {}, "dimension must be at most 341"),
    (("custom_tabulated", 1.0, 1), {"table": ((0.0, 10 ** 400),), "cutoff": 1.0},
     "table value must be finite"),
    (("custom_tabulated", 1.0, 1), {"table": ((math.nan, 1.0),), "cutoff": 1.0},
     "table radius must be finite"),
    (("hard_rod", 1.0, 1), {"B": 10 ** 400}, "stability constant B must be >= 0 and finite"),
    (("square_well", 1.0, 1), {"epsilon": 10 ** 400, "lambda_w": 1.5, "B": 1.0},
     "epsilon must be finite"),
    (("square_well", 1.0, 1), {"epsilon": 1.0, "lambda_w": -10 ** 400, "B": 1.0},
     "lambda_w must be finite"),
    (("custom_tabulated", 1.0, 1), {"table": TABLE, "cutoff": 10 ** 400},
     "cutoff must be positive and finite"),
]


@pytest.mark.parametrize("args, kwargs, key", REFUSED_FIELDS,
                         ids=[f"{key}_{i}" for i, (_, _, key) in enumerate(REFUSED_FIELDS)])
def test_construction_refuses_naming_the_field(args, kwargs, key):
    with pytest.raises(ConfigError) as exc:
        PairPotential(*args, **kwargs)
    assert _names(str(exc.value), key), exc.value


def test_largest_dimension_has_finite_positive_measures():
    # d = 341 is the last dimension whose unit sphere and ball both have
    # finite positive float measures; d = 342 is refused above
    assert PairPotential("hard_sphere", 1.0, 341).dimension == 341
    assert 0.0 < c_beta(PairPotential("hard_sphere", 1.0, 341), 1.0)[0] < math.inf


def test_construction_normalizes_the_fields():
    pot = PairPotential("custom_tabulated", 1, 2.0, B=np.float64(1),
                        table=[[0, 2], [1, -1], [np.int64(3), 0]], cutoff=3)
    assert pot == PairPotential("custom_tabulated", 1.0, 2, B=1.0,
                                table=((0.0, 2.0), (1.0, -1.0), (3.0, 0.0)), cutoff=3.0)
    assert [type(getattr(pot, key)) for key in ("sigma", "dimension", "B", "cutoff")] == [
        float, int, float, float]
    # the well fields belong to square_well alone, and stay absent elsewhere
    assert pot.epsilon is None and pot.lambda_w is None
    assert {type(x) for pair in pot.table for x in pair} == {float}
    assert type(pot.table) is tuple and all(type(pair) is tuple for pair in pot.table)
    well = PairPotential("square_well", 1, 1, lambda_w=np.int64(2), B=1)
    assert (type(well.epsilon), type(well.lambda_w)) == (float, float)
    # an absent well depth is 0.0, as it reads in every report record
    assert well.epsilon == 0.0 and well == PairPotential("square_well", 1.0, 1, 0.0, 2.0, 1.0)


def test_config_loader():
    pot = potential_from_config({"kind": "square_well", "sigma": 1.0,
                                 "epsilon": 0.5, "lambda_w": 2.0, "B": 0.5,
                                 "dimension": 1})
    assert pot.lambda_w == 2.0
    with pytest.raises(ConfigError, match="color"):
        potential_from_config({"kind": "hard_rod", "sigma": 1.0, "color": "red"})
    with pytest.raises(ConfigError):
        potential_from_config({"sigma": 1.0})
    with pytest.raises(ConfigError):
        potential_from_config({"kind": "hard_rod", "sigma": 1.0, "cutoff": 3.0})
    # a value that does not convert is refused under its key
    table = {"kind": "custom_tabulated", "sigma": 1.0, "table": [[0, 1], [1, 0]], "cutoff": 1.0}
    for key, value in (("sigma", "abc"), ("dimension", "x"), ("dimension", 2.5),
                       ("dimension", float("inf")), ("epsilon", [1]), ("B", "b"),
                       ("table", 5), ("table", [[0, 1, 2]]), ("cutoff", "far"),
                       ("sigma", True), ("dimension", True), ("sigma", 1e400),
                       ("cutoff", -1), ("table", [[0, "x"]])):
        with pytest.raises(ConfigError) as exc:
            potential_from_config({**table, key: value})
        assert _names(str(exc.value), key), exc.value
    # an integral float is the integer, not truncated
    assert potential_from_config({"kind": "hard_sphere", "sigma": 1, "dimension": 3.0}).dimension == 3
    # strings are read as numbers, a table's too
    assert potential_from_config({**table, "sigma": "1.5", "table": [["0", 1], [1, "0"]],
                                  "dimension": "1"}) == PairPotential(
        "custom_tabulated", 1.5, 1, table=((0.0, 1.0), (1.0, 0.0)), cutoff=1.0)


#: one valid config of each kind
CONFIGS = [
    {"kind": "hard_rod", "sigma": 1.0},
    {"kind": "hard_sphere", "sigma": 0.5, "dimension": 3},
    {"kind": "square_well", "sigma": 1.0, "epsilon": 1.0, "lambda_w": 1.5, "B": 1.0},
    {"kind": "custom_tabulated", "sigma": 1.0, "table": [[0, 2], [1, -1], [1.5, 0]],
     "cutoff": 1.5, "B": 1.0},
]

_finite = st.floats(-3.0, 3.0) | st.integers(-3, 3)
#: values no field takes, with True for "must be refused"
_refused = st.sampled_from([math.inf, -math.inf, math.nan, True, False, 1e400, 10 ** 400,
                            "inf", "nan", "-1e400", [1.0], {"r": 1.0}]).map(lambda v: (v, True))


@st.composite
def redrawn_configs(draw):
    """A valid config with one field redrawn: (config, key, whether it must be refused)."""
    cfg = dict(draw(st.sampled_from(CONFIGS)))
    key = draw(st.sampled_from(["sigma", "dimension", "epsilon", "lambda_w", "B",
                                "table", "cutoff"]))
    tabulated = cfg["kind"] == "custom_tabulated"
    if key == "table":
        entry = _finite | st.sampled_from([math.nan, math.inf])
        value, refused = draw(st.lists(st.tuples(entry, _finite), max_size=4)
                              .map(lambda t: (t, bool(t) and not tabulated)))
    elif key == "dimension":
        value, refused = draw(st.integers(-1, 4).map(lambda v: (v, False))
                              | st.floats(0.5, 4.0).map(lambda v: (v, not v.is_integer()))
                              | _refused)
    else:
        value, refused = draw((_finite | _finite.map(str)).map(lambda v: (v, False)) | _refused)
        refused = (refused or key == "cutoff" and not tabulated
                   or key in ("epsilon", "lambda_w") and cfg["kind"] != "square_well")
    cfg[key] = value
    return cfg, key, refused


@settings(max_examples=200, deadline=None)
@given(redrawn_configs())
def test_loader_and_class_agree(case):
    cfg, key, refused = case
    # the class takes each string as the number it reads as
    kwargs = {"dimension": 1, **{k: float(v) if isinstance(v, str) and k != "kind" else v
                                 for k, v in cfg.items()}}
    try:
        want = PairPotential(**kwargs)
    except ConfigError as exc:
        with pytest.raises(ConfigError) as got:
            potential_from_config(cfg)
        assert str(got.value) == str(exc)
        assert _names(str(exc), key), (key, exc)
        return
    assert not refused
    assert potential_from_config(cfg) == want
    # a report record of the potential loads back as the same potential
    record = json.loads(json.dumps(want.to_config()))
    back = potential_from_config(record)
    assert back.to_config() == want.to_config()
    if key in record:
        assert back == want


@pytest.mark.parametrize("cfg", CONFIGS, ids=[cfg["kind"] for cfg in CONFIGS])
def test_report_record_loads_back(cfg):
    pot = potential_from_config(cfg)
    record = json.loads(json.dumps(pot.to_config()))
    assert potential_from_config(record) == pot
    assert set(record) == {"kind", "sigma", "dimension", "B"} | {
        "square_well": {"epsilon", "lambda_w"}, "custom_tabulated": {"table", "cutoff"}
    }.get(pot.kind, set())


def test_breakpoints(well, rod):
    assert rod.breakpoints() == (1.0,)
    assert well.breakpoints() == (1.0, 1.5)
    assert well.range_radius == 1.5


def test_is_nonnegative(rod, sphere, well):
    assert rod.is_nonnegative and sphere.is_nonnegative
    assert not well.is_nonnegative
    flat = PairPotential("square_well", 1.0, 1, epsilon=0.0, lambda_w=1.5, B=0.0)
    assert flat.is_nonnegative
