"""Command-line interface.

Subcommands:
  radii      radius/bound report from (u) or (beta, B, C) or a potential
  mayer      fugacity-series coefficient table with bound column
  virial     density-series coefficients by all available routes
  polymer    xi / ursell / fpcheck / pexact / ckn actions on [N]
  canonical  series-vs-direct free-energy comparison report
  verify     run named invariant suites, one PASS/FAIL line each

Exit status: 0 success, 1 verification failure, 2 invalid input.

``build_parser`` declares each flag once, with its type, choices and
default.  The type is the one check of a flag's value: counts are integers
>= 1, floats are finite, and --volume, --zeta and --s are parsed whole, so
a bad value exits 2 naming the flag before any subcommand runs.  A JSON
config file can predefine flags per subcommand: a section's keys are the
dests of its subcommand's flags, and each value is parsed by that flag's
type and choices, as if it were given on the command line, so a bad one
exits 2 naming the key.  A shared "potential" section takes the keys of
``potentials.potential_from_config``.  The command line beats the config,
key by key, which beats the flag's default; unknown sections and keys are
rejected by name.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from collections import Counter
from contextlib import redirect_stdout, suppress
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import __version__, tonks
from .canonical import compare_series_direct
from .cluster import ROUTE_CAPS, mayer_bn, penrose_bn_bound, virial_bk_direct
from .errors import CapacityError, ClusterKitError, ConfigError
from .polymer import (XI_BRUTEFORCE_MAX_N, ActivityProfile, ck_finite_N, fp_check, log_xi_ursell,
                      p_exact, p_limit, xi_exact)
from .potentials import CONFIG_KEYS, PairPotential, c_beta, potential_from_config
from .radii import radius_report
from .reporting import (dump_csv, dump_json, float_or_none, json_payload, output_dir,
                        render_table)
from .series import invert_mayer_oracle, virial_from_mayer
from .verify import SUITES, run_checks


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _real(text: str) -> float:
    """The type of every float flag: a float that is not infinite.

    An infinity, typed or overflowing like 1e400, is refused here, where
    the error names the flag.  NaN passes on to the input checks, which
    refuse it by name too.
    """
    value = float(text)
    if math.isinf(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _count(text: str) -> int:
    """The type of every count flag: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _volume(text: str) -> Optional[float]:
    """The type of --volume: None (infinite) for 'inf', 'infinite' or '', else a finite
    positive box side."""
    if text in ("inf", "infinite", ""):
        return None
    with suppress(ValueError):
        if 0 < float(text) < math.inf:
            return float(text)
    raise argparse.ArgumentTypeError(f"must be 'inf' or a finite positive box side, got {text!r}")


def _zeta(text: str) -> Dict[int, object]:
    """The type of --zeta: activities like '2=0.5,3=-1/3', a Fraction where there is a '/'.

    A size given twice (as 2 and 02 too) is refused by name, and so is a NaN
    or infinite float, typed or overflowing like 1e400.
    """
    try:
        pairs = [(int(key), Fraction(val) if "/" in val else float(val))
                 for key, _, val in (item.partition("=") for item in text.split(","))]
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"want activities like '2=0.5,3=-1/3', got {text!r}") from None
    repeated = [m for m, count in Counter(m for m, _ in pairs).items() if count > 1]
    if repeated:
        raise argparse.ArgumentTypeError(f"zeta_{repeated[0]} is given more than once in {text!r}")
    if not all(math.isfinite(z) for _, z in pairs if isinstance(z, float)):
        raise argparse.ArgumentTypeError(f"activities must be finite, got {text!r}")
    return dict(pairs)


def _sizes(text: str) -> Tuple[int, ...]:
    """The type of --s: part sizes like '2,3'."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"want part sizes like '2,3', got {text!r}") from None


def _add_potential_args(sp: argparse.ArgumentParser, beta: bool = True):
    # the dests of the potential flags are potential config keys; --beta is
    # offered only where the report depends on it
    sp.add_argument("--potential", dest="kind",
                    choices=("hard_rod", "hard_sphere", "square_well"), help="potential kind")
    sp.add_argument("--sigma", type=_real, help="core diameter (default 1)")
    sp.add_argument("--epsilon", type=_real, help="well depth (square_well)")
    sp.add_argument("--lambda-w", dest="lambda_w", type=_real,
                    help="well width ratio (square_well)")
    sp.add_argument("--B", type=_real, help="declared stability constant")
    sp.add_argument("--dimension", type=int, help="spatial dimension")
    if beta:
        sp.add_argument("--beta", type=_real, default=1.0, help="inverse temperature")


def _add_sampling_args(sp: argparse.ArgumentParser, methods):
    """The route flags of mayer, virial and canonical; the first method is the
    default.  The direct routes are the keys of ``cluster.ROUTE_CAPS``."""
    sp.add_argument("--method", choices=methods, default=methods[0])
    sp.add_argument("--samples", type=_count, help="Monte Carlo samples (default: the library's)")
    sp.add_argument("--chunk", type=_count, help="Monte Carlo samples per chunk")
    sp.add_argument("--seed", type=int, help="Monte Carlo seed, mandatory for monte_carlo")
    sp.add_argument("--workers", type=_count, default=os.cpu_count() or 1,
                    help="worker hint; results are worker-count independent")


def _add_output_args(sp: argparse.ArgumentParser, row_formats=()):
    """--out, and --format where the report has rows to print as ``row_formats``."""
    sp.add_argument("--out", help="output file (default: stdout)")
    if row_formats:
        sp.add_argument("--format", choices=("json", *row_formats), default="json",
                        help="output format")


def build_parser(config: Optional[dict] = None) -> argparse.ArgumentParser:
    """The clusterkit parser; a loaded ``config`` sets the flags' defaults."""
    ap = argparse.ArgumentParser(prog="clusterkit",
                                 description="cluster-expansion toolkit")
    ap.add_argument("--version", action="version", version=f"clusterkit {__version__}")
    ap.add_argument("--config", help="JSON config file with per-subcommand defaults")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("radii", help="radius and bound report")
    sp.set_defaults(run=_cmd_radii)
    sp.add_argument("--u", type=_real,
                    help="combined variable e^(2 beta B); sets beta = 1 and B = ln(u)/2")
    sp.add_argument("--cbeta", type=_real, help="interaction volume C(beta)")
    sp.add_argument("--k-max", dest="k_max", type=_count, default=8)
    _add_potential_args(sp)
    # unset unless given, so that --u can refuse a --beta it would override
    sp.set_defaults(beta=None)
    _add_output_args(sp, ("table",))

    sp = sub.add_parser("mayer", help="fugacity-series coefficient table")
    sp.set_defaults(run=_cmd_mayer)
    _add_potential_args(sp)
    sp.add_argument("--n", type=_count, default=4, help="highest order")
    sp.add_argument("--volume", type=_volume, help="'inf' (default) or a box side")
    _add_sampling_args(sp, tuple(ROUTE_CAPS))
    _add_output_args(sp, ("csv", "table"))

    sp = sub.add_parser("virial", help="density-series coefficients, all routes")
    sp.set_defaults(run=_cmd_virial)
    _add_potential_args(sp)
    sp.add_argument("--k-max", dest="k_max", type=_count, default=3)
    _add_sampling_args(sp, tuple(ROUTE_CAPS))
    _add_output_args(sp, ("csv", "table"))

    sp = sub.add_parser("polymer", help="subset-polymer operations")
    sp.set_defaults(run=_cmd_polymer)
    sp.add_argument("action", choices=("xi", "ursell", "fpcheck", "pexact", "ckn"))
    sp.add_argument("--n-ground", dest="n_ground", type=_count,
                    help="ground-set size N")
    sp.add_argument("--zeta", type=_zeta, help="activities like '2=0.5,3=-1/3'")
    sp.add_argument("--orders", type=_count, default=3, help="expansion order (ursell)")
    sp.add_argument("--a", type=_real, help="weight parameter (fpcheck)")
    sp.add_argument("--rho", type=_real, help="density for derived activities")
    sp.add_argument("--s", type=_sizes, help="part sizes like '2,3' (pexact)")
    sp.add_argument("--k", type=_count, default=1, help="coefficient order (ckn)")
    _add_potential_args(sp, beta=False)
    _add_output_args(sp)

    sp = sub.add_parser("canonical", help="series-vs-direct comparison")
    sp.set_defaults(run=_cmd_canonical)
    _add_potential_args(sp)
    sp.add_argument("--L", type=_real)
    sp.add_argument("--N", type=_count)
    sp.add_argument("--k-max", dest="k_max", type=_count, default=6)
    _add_sampling_args(sp, ("auto", "tonks_closed", *ROUTE_CAPS))
    _add_output_args(sp)

    sp = sub.add_parser("verify", help="run invariant suites")
    sp.set_defaults(run=_cmd_verify)
    sp.add_argument("--suite", choices=SUITES, default="all")
    sp.add_argument("--out", help="also write results as JSON")

    config = config or {}
    unknown = sorted(set(config) - set(sub.choices) - {"potential"})
    if unknown:
        raise ConfigError(f"unknown config section(s): {', '.join(unknown)}")
    ap.set_defaults(potential_config=_config_section(config, "potential", CONFIG_KEYS))
    for name, sp in sub.choices.items():
        sp.set_defaults(**_config_defaults(sp, name, config))
    return ap


def _config_section(config: dict, name: str, keys) -> dict:
    """One config section, rejecting keys outside ``keys``."""
    body = config.get(name, {})
    if not isinstance(body, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    bad = sorted(set(body) - set(keys))
    if bad:
        raise ConfigError(f"unknown key(s) in config section {name!r}: {', '.join(bad)}")
    return body


def _config_defaults(sp: argparse.ArgumentParser, name: str, config: dict) -> dict:
    """A subcommand's config section, each value parsed as its flag parses it.

    The keys are the dests of the subcommand's flags, less the potential
    flags, whose values come from the "potential" section.  A value that is
    not a string is parsed as its JSON text; a null leaves the flag's default.
    """
    flags = {a.dest: a for a in sp._actions
             if a.option_strings and a.dest != "help" and a.dest not in CONFIG_KEYS}
    defaults = {}
    for key, value in _config_section(config, name, flags).items():
        if value is None:
            continue
        flag = flags[key]
        text = value if isinstance(value, str) else json.dumps(value)
        try:
            parsed = flag.type(text) if flag.type else text
            valid = flag.choices is None or parsed in flag.choices
        except (ValueError, argparse.ArgumentTypeError):
            valid = False
        if not valid:
            choices = f" (choose from {', '.join(flag.choices)})" if flag.choices else ""
            raise ConfigError(
                f"invalid {key!r} value {value!r} in config section {name!r}{choices}")
        defaults[key] = parsed
    return defaults


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    return cfg


def _potential_from_args(args) -> Optional[PairPotential]:
    """The potential flags given on the command line over the config's
    "potential" section, key by key; --potential starts a new potential, of
    sigma 1 and, for hard_sphere, dimension 3 unless its flags say otherwise."""
    given = {key: getattr(args, key) for key in CONFIG_KEYS
             if getattr(args, key, None) is not None}
    if args.kind is not None:
        return potential_from_config(
            {"sigma": 1.0, "dimension": 3 if args.kind == "hard_sphere" else 1, **given})
    if args.potential_config:
        return potential_from_config({**args.potential_config, **given})
    return None


def _sampling(args) -> dict:
    """Keyword arguments of the sampled routes; unset ones keep the library's defaults."""
    if args.method == "monte_carlo" and args.seed is None:
        raise ConfigError("--seed is mandatory for monte_carlo")
    return {key: getattr(args, key) for key in ("seed", "samples", "chunk", "workers")
            if getattr(args, key) is not None}


def _emit(args, payload: dict, rows=None, header=None, preamble: str = ""):
    """Write the JSON payload, or the rows as csv or a table, to --out or stdout."""
    fmt = getattr(args, "format", "json")
    if fmt == "json":
        text = dump_json(payload)
    elif fmt == "csv":
        text = dump_csv(header, rows)
    else:
        text = preamble + render_table(header, rows) + "\n"
    _write(args, text)


def _write(args, text: str) -> None:
    """The one output writer: ``text`` as is to the --out file (a relative
    path is under ``reporting.output_dir()``), or to stdout without one."""
    if not getattr(args, "out", None):
        sys.stdout.write(text)
        return
    with open(os.path.join(output_dir(), args.out), "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_radii(args) -> int:
    pot = _potential_from_args(args)
    beta = 1.0 if args.beta is None else args.beta
    if args.u is not None:
        if not args.u >= 1.0:
            raise ConfigError("--u must be >= 1")
        for flag, value in (("--beta", args.beta), ("--B", args.B), ("--potential", args.kind)):
            if value is not None:
                raise ConfigError(f"--u sets beta = 1 and B = ln(u)/2, so it cannot take {flag}")
        beta, B = 1.0, math.log(args.u) / 2.0
        cb = args.cbeta if args.cbeta is not None else 1.0
    elif args.cbeta is not None:
        B = args.B if args.B is not None else 0.0
        cb = args.cbeta
    elif pot is not None:
        B = pot.B
        cb, _ = c_beta(pot, beta)
    else:
        raise ConfigError("radii needs --u, or --cbeta, or a potential")
    report = radius_report(beta, B, cb, k_orders=tuple(range(1, args.k_max + 1)))
    preamble = (
        f"u = {report.u:.10g}\n"
        f"F(u) = {report.F:.10g}   maximizer a* = {report.a_star:.10g}\n"
        f"g(u) = {report.g:.10g}   maximizer w* = {report.w_star:.10g}\n"
        f"K* = {report.k_star_closed:.10g} (series check {report.k_star_series:.10g})\n"
        f"density radius = {report.rho_star:.10g}\n"
        f"fugacity radius = {report.mayer_radius:.10g}\n"
        f"base constant (computed a*) = {report.base_constant:.10g}\n"
        f"base constant (reference a = {report.a_reference}) = "
        f"{report.base_constant_reference:.10g}"
        + ("  [discrepancy flagged]\n" if report.a_discrepancy_flagged else "\n")
    )
    rows = [[b.k, b.ours, b.lp] for b in report.bounds]
    _emit(args, json_payload("radius_report", report.to_dict()), rows=rows,
          header=["k", "bound_ours", "bound_lp"], preamble=preamble)
    return 0


def _require_potential(args) -> PairPotential:
    pot = _potential_from_args(args)
    if pot is None:
        raise ConfigError("this subcommand needs a potential (--potential ...)")
    return pot


def _cmd_mayer(args) -> int:
    pot = _require_potential(args)
    sampling = _sampling(args)
    cb, _ = c_beta(pot, args.beta)
    # every bound before the first integral, so an overflowing one fails fast
    bounds = [penrose_bn_bound(n, args.beta, pot.B, cb) if n >= 2 else 1.0
              for n in range(1, args.n + 1)]
    # the highest order first, so a route that refuses it runs no other integral
    b = {n: mayer_bn(pot, args.beta, n, args.volume, args.method, **sampling)
         for n in range(args.n, 0, -1)}
    rows = []
    records = []
    for n, bound in enumerate(bounds, start=1):
        val, err = b[n]
        rows.append([f"b_{n}", n, args.beta, val, err, bound])
        records.append({
            "quantity": "b_n", "n": n, "beta": args.beta,
            "potential": pot.to_config(),
            "volume": args.volume, "value": val, "error": err,
            "penrose_bound": bound,
            "method": args.method, "seed": args.seed,
        })
    payload = json_payload("mayer_table", {"records": records, "cbeta": cb})
    _emit(args, payload, rows=rows,
          header=["quantity", "n", "beta", "value", "error", "penrose_bound"])
    return 0


def _cmd_virial(args) -> int:
    pot = _require_potential(args)
    sampling = _sampling(args)
    k_max = args.k_max
    # b_(k_max+1) first, so a route that refuses it runs no other integral;
    # one past the route's cap is refused as canonical refuses it, by k_max
    try:
        b = {n: mayer_bn(pot, args.beta, n, method=args.method, **sampling)[0]
             for n in range(k_max + 1, 1, -1)}
    except CapacityError as exc:
        cap = ROUTE_CAPS[args.method]["connected"]
        if k_max + 1 <= cap or args.method == "quadrature" and pot.dimension != 1:
            raise  # the node guard's own refusal, or no order runs
        raise CapacityError(f"k_max={k_max} needs b_{k_max + 1}, but {exc}; "
                            f"the largest k_max that runs is {cap - 1}") from None
    b[1] = 1.0
    inv = invert_mayer_oracle(b, k_max)
    rows = []
    records = []
    for k in range(1, k_max + 1):
        transform = float(virial_from_mayer(b, k))
        inversion = float(inv.values[k])
        # the direct row: the pair integral at k = 1, quadrature within its caps beyond
        direct, derr = None, None
        if k == 1 or args.method == "quadrature":
            with suppress(CapacityError):
                direct, derr = virial_bk_direct(pot, args.beta, k)
        closed = tonks.beta_k_value(k, pot.sigma) if pot.kind == "hard_rod" else None
        rows.append([k, transform, "mayer_transform", 0.0])
        rows.append([k, inversion, "inversion_oracle", 0.0])
        if direct is not None:
            rows.append([k, direct, "direct_integral", derr])
        if closed is not None:
            rows.append([k, closed, "closed_form", 0.0])
        records.append({
            "quantity": "beta_k", "k": k, "beta": args.beta,
            "potential": pot.to_config(),
            "transform": transform, "inversion": inversion,
            "direct": direct, "direct_error": derr,
            "closed_form": closed,
            "method": args.method, "seed": args.seed,
        })
    payload = json_payload("virial_table", {"records": records})
    _emit(args, payload, rows=rows, header=["k", "C_k", "source", "error"])
    return 0


def _polymer_profile(args) -> ActivityProfile:
    N = args.n_ground
    if args.zeta:
        return ActivityProfile(N, args.zeta)
    pot = _potential_from_args(args)
    if pot is not None and args.rho is not None:
        if pot.kind != "hard_rod":
            raise ConfigError("derived activities are implemented for hard rods")
        b = {s: _rod_bn(s, pot.sigma) for s in range(2, N + 1)}
        return ActivityProfile.from_mayer(b, N, args.rho)
    raise ConfigError("polymer needs --zeta or a potential with --rho")


def _rod_bn(s: int, sigma: float):
    """The hard-rod b_s as a float, or exact where the float passes the float
    range (n^(n-1)/n! does from n = 721 on); ``from_mayer`` rounds the
    activity of an exact b_s once."""
    with suppress(OverflowError):
        b = tonks.bn_value(s, sigma)
        if math.isfinite(b):
            return b
    return tonks.bn_exact(s) * Fraction(sigma) ** (s - 1)


def _cmd_polymer(args) -> int:
    if args.n_ground is None:
        raise ConfigError("polymer needs --n-ground")
    N = args.n_ground
    if args.action == "xi":
        prof = _polymer_profile(args)
        data = {"N": N,
                "zeta": dict(sorted(prof.zeta.items())),
                "xi": xi_exact(N, prof, "recursion")}
        if N <= XI_BRUTEFORCE_MAX_N:
            data["xi_bruteforce"] = xi_exact(N, prof, "bruteforce")
        _emit(args, json_payload("polymer_xi", data))
        return 0
    if args.action == "ursell":
        prof = _polymer_profile(args)
        terms = log_xi_ursell(N, prof, args.orders)
        partial = {}
        acc = 0.0
        for n in sorted(terms):
            term = float_or_none(terms[n])
            acc = math.nan if term is None else acc + term
            partial[str(n)] = acc if math.isfinite(acc) else None
        _emit(args, json_payload("polymer_ursell", {
            "N": N,
            "orders": terms,
            "partial_sums": partial,
        }))
        return 0
    if args.action == "fpcheck":
        prof = _polymer_profile(args)
        if args.a is None:
            raise ConfigError("fpcheck needs --a")
        res = fp_check(prof, args.a)
        _emit(args, json_payload("polymer_fpcheck", {
            "N": N, "a": args.a, "lhs": res.lhs, "rhs": res.rhs, "holds": res.holds,
        }))
        return 0
    if args.action == "pexact":
        if args.s is None:
            raise ConfigError("pexact needs --s like '2,3'")
        _emit(args, json_payload("polymer_pexact", {
            "N": N, "s": list(args.s),
            "value": p_exact(N, args.s),
            "limit": p_limit(args.s),
        }))
        return 0
    # ckn, the last of the action's choices
    pot = _potential_from_args(args)
    if pot is None or pot.kind != "hard_rod":
        raise ConfigError("ckn is wired to the hard-rod coefficients; pass --potential hard_rod")
    b = {n: tonks.bn_exact(n) * Fraction(pot.sigma) ** (n - 1) for n in range(2, args.k + 2)}
    _emit(args, json_payload("polymer_ckn", {
        "N": N, "k": args.k,
        "value": ck_finite_N(N, b, args.k),
        "limit": float_or_none(virial_from_mayer(b, args.k)),
    }))
    return 0


def _cmd_canonical(args) -> int:
    pot = _require_potential(args)
    if args.L is None or args.N is None:
        raise ConfigError("canonical needs --L and --N")
    rep = compare_series_direct(pot, args.beta, args.L, args.N, args.k_max,
                                direct_method=args.method, **_sampling(args))
    _emit(args, json_payload("canonical_comparison", rep.to_dict()))
    return 0


def _cmd_verify(args) -> int:
    results = run_checks(args.suite)
    ok = all(r.passed for r in results)
    if args.out:
        payload = json_payload("verify_report", {
            "suite": args.suite,
            "checks": [
                {"name": r.name, "suite": r.suite, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
            "passed": ok,
        })
        _write(args, dump_json(payload))
    print(f"{'PASS' if ok else 'FAIL'}: {sum(r.passed for r in results)}/{len(results)} checks")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            # parse again with the config's values as defaults under the command line
            args = build_parser(_load_config(args.config)).parse_args(argv)
        return args.run(args)
    except (ClusterKitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run_for_test(argv: List[str]) -> str:
    """Run the CLI capturing stdout; raises on nonzero exit (test helper)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise ClusterKitError(f"CLI exited with {code}: {buf.getvalue()}")
    return buf.getvalue()


if __name__ == "__main__":
    sys.exit(main())
