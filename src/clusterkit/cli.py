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
default.  A JSON config file can predefine flags per subcommand: a
section's keys are the dests of its subcommand's flags, and each value is
parsed by that flag's type and choices, as if it were given on the command
line.  A shared "potential" section takes the keys of
``potentials.potential_from_config``.  The command line beats the config,
which beats the flag's default; unknown sections and keys are rejected by
name.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from contextlib import redirect_stdout, suppress
from fractions import Fraction
from typing import Dict, List, Optional

from . import __version__, tonks
from .canonical import compare_series_direct
from .cluster import mayer_bn, penrose_bn_bound, virial_bk_direct
from .errors import CapacityError, ClusterKitError, ConfigError
from .polymer import ActivityProfile, ck_finite_N, fp_check, log_xi_ursell, p_exact, p_limit, xi_exact
from .potentials import CONFIG_KEYS, PairPotential, c_beta, potential_from_config
from .radii import radius_report
from .reporting import dump_csv, dump_json, json_payload, output_dir, render_table
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


def _workers(text: str) -> int:
    """The type of --workers: an integer >= 1, refused here under its flag's name."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _add_potential_args(sp: argparse.ArgumentParser, beta: bool = True):
    # the dests of the potential flags are potential config keys; --beta is
    # offered only where the report depends on it
    sp.add_argument("--potential", dest="kind",
                    choices=("hard_rod", "hard_sphere", "square_well"), help="potential kind")
    sp.add_argument("--sigma", type=_real, default=1.0, help="core diameter")
    sp.add_argument("--epsilon", type=_real, help="well depth (square_well)")
    sp.add_argument("--lambda-w", dest="lambda_w", type=_real,
                    help="well width ratio (square_well)")
    sp.add_argument("--B", type=_real, help="declared stability constant")
    sp.add_argument("--dimension", type=int, help="spatial dimension")
    if beta:
        sp.add_argument("--beta", type=_real, default=1.0, help="inverse temperature")


def _add_sampling_args(sp: argparse.ArgumentParser, methods):
    """The route flags of mayer, virial and canonical; the first method is the default."""
    sp.add_argument("--method", choices=methods, default=methods[0])
    sp.add_argument("--samples", type=int, help="Monte Carlo samples (default: the library's)")
    sp.add_argument("--chunk", type=int, help="Monte Carlo samples per chunk")
    sp.add_argument("--seed", type=int, help="Monte Carlo seed, mandatory for monte_carlo")
    sp.add_argument("--workers", type=_workers, default=os.cpu_count() or 1,
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
    sp.add_argument("--k-max", dest="k_max", type=int, default=8)
    _add_potential_args(sp)
    # unset unless given, so that --u can refuse a --beta it would override
    sp.set_defaults(beta=None)
    _add_output_args(sp, ("table",))

    sp = sub.add_parser("mayer", help="fugacity-series coefficient table")
    sp.set_defaults(run=_cmd_mayer)
    _add_potential_args(sp)
    sp.add_argument("--n", type=int, default=4, help="highest order")
    sp.add_argument("--volume", help="'inf' (default) or a box side")
    _add_sampling_args(sp, ("quadrature", "monte_carlo"))
    _add_output_args(sp, ("csv", "table"))

    sp = sub.add_parser("virial", help="density-series coefficients, all routes")
    sp.set_defaults(run=_cmd_virial)
    _add_potential_args(sp)
    sp.add_argument("--k-max", dest="k_max", type=int, default=3)
    _add_sampling_args(sp, ("quadrature", "monte_carlo"))
    _add_output_args(sp, ("csv", "table"))

    sp = sub.add_parser("polymer", help="subset-polymer operations")
    sp.set_defaults(run=_cmd_polymer)
    sp.add_argument("action", choices=("xi", "ursell", "fpcheck", "pexact", "ckn"))
    sp.add_argument("--n-ground", dest="n_ground", type=int,
                    help="ground-set size N")
    sp.add_argument("--zeta", help="activities like '2=0.5,3=-1/3'")
    sp.add_argument("--orders", type=int, default=3, help="expansion order (ursell)")
    sp.add_argument("--a", type=_real, help="weight parameter (fpcheck)")
    sp.add_argument("--rho", type=_real, help="density for derived activities")
    sp.add_argument("--s", help="part sizes like '2,3' (pexact)")
    sp.add_argument("--k", type=int, default=1, help="coefficient order (ckn)")
    _add_potential_args(sp, beta=False)
    _add_output_args(sp)

    sp = sub.add_parser("canonical", help="series-vs-direct comparison")
    sp.set_defaults(run=_cmd_canonical)
    _add_potential_args(sp)
    sp.add_argument("--L", type=_real)
    sp.add_argument("--N", type=int)
    sp.add_argument("--k-max", dest="k_max", type=int, default=6)
    _add_sampling_args(sp, ("auto", "tonks_closed", "quadrature", "monte_carlo"))
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
    """The --potential flags if given, else the config's "potential" section."""
    if args.kind is None:
        return potential_from_config(args.potential_config) if args.potential_config else None
    cfg = {key: getattr(args, key) for key in CONFIG_KEYS
           if getattr(args, key, None) is not None}
    if args.kind == "hard_sphere":
        cfg.setdefault("dimension", 3)
    return potential_from_config(cfg)


def _sampling(args) -> dict:
    """Keyword arguments of the sampled routes; unset ones keep the library's defaults."""
    if args.method == "monte_carlo" and args.seed is None:
        raise ConfigError("--seed is mandatory for monte_carlo")
    return {key: getattr(args, key) for key in ("seed", "samples", "chunk", "workers")
            if getattr(args, key) is not None}


def _emit(args, payload: dict, rows=None, header=None, preamble: str = ""):
    """Write the JSON payload, or the rows as csv or a table, to --out or stdout."""
    out = _out_path(args)
    fmt = getattr(args, "format", "json")
    if fmt == "json":
        text = dump_json(payload, path=out)
    elif fmt == "csv":
        text = dump_csv(header, rows, path=out)
    else:
        text = preamble + render_table(header, rows) + "\n"
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
    if not out:
        sys.stdout.write(text)


def _out_path(args) -> Optional[str]:
    out = getattr(args, "out", None)
    if not out:
        return None
    if os.path.isabs(out):
        return out
    return os.path.join(output_dir(), out)


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


def _describe_potential(pot: PairPotential) -> dict:
    d = {"kind": pot.kind, "sigma": pot.sigma, "dimension": pot.dimension, "B": pot.B}
    if pot.kind == "square_well":
        d["epsilon"] = pot.epsilon
        d["lambda_w"] = pot.lambda_w
    return d


def _require_potential(args) -> PairPotential:
    pot = _potential_from_args(args)
    if pot is None:
        raise ConfigError("this subcommand needs a potential (--potential ...)")
    return pot


def _parse_volume(raw: Optional[str]) -> Optional[float]:
    if raw in (None, "inf", "infinite", ""):
        return None
    v = float(raw)
    if not 0 < v < math.inf:
        raise ConfigError(f"--volume must be 'inf' or a finite positive box side, got {raw!r}")
    return v


def _cmd_mayer(args) -> int:
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    pot = _require_potential(args)
    sampling = _sampling(args)
    volume = _parse_volume(args.volume)
    cb, _ = c_beta(pot, args.beta)
    # every bound before the first integral, so an overflowing one fails fast
    bounds = [penrose_bn_bound(n, args.beta, pot.B, cb) if n >= 2 else 1.0
              for n in range(1, args.n + 1)]
    rows = []
    records = []
    for n, bound in enumerate(bounds, start=1):
        val, err = mayer_bn(pot, args.beta, n, volume, args.method, **sampling)
        rows.append([f"b_{n}", n, args.beta, val, err, bound])
        records.append({
            "quantity": "b_n", "n": n, "beta": args.beta,
            "potential": _describe_potential(pot),
            "volume": volume, "value": val, "error": err,
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
    b = {1: 1.0}
    for n in range(2, k_max + 2):
        b[n], _ = mayer_bn(pot, args.beta, n, method=args.method, **sampling)
    inv = invert_mayer_oracle(b, k_max)
    rows = []
    records = []
    for k in range(1, k_max + 1):
        transform = float(virial_from_mayer(b, k))
        inversion = float(inv.coeff(k))
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
            "potential": _describe_potential(pot),
            "transform": transform, "inversion": inversion,
            "direct": direct, "direct_error": derr,
            "closed_form": closed,
            "method": args.method, "seed": args.seed,
        })
    payload = json_payload("virial_table", {"records": records})
    _emit(args, payload, rows=rows, header=["k", "C_k", "source", "error"])
    return 0


def _parse_zeta(raw: Optional[str]) -> Dict[int, object]:
    if not raw:
        raise ConfigError("this action needs --zeta (like '2=0.5,3=-1/3')")
    out: Dict[int, object] = {}
    for item in raw.split(","):
        if "=" not in item:
            raise ConfigError(f"bad --zeta entry {item!r}")
        key, val = item.split("=", 1)
        out[int(key)] = Fraction(val) if "/" in val else float(val)
    return out


def _polymer_profile(args) -> ActivityProfile:
    N = args.n_ground
    if args.zeta:
        return ActivityProfile(N, _parse_zeta(args.zeta))
    pot = _potential_from_args(args)
    if pot is not None and args.rho is not None:
        if pot.kind != "hard_rod":
            raise ConfigError("derived activities are implemented for hard rods")
        b = {s: tonks.bn_value(s, pot.sigma) for s in range(2, N + 1)}
        return ActivityProfile.from_mayer(b, N, args.rho)
    raise ConfigError("polymer needs --zeta or a potential with --rho")


def _cmd_polymer(args) -> int:
    if args.n_ground is None:
        raise ConfigError("polymer needs --n-ground")
    if args.n_ground < 1:
        raise ConfigError(f"--n-ground must be >= 1, got {args.n_ground}")
    N = args.n_ground
    if args.action == "xi":
        prof = _polymer_profile(args)
        data = {"N": N,
                "zeta": dict(sorted(prof.zeta.items())),
                "xi": xi_exact(N, prof, "recursion")}
        if N <= 8:
            data["xi_bruteforce"] = xi_exact(N, prof, "bruteforce")
        _emit(args, json_payload("polymer_xi", data))
        return 0
    if args.action == "ursell":
        if args.orders < 1:
            raise ConfigError(f"--orders must be >= 1, got {args.orders}")
        prof = _polymer_profile(args)
        terms = log_xi_ursell(N, prof, args.orders)
        partial = {}
        acc = 0.0
        for n in sorted(terms):
            acc += float(terms[n])
            partial[str(n)] = acc
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
        if not args.s:
            raise ConfigError("pexact needs --s like '2,3'")
        s = tuple(int(x) for x in args.s.split(","))
        _emit(args, json_payload("polymer_pexact", {
            "N": N, "s": list(s),
            "value": p_exact(N, s),
            "limit": p_limit(s),
        }))
        return 0
    if args.action == "ckn":
        pot = _potential_from_args(args)
        if pot is None or pot.kind != "hard_rod":
            raise ConfigError(
                "ckn is wired to the hard-rod coefficients; pass --potential hard_rod"
            )
        b = {n: tonks.bn_exact(n) for n in range(2, args.k + 2)}
        _emit(args, json_payload("polymer_ckn", {
            "N": N, "k": args.k,
            "value": ck_finite_N(N, b, args.k),
            "limit": float(virial_from_mayer(b, args.k)),
        }))
        return 0
    raise ConfigError(f"unknown polymer action {args.action!r}")


def _cmd_canonical(args) -> int:
    pot = _require_potential(args)
    if args.L is None or args.N is None:
        raise ConfigError("canonical needs --L and --N")
    if args.k_max < 1:
        raise ConfigError(f"--k-max must be >= 1, got {args.k_max}")
    rep = compare_series_direct(pot, args.beta, args.L, args.N, args.k_max,
                                direct_method=args.method, **_sampling(args))
    _emit(args, json_payload("canonical_comparison", rep.to_dict()))
    return 0


def _cmd_verify(args) -> int:
    results = run_checks(args.suite)
    ok = all(r.passed for r in results)
    out = _out_path(args)
    if out:
        payload = json_payload("verify_report", {
            "suite": args.suite,
            "checks": [
                {"name": r.name, "suite": r.suite, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
            "passed": ok,
        })
        dump_json(payload, path=out)
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
