import json
import math
import re
from fractions import Fraction

import pytest

from clusterkit import cli, cluster, polymer, potentials, tonks, verify
from clusterkit.cli import main, run_for_test
from clusterkit.cluster import ROUTE_CAPS
from clusterkit.polymer import ActivityProfile, log_xi_ursell


def run_json(argv):
    return json.loads(run_for_test(argv))


def test_radii_u1():
    out = run_json(["radii", "--u", "1.0"])
    assert out["schema"] == 1
    assert out["kind"] == "radius_report"
    assert abs(out["F"] - 0.1448) < 5e-4
    assert out["a_discrepancy_flagged"] is True
    assert abs(out["g"] - out["F"]) < 1e-10


def test_radii_from_potential():
    out = run_json(["radii", "--potential", "hard_rod", "--sigma", "1", "--beta", "1"])
    assert abs(out["rho_star"] - 0.0723835) < 1e-6
    assert abs(out["mayer_radius"] - 1.0 / (2.0 * math.e)) < 1e-12


def test_radii_table_format(capsys):
    assert main(["radii", "--u", "1.0", "--format", "table"]) == 0
    text = capsys.readouterr().out
    assert "discrepancy flagged" in text
    assert "density radius" in text


def test_mayer_b4():
    out = run_json(["mayer", "--potential", "hard_rod", "--sigma", "1",
                    "--beta", "1", "--n", "4"])
    rec = [r for r in out["records"] if r["n"] == 4][0]
    assert abs(rec["value"] - (-8.0 / 3.0)) < 1e-4
    assert rec["quantity"] == "b_n"
    assert rec["method"] == "quadrature"
    assert abs(out["cbeta"] - 2.0) < 1e-10


def test_mayer_csv_has_header():
    text = run_for_test(["mayer", "--potential", "hard_rod", "--sigma", "1",
                         "--n", "3", "--format", "csv"])
    lines = text.strip().splitlines()
    assert lines[0] == "quantity,n,beta,value,error,penrose_bound"
    assert len(lines) == 4


def test_virial_routes_agree():
    out = run_json(["virial", "--potential", "hard_rod", "--sigma", "1",
                    "--k-max", "3"])
    for rec in out["records"]:
        k = rec["k"]
        assert abs(rec["transform"] - rec["inversion"]) < 1e-9
        assert abs(rec["transform"] - (-(k + 1) / k)) < 1e-6
        assert abs(rec["direct"] - (-(k + 1) / k)) < 1e-6


def test_polymer_xi():
    out = run_json(["polymer", "xi", "--n-ground", "4", "--zeta", "2=1/3,3=-1/4,4=2/7"])
    assert out["xi"]["rational"] == out["xi_bruteforce"]["rational"]


def test_polymer_xi_bruteforce_up_to_its_cap(monkeypatch):
    # the cap is polymer.XI_BRUTEFORCE_MAX_N, read by the CLI
    for N in (polymer.XI_BRUTEFORCE_MAX_N, polymer.XI_BRUTEFORCE_MAX_N + 1):
        out = run_json(["polymer", "xi", "--n-ground", str(N), "--zeta", "2=1/3,3=-1/4"])
        assert ("xi_bruteforce" in out) == (N <= polymer.XI_BRUTEFORCE_MAX_N)
    monkeypatch.setattr(cli, "XI_BRUTEFORCE_MAX_N", 3)
    out = run_json(["polymer", "xi", "--n-ground", "4", "--zeta", "2=1/3,3=-1/4"])
    assert "xi_bruteforce" not in out


def test_polymer_pexact():
    out = run_json(["polymer", "pexact", "--n-ground", "4", "--s", "2,2"])
    assert out["value"]["rational"] == "15/32"
    assert out["limit"]["rational"] == "1/1"
    assert out["limit"]["value"] == 1.0


@pytest.mark.parametrize("action,extra", [
    ("xi", ["--zeta", "2=1/3"]),
    ("ursell", ["--zeta", "2=1/3"]),
    ("fpcheck", ["--zeta", "2=1/3", "--a", "0.5"]),
    ("pexact", ["--s", "2,2"]),
    ("ckn", ["--potential", "hard_rod", "--k", "1"]),
])
def test_polymer_rejects_an_empty_ground_set(capsys, action, extra):
    assert _exit_code(["polymer", action, "--n-ground", "0", *extra]) == 2
    assert "argument --n-ground: must be an integer >= 1, got '0'" in capsys.readouterr().err


def test_polymer_ursell_orders_and_partial_sums():
    zeta = {2: Fraction(1, 3), 3: Fraction(-1, 4), 4: Fraction(2, 7)}
    out = run_json(["polymer", "ursell", "--n-ground", "4", "--zeta", "2=1/3,3=-1/4,4=2/7",
                    "--orders", "3"])
    terms = log_xi_ursell(4, ActivityProfile(4, zeta), 3)
    assert out["orders"] == {str(n): {"rational": f"{t.numerator}/{t.denominator}",
                                      "value": float(t)} for n, t in terms.items()}
    acc, partial = 0.0, {}
    for n in sorted(terms):
        acc += float(terms[n])
        partial[str(n)] = acc
    assert out["partial_sums"] == partial


@pytest.mark.parametrize("orders", ["0", "-2"])
def test_polymer_ursell_refuses_orders_below_one(capsys, orders):
    assert _exit_code(["polymer", "ursell", "--n-ground", "3", "--zeta", "2=1/3",
                       "--orders", orders]) == 2
    err = capsys.readouterr().err
    assert f"argument --orders: must be an integer >= 1, got '{orders}'" in err


@pytest.mark.parametrize("n", ["0", "-2"])
def test_mayer_refuses_orders_below_one(capsys, n):
    assert _exit_code(["mayer", "--potential", "hard_rod", "--n", n]) == 2
    assert f"argument --n: must be an integer >= 1, got '{n}'" in capsys.readouterr().err


@pytest.mark.parametrize("k_max", ["0", "-1"])
def test_canonical_refuses_k_max_below_one(capsys, k_max):
    assert _exit_code(["canonical", "--potential", "hard_rod", "--L", "50", "--N", "5",
                       "--k-max", k_max]) == 2
    err = capsys.readouterr().err
    assert f"argument --k-max: must be an integer >= 1, got '{k_max}'" in err


@pytest.mark.parametrize("k_max", ["0", "-3"])
def test_radii_refuses_k_max_below_one(capsys, k_max):
    assert _exit_code(["radii", "--u", "2", "--k-max", k_max]) == 2
    err = capsys.readouterr().err
    assert f"argument --k-max: must be an integer >= 1, got '{k_max}'" in err


@pytest.mark.parametrize("k_max", ["0", "-3"])
def test_virial_refuses_k_max_below_one(capsys, k_max):
    assert _exit_code(["virial", "--potential", "hard_rod", "--k-max", k_max]) == 2
    err = capsys.readouterr().err
    assert f"argument --k-max: must be an integer >= 1, got '{k_max}'" in err


def test_polymer_ursell_float_overflow_exits_2(capsys):
    assert main(["polymer", "ursell", "--n-ground", "3", "--zeta", "2=1e200",
                 "--orders", "2"]) == 2
    assert "order 2 overflows a float" in capsys.readouterr().err


@pytest.mark.parametrize("argv, path, exact", [
    (["xi", "--n-ground", "400", "--zeta", "2=-7/10"], ["xi"],
     lambda: polymer.xi_exact(400, ActivityProfile(400, {2: Fraction(-7, 10)}))),
    (["ursell", "--n-ground", "64", "--zeta", f"2={10 ** 200}/1", "--orders", "2"],
     ["orders", "2"],
     lambda: log_xi_ursell(64, ActivityProfile(64, {2: Fraction(10 ** 200)}), 2)[2]),
    (["ckn", "--n-ground", "5", "--potential", "hard_rod", "--k", "3", "--sigma", "1e300"],
     ["value"], lambda: polymer.ck_finite_N(
         5, {n: tonks.bn_exact(n) * Fraction(1e300) ** (n - 1) for n in (2, 3, 4)}, 3)),
], ids=["xi", "ursell", "ckn"])
def test_exact_value_past_the_float_range_renders_null(argv, path, exact):
    # the exact rational is printed; its float rendering overflows, so it is null
    out = run_json(["polymer", *argv])
    field = out
    for key in path:
        field = field[key]
    want = exact()
    assert field == {"rational": f"{want.numerator}/{want.denominator}", "value": None}
    if argv[0] == "ursell":
        assert out["partial_sums"]["1"] == out["orders"]["1"]["value"]
        assert out["partial_sums"]["2"] is None
    if argv[0] == "ckn":
        assert out["limit"] is None


def test_polymer_xi_float_overflow_exits_2(capsys):
    assert main(["polymer", "xi", "--n-ground", "400", "--zeta", "2=-0.7"]) == 2
    assert "Xi_400 is nan in floating point; exact" in capsys.readouterr().err


def test_polymer_fpcheck():
    out = run_json(["polymer", "fpcheck", "--n-ground", "12",
                    "--potential", "hard_rod", "--sigma", "1",
                    "--rho", "0.05", "--a", "0.4623"])
    assert out["holds"] is True
    out = run_json(["polymer", "fpcheck", "--n-ground", "12",
                    "--potential", "hard_rod", "--sigma", "1",
                    "--rho", "0.5", "--a", "0.4623"])
    assert out["holds"] is False


def test_polymer_ckn():
    out = run_json(["polymer", "ckn", "--n-ground", "8",
                    "--potential", "hard_rod", "--k", "1"])
    assert out["value"]["rational"] == "-7/4"  # 2 b_2 (1 - 1/8)
    assert abs(out["limit"] + 2.0) < 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
def test_polymer_ckn_scales_with_sigma(k):
    # b_n scales as sigma^(n-1), so C_k(N) and beta_k scale as sigma^k
    def ckn(sigma):
        return run_json(["polymer", "ckn", "--n-ground", "10", "--potential", "hard_rod",
                         "--sigma", sigma, "--k", str(k)])

    one, two = ckn("1"), ckn("2")
    assert Fraction(two["value"]["rational"]) == 2 ** k * Fraction(one["value"]["rational"])
    assert two["limit"] == 2 ** k * one["limit"]


def test_polymer_has_no_beta_flag(capsys):
    # the polymer reports come from hard-rod closed forms that do not depend on beta
    with pytest.raises(SystemExit) as exc:
        main(["polymer", "ckn", "--n-ground", "8", "--potential", "hard_rod", "--k", "1",
              "--beta", "2"])
    assert exc.value.code == 2
    assert "--beta" in capsys.readouterr().err


def test_canonical_report():
    out = run_json(["canonical", "--potential", "hard_rod", "--sigma", "1",
                    "--L", "2000", "--N", "100", "--k-max", "6"])
    assert out["pass"] is True
    assert out["rho"] == pytest.approx(0.05)


def test_verify_subcommand_exit_codes(capsys):
    assert main(["verify", "--suite", "graphs"]) == 0
    text = capsys.readouterr().out
    assert "PASS graphs.cayley_counts - tree counts match n^(n-2) for n = 2..8" in text
    assert text.endswith("PASS: 2/2 checks\n")
    # the suite has no settings: a size or seed is an unknown argument
    for argv in (["--nmax", "6"], ["--seed", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_determinism_modulo_timestamp():
    argv = ["mayer", "--potential", "hard_sphere", "--sigma", "1",
            "--dimension", "3", "--beta", "1", "--n", "3",
            "--method", "monte_carlo", "--seed", "5", "--samples", "40000"]
    a = verify._strip_timestamp(run_for_test(argv))
    b = verify._strip_timestamp(run_for_test(argv))
    assert a == b


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["mayer", "--potential", "hard_rod", "--frobnicate", "1"])
    assert exc.value.code == 2


def test_mc_without_seed_exits_2(capsys):
    code = main(["mayer", "--potential", "hard_rod", "--sigma", "1",
                 "--method", "monte_carlo"])
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "potential": {"kind": "hard_rod", "sigma": 1.0},
        "mayer": {"n": 3, "beta": 1.0},
    }))
    assert main(["--config", str(cfg), "mayer"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["records"]) == 3
    assert out["records"][0]["potential"]["kind"] == "hard_rod"


def test_config_flag_overrides_file(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "potential": {"kind": "hard_rod", "sigma": 1.0},
        "mayer": {"n": 3},
    }))
    assert main(["--config", str(cfg), "mayer", "--n", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["records"]) == 2
    # a potential flag beats its key of the "potential" section, which it once left at 1
    assert main(["--config", str(cfg), "mayer", "--n", "2", "--sigma", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [r["potential"]["sigma"] for r in out["records"]] == [2.0, 2.0]
    assert out["records"][1]["value"] == pytest.approx(-2.0)  # b_2 = -sigma


TABULATED = {"kind": "custom_tabulated", "sigma": 1, "table": [[0, 1], [1, 0]], "cutoff": 1}


@pytest.mark.parametrize("section, argv, key", [
    ('{"kind": "hard_sphere", "sigma": true}', ["mayer", "--n", "2"], "sigma"),
    ('{"kind": "hard_sphere", "sigma": 1, "dimension": true}', ["mayer", "--n", "2"],
     "dimension"),
    ('{"kind": "hard_rod", "sigma": 1e400}', ["mayer", "--n", "2"], "sigma"),
    ('{"kind": "hard_rod", "sigma": 1e400}', ["polymer", "xi", "--n-ground", "4", "--rho", "0.1"],
     "sigma"),
    ('{"kind": "custom_tabulated", "sigma": 1, "table": [[0, 1], [1, 0]], "cutoff": -1}',
     ["mayer", "--n", "2"], "cutoff"),
    ('{"kind": "hard_rod", "sigma": 1, "table": [[0, 1], [1, 0]]}', ["mayer", "--n", "2"],
     "table"),
    ('{"kind": "hard_rod", "sigma": 1, "epsilon": NaN}', ["mayer", "--n", "2"], "epsilon"),
], ids=["sigma_true", "dimension_true", "sigma_1e400", "sigma_1e400_polymer",
        "cutoff_negative", "table_on_hard_rod", "epsilon_nan"])
def test_bad_potential_section_exits_2_naming_the_key(tmp_path, capsys, section, argv, key):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"potential": %s}' % section)
    assert main(["--config", str(cfg), *argv]) == 2
    assert re.search(rf"\b{key}\b", capsys.readouterr().err)


@pytest.mark.parametrize("section", [
    pytest.param({"kind": "hard_rod", "sigma": 1}, id="integer_sigma"),
    pytest.param({"kind": "hard_sphere", "sigma": 1.0, "dimension": 3.0}, id="float_dimension"),
    pytest.param({"kind": "hard_rod", "sigma": "1.5"}, id="string_sigma"),
    pytest.param(TABULATED, id="tabulated"),
])
def test_report_record_loads_back_as_the_potential(tmp_path, section):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"potential": section}))
    record = run_json(["--config", str(cfg), "mayer", "--n", "2"])["records"][1]["potential"]
    assert potentials.potential_from_config(record) == potentials.potential_from_config(section)
    if section is TABULATED:
        assert (record["table"], record["cutoff"]) == ([[0.0, 1.0], [1.0, 0.0]], 1.0)


def test_config_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"mayer": {"banana": 1}}))
    code = main(["--config", str(cfg), "mayer", "--potential", "hard_rod"])
    assert code == 2
    assert "banana" in capsys.readouterr().err


def test_config_unknown_section_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"wibble": {}}))
    code = main(["--config", str(cfg), "mayer", "--potential", "hard_rod"])
    assert code == 2
    assert "wibble" in capsys.readouterr().err


def test_out_file(tmp_path):
    target = tmp_path / "report.json"
    run_for_test(["radii", "--u", "2.0", "--out", str(target)])
    data = json.loads(target.read_text())
    assert data["kind"] == "radius_report"
    assert data["u"] == 2.0


def test_out_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("CLUSTERKIT_OUT", str(tmp_path))
    run_for_test(["radii", "--u", "1.5", "--out", "r.json"])
    data = json.loads((tmp_path / "r.json").read_text())
    assert data["u"] == 1.5


def test_verify_out_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("CLUSTERKIT_OUT", str(tmp_path))
    run_for_test(["verify", "--suite", "potentials", "--out", "v.json"])
    data = json.loads((tmp_path / "v.json").read_text())
    assert data["kind"] == "verify_report" and data["passed"] is True


def test_virial_csv_long_format():
    text = run_for_test(["virial", "--potential", "hard_rod", "--sigma", "1",
                         "--k-max", "2", "--format", "csv"])
    lines = text.strip().splitlines()
    assert lines[0] == "k,C_k,source,error"
    sources = {line.split(",")[2] for line in lines[1:]}
    assert {"mayer_transform", "inversion_oracle",
            "direct_integral", "closed_form"} <= sources


ROD = ["--potential", "hard_rod", "--sigma", "1"]
MC = ["mayer", "--potential", "hard_sphere", "--n", "3", "--method", "monte_carlo", "--seed", "1"]

#: (config section, dest, a command line the count flag completes) for every count flag
COUNT_FLAGS = [
    ("mayer", "n", ["mayer", *ROD]),
    ("radii", "k_max", ["radii", "--u", "2"]),
    ("virial", "k_max", ["virial", *ROD]),
    ("canonical", "k_max", ["canonical", *ROD, "--L", "50", "--N", "5"]),
    ("canonical", "N", ["canonical", *ROD, "--L", "50"]),
    ("polymer", "orders", ["polymer", "ursell", "--n-ground", "3", "--zeta", "2=1/3"]),
    ("polymer", "n_ground", ["polymer", "xi", "--zeta", "2=1/3"]),
    ("polymer", "k", ["polymer", "ckn", "--n-ground", "5", *ROD]),
    ("mayer", "samples", MC),
    ("mayer", "chunk", MC),
    ("mayer", "workers", MC),
]

#: (config section, dest, value, a command line the flag completes) for the parsed flags
PARSED_FLAGS = [
    ("mayer", "volume", "abc", ["mayer", *ROD]),
    ("polymer", "zeta", "2=abc", ["polymer", "xi", "--n-ground", "3"]),
    ("polymer", "zeta", "x=1", ["polymer", "xi", "--n-ground", "3"]),
    ("polymer", "zeta", "2=1/0", ["polymer", "xi", "--n-ground", "3"]),
    ("polymer", "zeta", "2=nan", ["polymer", "xi", "--n-ground", "3"]),
    ("polymer", "zeta", "2=inf", ["polymer", "xi", "--n-ground", "3"]),
    ("polymer", "zeta", "2=0.5,2=0.7", ["polymer", "xi", "--n-ground", "3"]),
    ("polymer", "s", "2,,3", ["polymer", "pexact", "--n-ground", "3"]),
]


def _flag(dest):
    return "--" + dest.replace("_", "-")


#: every count flag at 0 and x, and each parsed flag at a value it cannot parse
BAD_FLAG_VALUES = [
    *(pytest.param([*argv, _flag(dest), value], f"argument {_flag(dest)}: must be an integer >= 1",
                   id=f"{section}_{dest}_{value}")
      for section, dest, argv in COUNT_FLAGS for value in ("0", "x")),
    *(pytest.param([*argv, _flag(dest), value], f"argument {_flag(dest)}: ",
                   id=f"{dest}_{value}")
      for section, dest, value, argv in PARSED_FLAGS),
]


# (command and its positionals, section, the same values as flags)
SECTION_AS_FLAGS = {
    "mayer": (["mayer", *ROD], {"n": 3, "beta": 2, "volume": 12},
              ["--n", "3", "--beta", "2", "--volume", "12"]),
    "mayer_mc": (["mayer", "--potential", "hard_sphere"],
                 {"n": 3, "method": "monte_carlo", "seed": 5, "samples": 10000,
                  "chunk": 5000, "workers": 2},
                 ["--n", "3", "--method", "monte_carlo", "--seed", "5",
                  "--samples", "10000", "--chunk", "5000", "--workers", "2"]),
    "virial": (["virial", *ROD], {"k_max": 2, "beta": 0.5, "format": "table"},
               ["--k-max", "2", "--beta", "0.5", "--format", "table"]),
    "canonical": (["canonical", *ROD], {"L": 50, "N": 5, "k_max": 4},
                  ["--L", "50", "--N", "5", "--k-max", "4"]),
    "radii": (["radii"], {"u": 1, "k_max": 3, "format": "table"},
              ["--u", "1", "--k-max", "3", "--format", "table"]),
    "polymer": (["polymer", "xi"], {"n_ground": 4, "zeta": "2=1/3,3=-1/4"},
                ["--n-ground", "4", "--zeta", "2=1/3,3=-1/4"]),
    "string_as_int": (["mayer", *ROD], {"n": "3"}, ["--n", "3"]),
}


@pytest.mark.parametrize("case", SECTION_AS_FLAGS)
def test_config_section_equals_flags(tmp_path, case):
    argv, section, flags = SECTION_AS_FLAGS[case]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({argv[0]: section}))
    via_config = run_for_test(["--config", str(cfg), *argv])
    via_flags = run_for_test([*argv, *flags])
    assert verify._strip_timestamp(via_config) == verify._strip_timestamp(via_flags)


@pytest.mark.parametrize("section", [
    pytest.param({"mayer": {"n": 3.5}}, id="n"),
    pytest.param({"mayer": {"format": "xml"}}, id="format"),
    pytest.param({"mayer": {"method": "montecarlo"}}, id="method"),
    pytest.param({"mayer": {"seed": [1, 2]}}, id="seed"),
    pytest.param({"verify": {"suite": "everything"}}, id="suite"),
    pytest.param({"mayer": {"beta": math.inf}}, id="beta_inf"),
    pytest.param({"mayer": {"workers": 0}}, id="workers"),
    # the values of BAD_FLAG_VALUES
    *(pytest.param({section: {dest: value}}, id=f"{section}_{dest}_{value}")
      for section, dest, argv in COUNT_FLAGS for value in (0, "x")),
    *(pytest.param({section: {dest: value}}, id=f"{dest}_{value}")
      for section, dest, value, argv in PARSED_FLAGS),
])
def test_config_value_parsed_like_its_flag(tmp_path, capsys, section):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(section))
    assert main(["--config", str(cfg), "mayer", *ROD]) == 2
    (key,) = next(iter(section.values()))
    assert f"invalid {key!r} value" in capsys.readouterr().err


@pytest.mark.parametrize("section, key", [
    ("radii", "chunk"),  # a flag of another subcommand
    ("mayer", "sigma"),  # a potential flag, which belongs in "potential"
])
def test_config_rejects_keys_of_other_sections(tmp_path, capsys, section, key):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({section: {key: 1}}))
    assert main(["--config", str(cfg), "radii", "--u", "1"]) == 2
    assert f"{section!r}: {key}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["mayer", "--potential", "hard_sphere", "--n", "3"],
    ["canonical", "--potential", "hard_sphere", "--L", "6", "--N", "4", "--k-max", "3"],
])
def test_mc_chunk_zero_exits_2(capsys, argv):
    assert _exit_code([*argv, "--method", "monte_carlo", "--seed", "1", "--chunk", "0"]) == 2
    assert "argument --chunk: must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-1", "2.5"])
def test_mc_bad_workers_exit_2(capsys, workers):
    # --workers 0 and -1 once ran on one thread and exited 0
    with pytest.raises(SystemExit) as exc:
        main(["mayer", "--potential", "hard_sphere", "--n", "3", "--method", "monte_carlo",
              "--seed", "1", "--samples", "40000", "--workers", workers])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["radii", "--u", "2", "--format", "csv"],
    ["polymer", "pexact", "--n-ground", "8", "--s", "2,3", "--format", "table"],
    ["polymer", "ckn", "--n-ground", "8", *ROD, "--k", "2", "--format", "csv"],
    ["canonical", *ROD, "--L", "50", "--N", "5", "--format", "table"],
], ids=["radii_csv", "pexact", "ckn", "canonical"])
def test_format_only_where_the_report_has_rows(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


WELL = ["--potential", "square_well", "--lambda-w", "1.5"]


@pytest.mark.parametrize("argv, named", [
    (["mayer", *WELL, "--epsilon", "800", "--B", "800", "--n", "3"], "beta*epsilon = 800"),
    (["mayer", *WELL, "--epsilon", "1", "--B", "300", "--n", "4"], "beta*B = 300"),
    (["radii", "--cbeta", "1", "--B", "400"], "beta*B = 400"),
    (["radii", "--u", "1e100"], "order-4 coefficient bounds overflow at u = 1e+100"),
    # (k+1)^k / k! itself passes the float range at k = 713
    (["radii", "--u", "1", "--cbeta", "1e-300", "--k-max", "800"],
     "order-713 coefficient bounds overflow"),
    # 1 / C(beta) passes the float range: the radii were inf, which JSON refused
    # without a name and a table printed
    (["radii", "--cbeta", "1e-320"], "fugacity radius overflows at C(beta) = 1e-320"),
    (["radii", "--cbeta", "1e-320", "--format", "table"],
     "fugacity radius overflows at C(beta) = 1e-320"),
    (["radii", "--potential", "hard_rod", "--sigma", "1e-320"],
     "fugacity radius overflows at C(beta) = 2e-320"),
], ids=["well_bond", "penrose_bound", "u", "ck_bound", "ck_bound_quotient", "radius_json",
        "radius_table", "radius_sigma"])
def test_overflow_exits_2_naming_the_input(monkeypatch, capsys, argv, named):
    # each input fails before any integral: mayer checks every b_n bound first
    def never(*args, **kwargs):
        raise AssertionError("mayer_bn ran before the inputs were checked")

    monkeypatch.setattr("clusterkit.cli.mayer_bn", never)
    assert main(argv) == 2
    assert named in capsys.readouterr().err


DEEP_WELL = [*WELL, "--epsilon", "1", "--B", "1"]


@pytest.mark.parametrize("argv, named", [
    (["mayer", *DEEP_WELL, "--n", "6", "--method", "monte_carlo", "--seed", "1"],
     "monte_carlo capped at n=5, got n=6"),
    (["virial", *DEEP_WELL, "--k-max", "6", "--method", "monte_carlo", "--seed", "1"],
     "monte_carlo capped at n=5, got n=7"),
    (["virial", *DEEP_WELL, "--k-max", "6"], "quadrature capped at n=6, got n=7"),
    (["canonical", *DEEP_WELL, "--L", "48", "--N", "12"],
     "k_max=6 needs b_7, which has no route for square_well in d=1; "
     "the largest k_max that runs is 5"),
], ids=["mayer", "virial", "virial_quadrature", "canonical"])
def test_refused_highest_order_runs_no_integral(monkeypatch, capsys, argv, named):
    # the highest order's route is checked before any lower order is computed
    calls = []
    for name in ("_gap_integral", "_mc_graph_sum", "_radial_pair_integral"):
        monkeypatch.setattr(cluster, name,
                            lambda *a, name=name, **k: calls.append(name) or (1.0, 0.0))
    assert main(argv) == 2
    assert named in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("method, largest", [("quadrature", 5), ("monte_carlo", 4)])
def test_virial_refusal_names_k_max_and_the_largest_that_runs(monkeypatch, capsys,
                                                              method, largest):
    # refused as canonical refuses: by the flag the user gave, not by the b_n it needs
    for name in ("_gap_integral", "_mc_graph_sum"):
        monkeypatch.setattr(cluster, name, lambda *a, **k: (1.0, 0.0))
    argv = ["virial", *DEEP_WELL, "--method", method, "--seed", "1"]
    assert main([*argv, "--k-max", str(largest + 1)]) == 2
    err = capsys.readouterr().err
    assert f"k_max={largest + 1} needs b_{largest + 2}" in err
    assert f"the largest k_max that runs is {largest}" in err
    # ... and that one passes the route check
    assert main([*argv, "--k-max", str(largest)]) == 0


def test_virial_node_guard_refusal_keeps_its_text(capsys):
    # b_6 is within the quadrature cap, so the node guard's refusal is not reworded
    argv = ["virial", "--potential", "square_well", "--epsilon", "1", "--lambda-w", "2.5",
            "--B", "2", "--k-max", "5"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "nested quadrature would need" in err
    assert "largest k_max" not in err


def test_virial_by_quadrature_in_d3_names_no_largest_k_max(capsys):
    # no order runs, so the dimension refusal stands as it is
    assert main(["virial", "--potential", "hard_sphere", "--dimension", "3", "--k-max", "6"]) == 2
    err = capsys.readouterr().err
    assert "quadrature is one-dimensional, got d=3 at n=7" in err
    assert "largest k_max" not in err


def test_tabulated_overflow_exits_2_naming_minus_beta_v(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"potential": {
        "kind": "custom_tabulated", "sigma": 1, "table": [[0, 5], [1, -800], [1.5, 0]],
        "cutoff": 1.5, "B": 800}}))
    assert main(["--config", str(cfg), "mayer", "--n", "2"]) == 2
    assert "overflows e^(-beta V)" in capsys.readouterr().err


def test_negative_table_without_B_exits_2_naming_B(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"potential": {
        "kind": "custom_tabulated", "sigma": 1, "table": [[0, -1], [1, -1], [1.5, 0]],
        "cutoff": 1.5}}))
    assert main(["--config", str(cfg), "mayer", "--beta", "2", "--n", "3"]) == 2
    assert "stability constant B" in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    (["mayer", *ROD, "--n", "3", "--beta", "nan"], "beta must be positive"),
    (["mayer", *ROD, "--n", "3", "--volume", "nan"], "argument --volume: must be"),
    (["canonical", *ROD, "--L", "nan", "--N", "4", "--k-max", "2"], "L must be positive"),
    (["radii", "--cbeta", "nan"], "C(beta) must be positive"),
    (["mayer", *WELL, "--epsilon", "nan", "--B", "1", "--n", "3"], "epsilon"),
    (["mayer", *ROD, "--sigma", "nan", "--n", "3"], "sigma must be positive"),
    (["radii", "--u", "nan"], "--u must be >= 1"),
    (["mayer", *ROD, "--epsilon", "nan", "--n", "3"], "epsilon must be finite"),
    (["polymer", "fpcheck", "--n-ground", "6", "--zeta", "2=0.5", "--a", "nan"],
     "weight parameter a"),
    (["radii", "--cbeta", "2", "--beta", "-1"], "beta must be positive"),
    (["radii", "--cbeta", "2", "--beta", "0", "--B", "1"], "beta must be positive"),
    (["radii", "--cbeta", "2", "--B", "-1"], "stability constant B must be >= 0"),
    (["radii", "--cbeta", "2", "--B", "nan"], "stability constant B must be >= 0"),
    (["polymer", "xi", "--n-ground", "4", *ROD, "--rho", "nan"], "density rho"),
    (["polymer", "fpcheck", "--n-ground", "4", *ROD, "--rho", "nan", "--a", "0.3"],
     "density rho"),
    (["polymer", "ursell", "--n-ground", "4", *ROD, "--rho", "nan"], "density rho"),
    (["polymer", "xi", "--n-ground", "4", *ROD, "--rho", "1e200"], "density rho=1e+200"),
    (["polymer", "fpcheck", "--n-ground", "4", "--zeta", "2=0.1", "--a", "800"],
     "weight parameter a=800.0"),
    (["polymer", "fpcheck", "--n-ground", "2000", "--zeta", "1000=0.5", "--a", "0.1"],
     "term of zeta_1000 passes the float range at N=2000"),
    (["polymer", "fpcheck", "--n-ground", "4", "--zeta", f"2={10 ** 400}/1", "--a", "1"],
     "term of zeta_2 passes the float range at N=4"),
    (["polymer", "fpcheck", "--n-ground", "4", "--zeta", "2=1e300", "--a", "300"],
     "term of zeta_2 passes the float range at N=4"),
], ids=["beta", "volume", "L", "cbeta", "epsilon", "sigma", "u", "epsilon_unused", "a",
        "radii_beta_negative", "radii_beta_zero", "radii_B_negative", "radii_B_nan",
        "rho_xi", "rho_fpcheck", "rho_ursell", "rho_overflow", "a_overflow",
        "zeta_binomial_overflow", "zeta_exact_overflow", "zeta_term_overflow"])
def test_nan_input_exits_2_naming_the_key(capsys, argv, named):
    assert _exit_code(argv) == 2
    assert named in capsys.readouterr().err


def _exit_code(argv):
    """main's exit status, whether it returns it or argparse exits with it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv, named", [
    pytest.param(["radii", "--u", "inf"], "argument --u: must be finite", id="u"),
    pytest.param(["radii", "--cbeta", "inf"], "argument --cbeta: must be finite", id="cbeta"),
    pytest.param(["mayer", *ROD, "--n", "3", "--beta", "1e400"],
                 "argument --beta: must be finite", id="beta"),
    pytest.param(["mayer", *WELL, "--epsilon=-inf", "--B", "1", "--n", "3"],
                 "argument --epsilon: must be finite", id="epsilon"),
    pytest.param(["mayer", *ROD, "--n", "3", "--volume", "1e400"],
                 "argument --volume: must be", id="volume"),
    pytest.param(["canonical", *ROD, "--L", "inf", "--N", "4", "--k-max", "2"],
                 "argument --L: must be finite", id="L"),
    # a repeated size once kept its last activity
    *(pytest.param(["polymer", "xi", "--n-ground", "4", "--zeta", zeta],
                   "argument --zeta: zeta_2 is given more than once", id=f"zeta_{zeta}")
      for zeta in ("2=0.5,2=0.7", "2=0.5,02=0.7")),
    *BAD_FLAG_VALUES,
])
def test_infinite_input_exits_2_naming_the_flag(capsys, argv, named):
    # and, from BAD_FLAG_VALUES, every other value a flag's type refuses
    assert _exit_code(argv) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--beta", "3"), ("--beta", "1"), ("--B", "1"), ("--potential", "hard_rod"),
])
def test_radii_u_refuses_what_it_overrides(capsys, flag, value):
    assert main(["radii", "--u", "2", flag, value]) == 2
    assert f"cannot take {flag}" in capsys.readouterr().err


def test_radii_u_takes_cbeta():
    out = run_json(["radii", "--u", "2", "--cbeta", "3"])
    assert (out["beta"], out["B"], out["cbeta"]) == (1.0, math.log(2.0) / 2.0, 3.0)


# the route refusals the CLI reaches, read from the route table: b_n by
# mayer and ztilde by canonical, one past each cap; quadrature in d = 3 at
# the lowest order it integrates by gaps; a method outside the table.
# (virial's direct row is quadrature within its caps and skipped past them.)
ROUTE_REFUSALS = [
    *(pytest.param(["mayer", *ROD, "--n", str(caps["connected"] + 1), "--method", method,
                    "--seed", "1", "--samples", "40000"],
                   f"{method} capped at n={caps['connected']}, got n={caps['connected'] + 1}",
                   id=f"mayer_{method}") for method, caps in ROUTE_CAPS.items()),
    *(pytest.param(["canonical", *ROD, "--L", "50", "--N", str(caps["all"] + 1), "--k-max", "2",
                    "--method", method, "--seed", "1"],
                   f"{method} capped at N={caps['all']}, got N={caps['all'] + 1}",
                   id=f"canonical_{method}") for method, caps in ROUTE_CAPS.items()),
    pytest.param(["mayer", "--potential", "hard_sphere", "--n", "3"],
                 "quadrature is one-dimensional, got d=3 at n=3", id="mayer_d3"),
    pytest.param(["canonical", "--potential", "hard_sphere", "--L", "6", "--N", "2",
                  "--k-max", "2", "--method", "quadrature"],
                 "quadrature is one-dimensional, got d=3 at N=2", id="canonical_d3"),
    *(pytest.param([command, *ROD, "--method", "simpson"], "invalid choice: 'simpson'",
                   id=f"{command}_unknown") for command in ("mayer", "virial", "canonical")),
]


@pytest.mark.parametrize("argv, named", ROUTE_REFUSALS)
def test_route_refusals_exit_2(capsys, argv, named):
    assert _exit_code(argv) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("volume", ["inf", "infinite"])
def test_volume_inf_is_the_default(volume):
    argv = ["mayer", *ROD, "--n", "3"]
    assert (verify._strip_timestamp(run_for_test([*argv, "--volume", volume]))
            == verify._strip_timestamp(run_for_test(argv)))


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_out_writes_the_bytes_of_stdout(tmp_path, fmt):
    argv = ["mayer", *ROD, "--n", "3", "--format", fmt]
    target = tmp_path / f"b.{fmt}"
    assert run_for_test([*argv, "--out", str(target)]) == ""
    stamp = re.compile(rb'"generated_at": "[^"]*"')
    assert stamp.sub(b"", target.read_bytes()) == stamp.sub(b"", run_for_test(argv).encode())


#: a --config path that names no file
NO_FILE = "no such file"

#: (the config file's text, NO_FILE, or None for no --config; argv; what the refusal names)
MISSING_INPUT_REFUSALS = [
    pytest.param(None, ["radii"], "--u", id="radii_no_input"),
    pytest.param(None, ["mayer"], "--potential", id="mayer_no_potential"),
    pytest.param(None, ["virial"], "--potential", id="virial_no_potential"),
    pytest.param(None, ["canonical", *ROD, "--N", "4"], "--L", id="canonical_no_L"),
    pytest.param(None, ["canonical", *ROD, "--L", "20"], "--N", id="canonical_no_N"),
    pytest.param(None, ["polymer", "xi", "--zeta", "2=0.5"], "--n-ground",
                 id="polymer_no_n_ground"),
    pytest.param(None, ["polymer", "xi", "--n-ground", "4"], "--rho", id="xi_no_activities"),
    pytest.param(None, ["polymer", "xi", "--n-ground", "4", *WELL, "--epsilon", "1",
                        "--B", "1", "--rho", "0.1"], "hard rods", id="xi_square_well"),
    pytest.param(None, ["polymer", "fpcheck", "--n-ground", "4", "--zeta", "2=0.5"], "--a",
                 id="fpcheck_no_a"),
    pytest.param(None, ["polymer", "pexact", "--n-ground", "4"], "--s", id="pexact_no_s"),
    pytest.param(None, ["polymer", "ckn", "--n-ground", "4"], "--potential",
                 id="ckn_no_potential"),
    pytest.param(None, ["polymer", "ckn", "--n-ground", "4", "--potential", "hard_sphere"],
                 "--potential", id="ckn_hard_sphere"),
    pytest.param("[1, 2]", ["mayer", *ROD], "config file must hold a JSON object",
                 id="config_not_an_object"),
    pytest.param("{", ["mayer", *ROD], "config file is not valid JSON", id="config_not_json"),
    pytest.param(NO_FILE, ["mayer", *ROD], "cannot read config file", id="config_unreadable"),
    pytest.param('{"mayer": [3]}', ["mayer", *ROD], "'mayer'", id="config_section_not_an_object"),
]


@pytest.mark.parametrize("config, argv, named", MISSING_INPUT_REFUSALS)
def test_missing_or_malformed_input_exits_2_naming_it(tmp_path, capsys, config, argv, named):
    if config is not None:
        cfg = tmp_path / "run.json"
        if config != NO_FILE:
            cfg.write_text(config)
        argv = ["--config", str(cfg), *argv]
    assert _exit_code(argv) == 2
    assert named in capsys.readouterr().err


def test_config_null_keeps_the_flag_default(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"mayer": {"n": null, "beta": null}}')
    out = run_json(["--config", str(cfg), "mayer", *ROD])
    assert [r["n"] for r in out["records"]] == [1, 2, 3, 4]
    assert {r["beta"] for r in out["records"]} == {1.0}


def test_polymer_xi_past_n_143_runs():
    # N^(s-1) passes the float range at N >= 144; the activities are rounded
    # from their exact values, and Xi is the hard-rod closed form (1 - rho)^(N-1)
    out = run_json(["polymer", "xi", "--n-ground", "145", *ROD, "--rho", "0.1"])
    assert out["xi"] == pytest.approx(0.9 ** 144, rel=1e-13)


@pytest.mark.parametrize("N, sigma", [(721, 1.0), (1000, 1.0), (450, 2.0)])
def test_polymer_xi_past_the_float_range_of_b_n(N, sigma):
    # n^(n-1)/n! passes the float range at n = 721, and the float product
    # b_n sigma^(n-1) is inf from n ~ 420 on for sigma = 2: those b_n go
    # exact into the activities
    rho = 0.1
    out = run_json(["polymer", "xi", "--n-ground", str(N), "--potential", "hard_rod",
                    "--sigma", str(sigma), "--rho", str(rho)])
    assert out["xi"] == pytest.approx((1.0 - rho * sigma) ** (N - 1), rel=1e-12)

