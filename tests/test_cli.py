import json
import math
from fractions import Fraction

import pytest

from clusterkit import verify
from clusterkit.cli import main, run_for_test
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
    assert main(["polymer", action, "--n-ground", "0", *extra]) == 2
    assert "--n-ground must be >= 1" in capsys.readouterr().err


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
    assert main(["polymer", "ursell", "--n-ground", "3", "--zeta", "2=1/3",
                 "--orders", orders]) == 2
    assert "--orders must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "-2"])
def test_mayer_refuses_orders_below_one(capsys, n):
    assert main(["mayer", "--potential", "hard_rod", "--n", n]) == 2
    assert f"--n must be >= 1, got {n}" in capsys.readouterr().err


@pytest.mark.parametrize("k_max", ["0", "-1"])
def test_canonical_refuses_k_max_below_one(capsys, k_max):
    assert main(["canonical", "--potential", "hard_rod", "--L", "50", "--N", "5",
                 "--k-max", k_max]) == 2
    assert f"--k-max must be >= 1, got {k_max}" in capsys.readouterr().err


def test_polymer_ursell_float_overflow_exits_2(capsys):
    assert main(["polymer", "ursell", "--n-ground", "3", "--zeta", "2=1e200",
                 "--orders", "2"]) == 2
    assert "order 2 overflows a float" in capsys.readouterr().err


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
    {"mayer": {"n": 3.5}},
    {"mayer": {"format": "xml"}},
    {"mayer": {"method": "montecarlo"}},
    {"mayer": {"seed": [1, 2]}},
    {"verify": {"suite": "everything"}},
    {"mayer": {"beta": math.inf}},
    {"mayer": {"workers": 0}},
], ids=["n", "format", "method", "seed", "suite", "beta_inf", "workers"])
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
    assert main([*argv, "--method", "monte_carlo", "--seed", "1", "--chunk", "0"]) == 2
    assert "chunk" in capsys.readouterr().err


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
], ids=["well_bond", "penrose_bound", "u", "ck_bound"])
def test_overflow_exits_2_naming_the_input(monkeypatch, capsys, argv, named):
    # each input fails before any integral: mayer checks every b_n bound first
    def never(*args, **kwargs):
        raise AssertionError("mayer_bn ran before the inputs were checked")

    monkeypatch.setattr("clusterkit.cli.mayer_bn", never)
    assert main(argv) == 2
    assert named in capsys.readouterr().err


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
    (["mayer", *ROD, "--n", "3", "--volume", "nan"], "--volume"),
    (["canonical", *ROD, "--L", "nan", "--N", "4", "--k-max", "2"], "L > 0"),
    (["radii", "--cbeta", "nan"], "C(beta) must be positive"),
    (["mayer", *WELL, "--epsilon", "nan", "--B", "1", "--n", "3"], "epsilon"),
    (["mayer", *ROD, "--sigma", "nan", "--n", "3"], "sigma must be positive"),
    (["radii", "--u", "nan"], "--u must be >= 1"),
], ids=["beta", "volume", "L", "cbeta", "epsilon", "sigma", "u"])
def test_nan_input_exits_2_naming_the_key(capsys, argv, named):
    assert main(argv) == 2
    assert named in capsys.readouterr().err


def _exit_code(argv):
    """main's exit status, whether it returns it or argparse exits with it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv, named", [
    (["radii", "--u", "inf"], "argument --u: must be finite"),
    (["radii", "--cbeta", "inf"], "argument --cbeta: must be finite"),
    (["mayer", *ROD, "--n", "3", "--beta", "1e400"], "argument --beta: must be finite"),
    (["mayer", *WELL, "--epsilon=-inf", "--B", "1", "--n", "3"],
     "argument --epsilon: must be finite"),
    (["mayer", *ROD, "--n", "3", "--volume", "1e400"], "--volume must be"),
    (["canonical", *ROD, "--L", "inf", "--N", "4", "--k-max", "2"],
     "argument --L: must be finite"),
], ids=["u", "cbeta", "beta", "epsilon", "volume", "L"])
def test_infinite_input_exits_2_naming_the_flag(capsys, argv, named):
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
