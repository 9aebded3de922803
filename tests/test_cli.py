import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from acmoment import cli
from acmoment.formfactor import SusyParams, YukawaParams, susy_form_factor, yukawa_form_factor

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

CHARGES = str(DATA / "charges_single.json")
HEXAGON = str(DATA / "hexagon.json")
ARM_UP = str(DATA / "arm_upper.json")
ARM_DOWN = str(DATA / "arm_lower.json")


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mdm_csv_matches_library(capsys):
    code, out, _ = run_cli(capsys, ["mdm", "--q2", "-0.5,-1", "--mcs2", "1.0"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q_hat2,mcs_hat2,integral,error_estimate,evaluations"
    assert len(lines) == 3
    for line, q2 in zip(lines[1:], (-0.5, -1.0)):
        fields = line.split(",")
        res = susy_form_factor(SusyParams(q_hat2=q2, mcs_hat2=1.0), 1e-8)
        # 17 significant digits round-trip exactly
        assert float(fields[0]) == q2
        assert float(fields[2]) == res.integral
        assert int(fields[4]) == res.evaluations


def test_mdm_json_structure(capsys):
    code, out, _ = run_cli(capsys, ["mdm", "--q2", "-1", "--mcs2", "1.0",
                                    "--out", "json"])
    assert code == 0
    payload = json.loads(out)
    row = payload["rows"][0]
    assert set(row) == {"q_hat2", "mcs_hat2", "integral", "error_estimate",
                        "evaluations"}
    res = susy_form_factor(SusyParams(q_hat2=-1.0, mcs_hat2=1.0), 1e-8)
    assert row["integral"] == res.integral


def test_mdm_mc_is_seed_deterministic(capsys):
    args = ["mdm", "--q2", "-1", "--mcs2", "1.0", "--method", "mc",
            "--samples", "100000", "--seed", "7"]
    _, out1, _ = run_cli(capsys, args)
    _, out2, _ = run_cli(capsys, args)
    assert out1 == out2
    _, out3, _ = run_cli(capsys, args[:-1] + ["8"])
    assert out3 != out1


def test_yukawa_csv_matches_library(capsys):
    code, out, _ = run_cli(
        capsys,
        ["yukawa", "--q2", "-1", "--m1", "1.2", "--m2", "0.7",
         "--e1", "1", "--e2", "0.5"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q_hat2,m1_hat,m2_hat,e1,e2,integral,error_estimate"
    fields = lines[1].split(",")
    res = yukawa_form_factor(
        YukawaParams(q_hat2=-1.0, m1_hat=1.2, m2_hat=0.7, e1=1.0, e2=0.5), 1e-8
    )
    assert float(fields[5]) == res.integral


def test_yukawa_swapped_parameters_same_integral(capsys):
    _, out1, _ = run_cli(capsys, ["yukawa", "--q2", "-1", "--m1", "1.2",
                                  "--m2", "0.7", "--e1", "0.8", "--e2", "0.3"])
    _, out2, _ = run_cli(capsys, ["yukawa", "--q2", "-1", "--m1", "0.7",
                                  "--m2", "1.2", "--e1", "0.3", "--e2", "0.8"])
    integral1 = out1.strip().splitlines()[1].split(",")[5]
    integral2 = out2.strip().splitlines()[1].split(",")[5]
    assert integral1 == integral2


def test_phase_command(capsys):
    code, out, _ = run_cli(capsys, ["phase", "--charges", CHARGES, "--path",
                                    HEXAGON, "--g", "2", "--species", "spinor"])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["phase"] - 6.0) <= 1e-8
    assert payload["windings"] == [1]
    assert payload["species"] == "spinor"
    assert payload["convention_s"] == 1

    code, out, _ = run_cli(capsys, ["phase", "--charges", CHARGES, "--path",
                                    HEXAGON, "--g", "2", "--species", "scalar"])
    assert code == 0
    assert abs(json.loads(out)["phase"] + 6.0) <= 1e-8


def test_fringe_command(capsys):
    code, out, _ = run_cli(capsys, ["fringe", "--charges", CHARGES,
                                    "--path-a", ARM_UP, "--path-b", ARM_DOWN,
                                    "--g", "2", "--species", "spinor"])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["delta_phase"] - 6.0) <= 1e-8
    assert abs(payload["contrast"] - math.cos(3.0) ** 2) <= 1e-8


def test_ir_scan_csv_footer(capsys):
    code, out, _ = run_cli(capsys, ["ir-scan", "--q2", "-1e-2,-1e-3,-1e-4",
                                    "--mcs2", "1.0"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q_hat2,integral,error_estimate,evaluations"
    footers = [l for l in lines if l.startswith("# ")]
    assert [f.split(" = ")[0] for f in footers] == ["# slope", "# intercept",
                                                    "# r_squared"]


def test_ir_scan_mass_sweep_mode(capsys):
    code, out, _ = run_cli(capsys, ["ir-scan", "--param", "mcs2",
                                    "--mcs2-list", "1e-2,1e-3,1e-4",
                                    "--q2-fixed", "0", "--out", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][0]["mcs_hat2"] == 1e-2
    assert 0.4 <= payload["fit"]["slope"] <= 0.6


def test_ir_scan_single_point_null_fit(capsys):
    code, out, _ = run_cli(capsys, ["ir-scan", "--q2", "-1e-3", "--mcs2", "1.0",
                                    "--out", "json"])
    assert code == 0
    fit = json.loads(out)["fit"]
    assert fit["slope"] is None and fit["r_squared"] is None


def test_check_reduction_reports_and_exits_infrared(capsys):
    code, out, err = run_cli(capsys, ["check-reduction"])
    assert code == cli.EXIT_INFRARED
    assert out.startswith("pointwise integrand deviation over 100 samples: 0")
    assert "infrared" in err.lower()


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["mdm", "--q2", ""], cli.EXIT_USAGE),
        (["mdm", "--q2", "-1", "--tol", "0"], cli.EXIT_USAGE),
        (["mdm", "--q2", "abc"], cli.EXIT_USAGE),
        (["yukawa", "--q2", "-1", "--m1", "-1", "--m2", "0"], cli.EXIT_USAGE),
        (["mdm", "--q2", "4.1"], cli.EXIT_DOMAIN),
        (["yukawa", "--q2", "-1", "--m1", "0.5", "--m2", "0"], cli.EXIT_DOMAIN),
        (["mdm", "--q2", "0", "--mcs2", "0"], cli.EXIT_INFRARED),
        (["ir-scan", "--q2", "-1e-2,-1e-3"], cli.EXIT_INFRARED),
        (["mdm", "--q2", "-1", "--mcs2", "1e-6", "--budget", "150"],
         cli.EXIT_NONCONVERGENCE),
        (["nonsense"], cli.EXIT_USAGE),
    ],
)
def test_exit_codes(capsys, argv, expected):
    code, _, _ = run_cli(capsys, argv)
    assert code == expected


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run_cli(capsys, ["phase", "--charges", str(bad), "--path",
                                    HEXAGON, "--g", "1", "--species", "spinor"])
    assert code == cli.EXIT_PARSE
    assert "parse error" in err


def test_missing_file_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, ["phase", "--charges", "/no/such/file.json",
                                  "--path", HEXAGON, "--g", "1",
                                  "--species", "spinor"])
    assert code == cli.EXIT_USAGE


def test_csv_bit_stable_across_runs(capsys):
    args = ["ir-scan", "--q2", "-1e-2,-1e-3", "--mcs2", "1.0"]
    _, out1, _ = run_cli(capsys, args)
    _, out2, _ = run_cli(capsys, args)
    assert out1.encode() == out2.encode()


GOLDEN_RUNS = [
    (["mdm", "--q2", "-0.5,-1", "--mcs2", "1.0"], "mdm.csv", 0),
    (["mdm", "--q2", "-1", "--mcs2", "1.0", "--method", "mc",
      "--samples", "100000", "--seed", "7"], "mdm_mc.csv", 0),
    (["yukawa", "--q2", "-1,-2", "--m1", "1.2", "--m2", "0.7",
      "--e1", "1", "--e2", "0.5"], "yukawa.csv", 0),
    (["phase", "--charges", CHARGES, "--path", HEXAGON, "--g", "2",
      "--species", "spinor"], "phase.json", 0),
    (["fringe", "--charges", CHARGES, "--path-a", ARM_UP, "--path-b", ARM_DOWN,
      "--g", "2", "--species", "spinor"], "fringe.json", 0),
    (["ir-scan", "--q2", "-1e-2,-1e-3,-1e-4", "--mcs2", "1.0",
      "--out", "json"], "ir_scan.json", 0),
    (["check-reduction", "--grid", "-0.5,-1,-2"], "check_reduction.txt",
     cli.EXIT_INFRARED),
]


@pytest.mark.parametrize("argv,golden_name,expected_code", GOLDEN_RUNS)
def test_golden_outputs(capsys, argv, golden_name, expected_code):
    code, out, _ = run_cli(capsys, argv)
    assert code == expected_code
    expected = (GOLDEN / golden_name).read_text()
    assert out == expected


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "acmoment.cli", "mdm", "--q2", "-1",
         "--mcs2", "1.0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].startswith("q_hat2,")
