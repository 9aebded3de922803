"""The package and its CLI run without scipy, and without numpy off the sampling paths.

Every check starts a fresh interpreter, so modules that the test session
itself has imported cannot hide an import.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import acmoment
from test_cli import GOLDEN_RUNS

SRC = str(Path(acmoment.__file__).resolve().parents[1])
GOLDEN = Path(__file__).parent / "golden"
HEXAGON = str(Path(__file__).parent / "data" / "hexagon.json")

# Any attempt to import the named top-level package raises, as if it
# were not installed; then the CLI runs on the remaining arguments.
BLOCKED = """
import sys

class Blocked:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == sys.argv[1]:
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, Blocked())
from acmoment.cli import main
sys.exit(main(sys.argv[2:]))
"""

# The commands that must not need numpy: the adaptive form factors and
# scans, and one refusal for each exit code that refuses without work.
NUMPY_FREE_GOLDENS = [run for run in GOLDEN_RUNS
                      if run[1] in ("mdm.csv", "yukawa.csv", "ir_scan.json")]
REFUSALS = [
    (["mdm", "--q2", "x"], 2),
    (["mdm", "--q2", "4.1"], 3),
    (["mdm", "--q2", "0", "--mcs2", "0"], 4),
    (["phase", "--charges", HEXAGON, "--path", HEXAGON, "--g", "1",
      "--species", "spinor"], 6),
]


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def _cli_without(module, argv):
    return _python("-c", BLOCKED, module, *argv)


def _loaded(top):
    proc = _python("-c", "import sys, acmoment, acmoment.cli; "
                         f"print(sorted(m for m in sys.modules if m.split('.')[0] == {top!r}))")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_leaves_scipy_unloaded():
    assert _loaded("scipy") == "[]\n"


def test_import_leaves_numpy_unloaded():
    assert _loaded("numpy") == "[]\n"


def test_golden_command_runs_with_scipy_blocked():
    proc = _cli_without("scipy", ["mdm", "--q2", "-0.5,-1", "--mcs2", "1"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "mdm.csv").read_text()


@pytest.mark.parametrize("argv,golden_name,expected_code", NUMPY_FREE_GOLDENS)
def test_golden_command_runs_with_numpy_blocked(argv, golden_name, expected_code):
    proc = _cli_without("numpy", argv)
    assert proc.returncode == expected_code, proc.stderr
    assert proc.stdout == (GOLDEN / golden_name).read_text()


@pytest.mark.parametrize("argv,expected_code", REFUSALS)
def test_refusal_exits_with_numpy_blocked(argv, expected_code):
    proc = _cli_without("numpy", argv)
    assert proc.returncode == expected_code, proc.stderr


def test_monte_carlo_runs_with_numpy():
    (argv, golden_name, expected_code), = [run for run in GOLDEN_RUNS
                                           if run[1] == "mdm_mc.csv"]
    proc = _python("-m", "acmoment.cli", *argv)
    assert proc.returncode == expected_code, proc.stderr
    assert proc.stdout == (GOLDEN / golden_name).read_text()
