"""The package and its CLI run without scipy.

Both checks start a fresh interpreter, so modules that the test session
itself has imported cannot hide an import.
"""

import os
import subprocess
import sys
from pathlib import Path

import acmoment

SRC = str(Path(acmoment.__file__).resolve().parents[1])
GOLDEN = Path(__file__).parent / "golden"

# Any attempt to import scipy raises, as if it were not installed.
NO_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, NoScipy())
from acmoment.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_import_leaves_scipy_unloaded():
    proc = _python("-c", "import sys, acmoment, acmoment.cli; "
                         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_golden_command_runs_with_scipy_blocked():
    proc = _python("-c", NO_SCIPY, "mdm", "--q2", "-0.5,-1", "--mcs2", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "mdm.csv").read_text()
