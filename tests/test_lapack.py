"""detrep reaches LAPACK without importing the scipy.linalg package, and
shares its routines with scipy.linalg in either import order.  Each check
runs in a fresh interpreter, since this one has imported scipy.linalg."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SOLVES = """
import numpy as np
import detrep, detrep.cli
p = detrep.BivariatePolynomial.from_terms(
    {(0, 0): 1.0, (1, 0): 2.0, (0, 1): 3.0, (2, 0): 4.0, (1, 1): 5.0, (0, 2): 6.0})
q = detrep.BivariatePolynomial.from_terms(
    {(0, 0): -1.0, (1, 0): 0.5, (0, 1): 1.5, (2, 0): 1.0, (1, 1): -2.0, (0, 2): 0.7})
assert sum(r.multiplicity for r in detrep.solve_system(p, q)) == 4
rng = np.random.default_rng(0)
p, q = (detrep.BivariatePolynomial.from_terms(
    {(j, k): rng.uniform(0, 1) for j in range(4) for k in range(4 - j)}) for _ in range(2))
assert sum(r.multiplicity for r in detrep.solve_system(p, q)) == 9
"""

SAME_ROUTINES = """
import detrep._lapack, scipy.linalg.lapack
assert detrep._lapack.zggev is scipy.linalg.lapack.zggev
assert detrep._lapack.zgeev is scipy.linalg.lapack.zgeev
"""


def run_fresh(code):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_import_and_solves_leave_scipy_linalg_unimported():
    run_fresh(SOLVES + "import sys\nassert 'scipy.linalg' not in sys.modules, 'scipy.linalg'\n")


@pytest.mark.parametrize("scipy_first", [False, True])
def test_detrep_and_scipy_linalg_share_the_routines(scipy_first):
    code = SOLVES + SAME_ROUTINES
    run_fresh("import scipy.linalg\n" + code if scipy_first else code)


def test_missing_extension_names_the_directory():
    run_fresh("""
import os, scipy
from importlib import machinery
find_spec = machinery.FileFinder.find_spec
machinery.FileFinder.find_spec = lambda self, name, target=None: (
    None if name == "scipy.linalg._flapack" else find_spec(self, name, target))
try:
    import detrep
except ImportError as exc:
    assert os.path.join(scipy.__path__[0], "linalg") in str(exc), exc
else:
    raise AssertionError("import detrep succeeded without _flapack")
""")
