"""detrep takes both eigensolvers from the LAPACK numpy loaded: a solve
imports no scipy, zggev's binding gives what scipy's wrapper gives byte for
byte, and where the symbol is missing scipy's wrapper serves.  Import checks
run in a fresh interpreter, since this one has imported scipy.  Failures of
either routine are tested where they are used, in test_polynomials and
test_twopar."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg.lapack import zggev

from detrep import _lapack

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


def run_fresh(code):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_import_and_solves_leave_scipy_linalg_unimported():
    """Not even the scipy package itself is imported."""
    run_fresh(SOLVES + "import sys\nassert 'scipy' not in sys.modules, 'scipy'\n")


def test_missing_symbol_falls_back_to_scipy():
    run_fresh("""
import ctypes

class NoGgev(ctypes.CDLL):
    def __getattr__(self, name):
        if "ggev" in name:
            raise AttributeError(name)
        return super().__getattr__(name)

ctypes.CDLL = NoGgev
from detrep import _lapack
assert _lapack.GGEV_SYMBOL == "scipy fallback", _lapack.GGEV_SYMBOL
""" + SOLVES)


@pytest.mark.parametrize("complex_entries", [False, True])
def test_binding_equals_scipy_zggev_bytewise(complex_entries):
    """alpha, beta, the eigenvectors and the cached workspace are those of
    scipy's wrapper at its queried lwork, on orders 1 to 64."""
    rng = np.random.default_rng(64 + complex_entries)
    for n in range(1, 65):
        a, b = rng.standard_normal((2, n, n))
        if complex_entries:
            a, b = a + 1j * rng.standard_normal((n, n)), b + 1j * rng.standard_normal((n, n))
        lwork = int(zggev(a, b, lwork=-1)[-2][0].real)
        alpha, beta, _, vr, _, info = zggev(a, b, compute_vl=0, lwork=lwork)
        got = _lapack._ggev(a, b)
        assert info == got[3] == 0
        for want, have in zip((alpha, beta, vr), got):
            assert want.dtype == have.dtype and want.shape == have.shape
            assert want.tobytes(order="F") == have.tobytes(order="F"), n
        assert got[2].flags.f_contiguous  # as scipy's: the norms sum in its order
        if _lapack._int is not None:  # WORK's length in the buffer
            ends = _lapack._layout(n)[1]
            assert ends[6] - ends[5] == lwork
