"""LAPACK's two eigensolvers from the library `numpy.linalg` already loaded:
numpy's own zgeev kernel, and zggev bound by name with ctypes, so that a
process maps one LAPACK.  Where the handle finds none of the names (on
Windows it does not reach linked libraries), scipy's zggev wrapper serves."""

import ctypes
import functools

import numpy as np
from numpy.linalg import _umath_linalg
from numpy.linalg._linalg import _raise_linalgerror_eigenvalues_nonconvergence as _unconverged

# zggev's symbol and LAPACK integer type, tried in this order
_SYMBOLS = (("scipy_zggev_64_", ctypes.c_int64), ("zggev_64_", ctypes.c_int64),
            ("zggev_", ctypes.c_int32))
_lib = ctypes.CDLL(_umath_linalg.__file__)
GGEV_SYMBOL, _int = next(((s, t) for s, t in _SYMBOLS if hasattr(_lib, s)),
                         ("scipy fallback", None))
if _int is not None:
    _zggev = getattr(_lib, GGEV_SYMBOL)
    # 17 arguments by reference, then the hidden lengths of the two flags
    _zggev.argtypes, _zggev.restype = [ctypes.c_void_p] * 17 + [ctypes.c_size_t] * 2, None


@np.errstate(call=_unconverged, invalid="call", over="ignore", divide="ignore", under="ignore")
def eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a complex square matrix, as `np.linalg.eigvals` gives them."""
    return _umath_linalg.eigvals(a, signature="D->D")


@functools.cache
def _layout(n: int):
    """zggev's n, 1 and queried lwork (it keeps ggev's blocked QR) by reference,
    where A, B, alpha, beta, VR, WORK and RWORK end in one complex buffer
    (in entries), and the buffer's ctypes array type."""
    ints, work = [_int(v) for v in (n, 1, -1, 0)], np.zeros(1, dtype=complex)
    (N, one, lwork, info), w = map(ctypes.byref, ints), work.ctypes.data
    _zggev(b"N", b"V", N, w, N, w, N, w, w, w, one, w, N, w, lwork, w, info, 1, 1)
    ints[2].value = int(work[0].real)
    ends = np.cumsum([0, n * n, n * n, n, n, n * n, ints[2].value, 4 * n]).tolist()
    return (N, one, lwork), ends, ctypes.c_double * (2 * ends[-1])


def _ggev(a: np.ndarray, b: np.ndarray):
    """(alpha, beta, vr, info) of zggev without left eigenvectors."""
    if _int is None:
        from scipy.linalg.lapack import zggev
        lwork = int(zggev(a, b, lwork=-1)[-2][0].real)
        alpha, beta, _, vr, _, info = zggev(a, b, compute_vl=0, lwork=lwork)
        return alpha, beta, vr, info
    n = a.shape[0]
    (N, one, lwork), ends, array = _layout(n)
    # a buffer per call, allocated by ctypes: its address costs a tenth of
    # numpy's .ctypes.data, and a shared one would race between threads
    raw, info = array(), _int()
    buf, base = np.frombuffer(raw, dtype=complex), ctypes.addressof(raw)
    ab = buf[:ends[2]].reshape(2, n, n)  # A and B, column-major
    ab[0], ab[1] = a.T, b.T
    _, b_at, alpha_at, beta_at, vr_at, work_at, rwork_at, _ = (base + 16 * end for end in ends)
    _zggev(b"N", b"V", N, base, N, b_at, N, alpha_at, beta_at, work_at, one, vr_at, N, work_at,
           lwork, rwork_at, ctypes.byref(info), 1, 1)
    vr = buf[ends[4]:ends[5]].reshape(n, n).T
    return buf[ends[2]:ends[3]], buf[ends[3]:ends[4]], vr, info.value


def eig(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues alpha/beta (inf where only beta vanishes, nan where both
    do) and unit-norm right eigenvectors of the pencil (a, b), from zggev."""
    if a.ndim != 2 or a.shape[0] != a.shape[1] or b.shape != a.shape:
        raise ValueError(f"expected two square matrices of one shape, got {a.shape} and {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    alpha, beta, vr, info = _ggev(a, b)
    if info != 0:
        raise np.linalg.LinAlgError(f"generalized eigensolve (ggev) failed, info {info}")
    with np.errstate(divide="ignore", invalid="ignore"):
        w = alpha / beta
    if not beta.all():  # a vanishing beta is rare: fix those entries only
        w[beta == 0] = np.where(alpha[beta == 0] != 0, np.inf, complex(np.nan, np.nan))
    return w, vr / np.linalg.norm(vr, axis=0)
