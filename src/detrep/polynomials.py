"""Bivariate polynomials on dense triangular coefficient tables.

A polynomial p(x, y) = sum_{j+k<=n} c[j, k] x^j y^k of degree n is stored as
a square complex array of shape (n+1, n+1); entries with j + k > n are kept
identically zero.  Degrees in this package stay small (n <~ 30), so the dense
table keeps every index computation trivial and sparse inputs are simply
detected by scanning.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from ._lapack import eigvals

# Coefficients at or below this fraction of the largest one count as
# structural zeros when the exact degree is determined.
DEGREE_TRIM_REL = 1e-14


class DegenerateInputError(ValueError):
    """Input polynomial is too degenerate for the requested construction."""


class LeadingCoefficientError(ValueError):
    """The top coefficient of a univariate polynomial vanishes; the caller
    must deflate the degree before asking for roots."""


@functools.cache
def _band(size: int) -> np.ndarray:
    """Read-only table of j + k, shared by every polynomial of that size."""
    band = np.add.outer(np.arange(size), np.arange(size))
    band.flags.writeable = False
    return band


def _trim_table(table: np.ndarray, mags: np.ndarray) -> np.ndarray:
    """Return the square table cut down to the exact degree.

    `table` has shape (n+1, n+1, ...) and mags[j, k] is the magnitude of
    its (j, k) entry.  The exact degree is the largest j + k carrying an
    entry whose magnitude exceeds DEGREE_TRIM_REL times the largest one;
    smaller entries on discarded bands are treated as structural zeros,
    and entries outside the triangle of the trimmed degree are dropped.
    The zero polynomial comes back with a 1x1 leading shape.
    """
    size = table.shape[0]
    top = mags.max() if size else 0.0
    if top == 0.0:
        return np.zeros((1, 1) + table.shape[2:], dtype=complex)
    band = _band(size)
    degree = int(band[(band < size) & (mags > DEGREE_TRIM_REL * top)].max(initial=0))
    head = slice(0, degree + 1)
    out = table[head, head].copy()
    out[(band[head, head] > degree) | (mags[head, head] == 0.0)] = 0.0
    return out


def times_linear(table: np.ndarray, a: complex, b: complex, c: complex) -> np.ndarray:
    """Coefficient table(s) of the product with a + b x + c y, over the last
    two axes; the top band of `table` must be zero so that the product fits."""
    out = a * table
    if table.shape[-2] > 1:  # a one-row (one-column) window has no shifted part
        out[..., 1:, :] += b * table[..., :-1, :]
    if table.shape[-1] > 1:
        out[..., :, 1:] += c * table[..., :, :-1]
    return out


class BivariatePolynomial:
    """Scalar bivariate polynomial with complex coefficients.

    Parameters
    ----------
    coeffs : array_like
        Square table c[j, k] multiplying x^j y^k.  Entries with j + k
        beyond the exact degree are discarded (they must be numerically
        negligible); the stored table always has shape (degree+1, degree+1).
    """

    __slots__ = ("coeffs", "degree")

    def __init__(self, coeffs):
        arr = np.atleast_2d(np.asarray(coeffs, dtype=complex))
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"coefficient table must be square, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("coefficients must be finite")
        table = _trim_table(arr, np.abs(arr))
        self.coeffs = table
        self.degree = table.shape[0] - 1

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "BivariatePolynomial":
        return cls(np.zeros((1, 1)))

    @classmethod
    def from_terms(cls, terms: dict) -> "BivariatePolynomial":
        """Build from a {(j, k): coefficient} mapping."""
        if not terms:
            return cls.zero()
        n = max(j + k for j, k in terms)
        table = np.zeros((n + 1, n + 1), dtype=complex)
        for (j, k), c in terms.items():
            table[j, k] = c
        return cls(table)

    # -- basic queries -----------------------------------------------------

    def coeff_norm(self) -> float:
        """Largest coefficient magnitude (the scale of the polynomial)."""
        return float(np.abs(self.coeffs).max())

    @property
    def is_zero(self) -> bool:
        return self.degree == 0 and self.coeffs[0, 0] == 0

    def terms(self):
        """Yield (j, k, coefficient) for every nonzero term."""
        n = self.degree
        for j in range(n + 1):
            for k in range(n + 1 - j):
                c = self.coeffs[j, k]
                if c != 0:
                    yield j, k, c

    def __repr__(self):
        return f"BivariatePolynomial(degree={self.degree})"

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x: complex, y: complex) -> complex:
        """Evaluate with nested Horner recurrences (y innermost)."""
        point = np.array([x], dtype=complex), np.array([y], dtype=complex)
        return complex(evaluate_tables(self.coeffs[None], *point)[0, 0])

    # -- arithmetic ---------------------------------------------------------

    def _padded(self, size: int) -> np.ndarray:
        out = np.zeros((size, size), dtype=complex)
        m = self.coeffs.shape[0]
        out[:m, :m] = self.coeffs
        return out

    def __add__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        size = max(self.degree, other.degree) + 1
        return BivariatePolynomial(self._padded(size) + other._padded(size))

    def __sub__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        size = max(self.degree, other.degree) + 1
        return BivariatePolynomial(self._padded(size) - other._padded(size))

    # -- change of variables ---------------------------------------------------

    def substitute(self, sub: "AffineSubstitution") -> "BivariatePolynomial":
        """Coefficients of p(E (x', y') + t) via bivariate Horner on tables."""
        return BivariatePolynomial(substitute_table(self.coeffs, sub))


@dataclass(frozen=True)
class AffineSubstitution:
    """Invertible affine change of variables (x, y) = E (x', y') + t."""

    linear: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.linear, dtype=complex).reshape(2, 2)
        t = np.asarray(self.shift, dtype=complex).reshape(2)
        (a, b), (c, d) = e.tolist()
        if not all(map(cmath.isfinite, (a, b, c, d, *t.tolist()))):
            raise ValueError("substitution must be finite")
        if a * d - b * c == 0.0:
            raise ValueError("substitution matrix must be invertible")
        object.__setattr__(self, "linear", e)
        object.__setattr__(self, "shift", t)

    @classmethod
    def shear_x(cls, s: complex, t: complex) -> "AffineSubstitution":
        """x = x' + s y' + t, y = y'."""
        return cls(np.array([[1.0, s], [0.0, 1.0]]), np.array([t, 0.0]))

    @classmethod
    def shear_y(cls, u: complex, v: complex) -> "AffineSubstitution":
        """x = x', y = u x' + y' + v."""
        return cls(np.array([[1.0, 0.0], [u, 1.0]]), np.array([0.0, v]))

    def inverse(self) -> "AffineSubstitution":
        """The map back, in closed form: the adjugate times the reciprocal
        of the determinant, exact for a shear's unit determinant."""
        (a, b), (c, d) = self.linear.tolist()
        t0, t1 = self.shift.tolist()
        r = 1.0 / (a * d - b * c)
        e = ((d * r, -b * r), (-c * r, a * r))
        shift = [-(row[0] * t0 + row[1] * t1) for row in e]
        return AffineSubstitution(np.array(e), np.array(shift))

    def compose(self, inner: "AffineSubstitution") -> "AffineSubstitution":
        """Map applying `inner` first: (x,y) = self(inner(x'', y''))."""
        return AffineSubstitution(
            self.linear @ inner.linear, self.linear @ inner.shift + self.shift
        )


class MatrixBivariatePolynomial:
    """Bivariate polynomial whose coefficients are square k x k blocks."""

    __slots__ = ("coeffs", "degree", "block_size")

    def __init__(self, coeffs):
        arr = np.asarray(coeffs, dtype=complex)
        if arr.ndim != 4 or arr.shape[0] != arr.shape[1] or arr.shape[2] != arr.shape[3]:
            raise ValueError(f"expected shape (n+1, n+1, k, k), got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("coefficients must be finite")
        table = _trim_table(arr, np.abs(arr).max(axis=(2, 3)))
        self.coeffs = table
        self.degree = table.shape[0] - 1
        self.block_size = arr.shape[2]

    @classmethod
    def from_blocks(cls, blocks: dict, block_size: int) -> "MatrixBivariatePolynomial":
        """Build from a {(j, k): k x k array} mapping."""
        n = max((j + k for j, k in blocks), default=0)
        table = np.zeros((n + 1, n + 1, block_size, block_size), dtype=complex)
        for (j, k), blk in blocks.items():
            table[j, k] = blk
        return cls(table)

    def coeff_norm(self) -> float:
        return float(np.abs(self.coeffs).max())

    def terms(self):
        n = self.degree
        for j in range(n + 1):
            for k in range(n + 1 - j):
                blk = self.coeffs[j, k]
                if np.any(blk != 0):
                    yield j, k, blk

    def __call__(self, x: complex, y: complex) -> np.ndarray:
        tables = np.moveaxis(self.coeffs, (2, 3), (0, 1)).reshape((-1,) + self.coeffs.shape[:2])
        point = np.array([x], dtype=complex), np.array([y], dtype=complex)
        return evaluate_tables(tables, *point).reshape(self.block_size, self.block_size)


# -- module-level operation surface ------------------------------------------


def substitute_table(
    c: np.ndarray, sub: AffineSubstitution, rows: int | None = None, cols: int | None = None
) -> np.ndarray:
    """Leading `rows` x `cols` block (all of it by default) of the untrimmed
    table of p(E (x', y') + t), for the square table c of p.  The first r
    rows (columns) of a `times_linear` product depend only on the first r
    rows (columns) of its factor, so the Horner run on the block alone
    rounds exactly like the full one.

    Only a variable the map moves gets Horner products.  When y = y', the
    y pass would rebuild c exactly, so c is copied; when x = x', each x
    step is the product's exact shift of rows, added in the same order.
    Each pass starts from its leading coefficient: the product of the zero
    table it would start from is zero."""
    e, t = sub.linear, sub.shift
    n = c.shape[0] - 1
    # part[j] accumulates sum_k c[j, k] y^k in the new variables, all j at once
    part = np.zeros((n + 1, n + 1, n + 1), dtype=complex)[:, :rows, :cols]
    if e[1, 0] == 0 and e[1, 1] == 1 and t[1] == 0:
        part[:, 0, :] = c[:, : part.shape[2]]
    else:
        part[:, 0, 0] = c[:, n]
        for k in range(n - 1, -1, -1):
            part = times_linear(part, t[1], e[1, 0], e[1, 1])
            part[:, 0, 0] += c[:, k]
    moves_x = not (e[0, 0] == 1 and e[0, 1] == 0 and t[0] == 0)
    acc = part[n].copy()
    for j in range(n - 1, -1, -1):
        if moves_x:
            acc = times_linear(acc, t[0], e[0, 0], e[0, 1])
        else:
            shifted = np.zeros_like(acc)
            shifted[1:] = acc[:-1]
            acc = shifted
        acc += part[j]
    return acc


def univariate_roots(coeffs) -> np.ndarray:
    """All roots of c[0] + c[1] t + ... + c[m] t^m, sorted by ascending
    modulus with ties broken by ascending real part, then imaginary part.

    Roots are eigenvalues of the companion matrix of the monic
    normalization, from one LAPACK zgeev call without eigenvectors (the
    routine `np.linalg.eigvals` runs, which balances the matrix internally).
    """
    c = np.asarray(coeffs, dtype=complex).ravel()
    if c.size < 2:
        raise ValueError("need at least a degree-1 polynomial")
    mags = [abs(v) for v in c.tolist()]
    if not all(map(math.isfinite, mags)):  # nan as well as inf, at every degree
        raise np.linalg.LinAlgError("coefficients must be finite")
    scale = max(mags)
    if scale == 0.0 or mags[-1] <= DEGREE_TRIM_REL * scale:
        raise LeadingCoefficientError(
            "leading coefficient vanishes; deflate the degree before rootfinding"
        )
    monic = c / c[-1]
    m = c.size - 1
    if m == 1:
        roots = np.array([-monic[0]], dtype=complex)
    else:
        companion = np.eye(m, k=-1, dtype=complex)
        companion[:, -1] = -monic[:-1]
        roots = eigvals(companion)
    return np.array(sort_roots(roots.tolist()))


def sort_roots(roots: list) -> list:
    """`univariate_roots`' order of a list of complex roots."""
    # quantize the modulus and real-part keys so that roots equal up to
    # rounding noise actually reach the tie-breaks
    quantum = 1e-12 * max(max(map(abs, roots)), 1e-300)
    return sorted(roots, key=lambda r: (round(abs(r) / quantum), round(r.real / quantum), r.imag))


def partial_derivatives(
    p: BivariatePolynomial,
) -> tuple[BivariatePolynomial, BivariatePolynomial]:
    """(dp/dx, dp/dy) as polynomials."""
    return tuple(BivariatePolynomial(t) for t in derivative_tables(p.coeffs))


def derivative_tables(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tables of d/dx and d/dy of the square coefficient table c, one
    smaller; of size 0 for a constant."""
    n = c.shape[0] - 1
    powers = np.arange(1, n + 1)
    return powers[:, None] * c[1:, :n], powers * c[:n, 1:]


def _horner(coeffs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_i coeffs[i] w^i by Horner's rule, each step z * w + c taken as
    z * Re(w) + z * i Im(w) + c: that rounds like Python's complex arithmetic,
    as a product with a real or an imaginary factor rounds each part once."""
    wr, wi = w.real, 1j * w.imag
    z = coeffs[-1] + np.zeros(w.shape)  # one value per point, also for constants
    for c in coeffs[-2::-1]:
        z = z * wr + z * wi + c
    return z


def evaluate_tables(tables: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Values of the stacked (t, s, s) coefficient tables at the points
    (x[i], y[i]), as a (t, len(x)) array; nested Horner recurrences, y
    innermost.  Overflow gives inf or nan, which callers test."""
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _horner(tables.transpose(2, 0, 1)[..., None], y)  # (t, s, k)
        return _horner(rows.transpose(1, 0, 2), x)
