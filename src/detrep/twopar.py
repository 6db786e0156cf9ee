"""Two-parameter eigenvalue problems.

A pair of pencils (A1 + x B1 + y C1) u1 = 0, (A2 + x B2 + y C2) u2 = 0 is
coupled through the operator determinants

    delta0 = kron(B1, C2) - kron(C1, B2)
    delta1 = kron(C1, A2) - kron(A1, C2)
    delta2 = kron(A1, B2) - kron(B1, A2)

into the generalized problems delta1 w = x delta0 w, delta2 w = y delta0 w.
When delta0 is nonsingular the coupled problems share eigenvectors, so one
eigensolve of (delta1 + gamma delta2, delta0), for a fixed complex gamma,
delivers all n1*n2 eigenvalue pairs (x, y) from its eigenvectors;
otherwise a staircase-style sequence of SVD-based unitary compressions,
each turning the triple by one singular factor of delta0, peels off the
singular structure until a square block with nonsingular delta0 remains.
Real pencils stay real up to the eigensolve.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from ._lapack import eig
from .pencils import Pencil

logger = logging.getLogger("detrep.twopar")

# the fixed, irrational-looking weight of delta2 in the one eigensolve:
# distinct roots collide in x + GAMMA y only on a line of this slope
GAMMA = 0.6180339887498949 + 0.4142135623730951j
# kept/discarded singular values closer than this factor flag a shaky decision
GAP_WARN_FACTOR = 10.0


def _svd(mat, compute_uv=True):
    """SVD with a fallback driver: the default divide-and-conquer LAPACK
    routine occasionally fails to converge on staircase blocks."""
    try:
        return np.linalg.svd(mat, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        import scipy.linalg  # here, so that only a failed gesdd pays for its import

        return scipy.linalg.svd(mat, compute_uv=compute_uv, lapack_driver="gesvd")


@dataclass(frozen=True)
class DeltaTriple:
    """The operator determinants: float64 if all three are, else complex."""

    delta0: np.ndarray
    delta1: np.ndarray
    delta2: np.ndarray

    def __post_init__(self):
        mats = [np.asarray(mat) for mat in (self.delta0, self.delta1, self.delta2)]
        dtype = float if all(mat.dtype == np.float64 for mat in mats) else complex
        for name, mat in zip(("delta0", "delta1", "delta2"), mats):
            object.__setattr__(self, name, mat.astype(dtype, copy=False))
        if not (self.delta0.shape == self.delta1.shape == self.delta2.shape):
            raise ValueError("delta matrices must share their shape")

    @property
    def shape(self) -> tuple[int, int]:
        return self.delta0.shape


@dataclass(frozen=True)
class EigenSolution:
    x: complex
    y: complex
    w: np.ndarray | None = None


@dataclass
class StaircaseStep:
    kind: str  # "columns" or "rows"
    shape: tuple[int, int]
    rank: int
    kept_sv: float
    dropped_sv: float
    ambiguous: bool
    # the slab decision: the smallest kept and largest dropped singular value
    slab_kept_sv: float
    slab_dropped_sv: float


@dataclass
class StaircaseLog:
    steps: list[StaircaseStep] = field(default_factory=list)
    left: np.ndarray | None = None
    right: np.ndarray | None = None
    warnings: list[str] = field(default_factory=list)


def operator_determinants(first: Pencil, second: Pencil) -> DeltaTriple:
    """Kronecker assembly of the three operator determinants of two pencils,
    in real arithmetic when all six matrices are exactly real."""
    n = first.dim * second.dim
    mats1, mats2 = (first.A, first.B, first.C), (second.A, second.B, second.C)
    if not any(np.count_nonzero(mat.imag) for mat in mats1 + mats2):
        mats1, mats2 = [mat.real for mat in mats1], [mat.real for mat in mats2]

    def kron(i, j):  # np.kron(mats1[i], mats2[j]), without its overhead
        return (mats1[i][:, None, :, None] * mats2[j][None, :, None, :]).reshape(n, n)

    return DeltaTriple(kron(1, 2) - kron(2, 1), kron(2, 0) - kron(0, 2), kron(0, 1) - kron(1, 0))


def _default_rank_tol(shape) -> float:
    # eps * dimension underestimates the noise floor once a few unitary
    # compressions have accumulated: roundoff grows with both the matrix
    # size and the number of steps, reaching ~1e-11 of the scale for
    # 500-sized blocks.  eps * dim**2 with a 1e-12 floor tracks that while
    # staying many orders below genuine structure; the decisive-gap search
    # around the cutoff absorbs the remaining slack in both directions.
    dim = max(shape)
    return max(float(np.finfo(float).eps) * dim * dim, 1e-12)


# singular values within this factor of the cutoff are "uncertain"
RANK_ZONE = 1e3
# a ratio this large between consecutive singular values is a decisive gap
RANK_GAP = 1e2


def _decide_rank(sv: np.ndarray, cutoff: float, log: StaircaseLog, context: str):
    """Rank against an absolute cutoff anchored to the problem scale.

    Within the uncertain zone around the cutoff the split is moved to the
    largest gap between consecutive singular values: accumulated roundoff
    may push noise slightly above the nominal cutoff, but genuine structure
    stays orders of magnitude away from it.  The split never keeps a value
    at or below the cutoff.  A gapless zone with no certain values above it
    counts as pure noise (rank zero); otherwise the nominal cutoff decides,
    and the ambiguity is recorded in the log and logged at INFO as
    "<context> <kept> vs discarded <dropped>".
    """
    # the values strictly above each threshold; LAPACK sorts sv largest first
    certain, rank, plausible = np.searchsorted(
        -sv, (-cutoff * RANK_ZONE, -cutoff, -cutoff / RANK_ZONE)).tolist()
    if plausible > certain:
        best_rank, best_ratio = rank, 0.0
        for r in range(max(certain, 1), min(rank, sv.size - 1) + 1):
            ratio = sv[r - 1] / sv[r] if sv[r] > 0 else np.inf
            if ratio > best_ratio:
                best_ratio, best_rank = ratio, r
        if best_ratio >= RANK_GAP:
            rank = best_rank
        elif certain == 0:
            rank = 0
    kept = float(sv[rank - 1]) if rank > 0 else 0.0
    dropped = float(sv[rank]) if rank < sv.size else 0.0
    ambiguous = rank > 0 and rank < sv.size and dropped > 0 and kept / dropped < GAP_WARN_FACTOR
    if ambiguous:
        msg = f"{context} {kept:.3e} vs discarded {dropped:.3e}"
        log.warnings.append(msg)
        logger.info(msg)
    return rank, kept, dropped, ambiguous


def is_delta0_nonsingular(deltas: DeltaTriple, rank_tol: float | None = None) -> bool:
    """The one regularity decision for the original delta0: σmin > rel·σmax."""
    m, k = deltas.shape
    if m != k:
        return False
    if m == 0:
        return True
    sv = _svd(deltas.delta0, compute_uv=False)
    rel = rank_tol if rank_tol is not None else _default_rank_tol(deltas.shape)
    return bool(sv[-1] > rel * sv[0])


def solve_regular(deltas: DeltaTriple) -> list[EigenSolution]:
    """All eigenvalue pairs of a coupled problem whose delta0 is known to be
    square and nonsingular, by `is_delta0_nonsingular` or the staircase; an
    empty block has none.

    delta0^-1 delta1 and delta0^-1 delta2 commute, so their common
    eigenvectors w are those of the one generalized problem
    (delta1 + GAMMA delta2, delta0), whose eigenvalues x + GAMMA y keep
    apart roots that share a coordinate.  x and y are the least-squares
    quotients of delta1 w and delta2 w against delta0 w.
    """
    if deltas.delta0.size == 0:
        return []
    m, k = deltas.shape
    if m != k:
        raise ValueError(f"a regular block is square, got {m}x{k}")
    _, vecs = eig(deltas.delta1 + GAMMA * deltas.delta2, deltas.delta0)
    d0w = (deltas.delta0 @ vecs).conj()
    norms = (d0w * d0w.conj()).sum(0)
    xs, ys = ((d0w * (delta @ vecs)).sum(0) / norms for delta in (deltas.delta1, deltas.delta2))
    return [EigenSolution(x, y, w) for x, y, w in zip(xs.tolist(), ys.tolist(), vecs.T)]


def extract_regular_part(
    deltas: DeltaTriple,
    rank_tol: float | None = None,
) -> tuple[DeltaTriple, StaircaseLog]:
    """Common regular part of a singular coupled problem.

    Each step compresses all three matrices at once with SVD-based unitary
    transforms.  While delta0 is column-rank deficient, a columns step
    turns them by delta0's right singular vectors, drops its null columns
    and keeps the rows that annihilate those columns of delta1 and delta2
    (the trailing slab).  delta0's left factor is never applied: the
    slab's left singular vectors absorb any unitary on the left.  When
    delta0 has full column rank but extra rows, a rows step runs instead:
    the columns step of the conjugate-transposed triple, with the bases
    swapped and delta0's left singular vectors as the right ones.  Each
    step shrinks rows + columns, so within m + k - 1 steps the loop stops
    at a square block with nonsingular delta0 (possibly empty).
    """
    ds = [deltas.delta0, deltas.delta1, deltas.delta2]
    m, k = deltas.shape
    left, right = np.eye(m, dtype=ds[0].dtype), np.eye(k, dtype=ds[0].dtype)
    log = StaircaseLog()
    rel = rank_tol if rank_tol is not None else _default_rank_tol((m, k))
    cutoff = None

    while ds[0].size:
        m, k = ds[0].shape
        u, sv, vh = _svd(ds[0])
        if cutoff is None:
            # one absolute cutoff for every rank decision: unitary transforms
            # and submatrix selection never grow the entries, so the original
            # spectral norms anchor what "negligible" means throughout
            scale = max(sv[0], np.linalg.svd(np.stack(ds[1:]), compute_uv=False)[:, 0].max())
            cutoff = rel * max(scale, 1e-300)
        rank, kept, dropped, ambiguous = _decide_rank(
            sv, cutoff, log, f"rank decision at {m}x{k} block is ambiguous: kept singular value"
        )
        if m == k and rank == k:
            break

        # a rows step (m > k, full column rank) runs as the columns step of
        # the conjugate-transposed triple, with the bases swapped
        rows = rank == k
        if rows:
            ds, left, right = [d.conj().T for d in ds], right, left
        v = u if rows else vh.conj().T
        ds = [d @ v for d in ds]
        right = right @ v
        # drop delta0's null columns, keep the rows that annihilate those
        # columns of delta1 and delta2
        u2, sv2, _ = _svd(np.hstack([ds[1][:, rank:], ds[2][:, rank:]]))
        rho, slab_kept, slab_dropped, _ = _decide_rank(
            sv2, cutoff, log,
            f"{'column' if rows else 'row'} compression at {m}x{k} block is ambiguous: kept",
        )
        ds = [(u2.conj().T @ d)[rho:, :rank] for d in ds]
        left, right = (left @ u2)[:, rho:], right[:, :rank]
        if rows:
            ds, left, right = [d.conj().T for d in ds], right, left
        log.steps.append(StaircaseStep("rows" if rows else "columns", (m, k), rank, kept,
                                       dropped, ambiguous, slab_kept, slab_dropped))

    log.left, log.right = left, right
    return DeltaTriple(*ds), log


@dataclass
class TwoParameterResult:
    solutions: list[EigenSolution]
    deltas: DeltaTriple
    reduced: DeltaTriple
    staircase: StaircaseLog | None


def solve_full(
    first: Pencil,
    second: Pencil,
    rank_tol: float | None = None,
    max_roots: int | None = None,
) -> TwoParameterResult:
    """operator determinants -> rank test -> regular solve, with the
    staircase extraction in between when delta0 is singular.  A nonsingular
    N x N delta0 gives N common roots, so N > max_roots (the Bezout bound
    deg p * deg q) decides that it is singular without the rank test."""
    deltas = operator_determinants(first, second)
    reduced, log = deltas, None
    bezout_singular = max_roots is not None and deltas.shape[0] > max_roots
    if bezout_singular or not is_delta0_nonsingular(deltas, rank_tol):
        reduced, log = extract_regular_part(deltas, rank_tol=rank_tol)
    return TwoParameterResult(solve_regular(reduced), deltas, reduced, log)
