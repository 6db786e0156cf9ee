"""Roots of a system of two bivariate polynomials.

Both polynomials are linearized into pencils, the coupled two-parameter
eigenvalue problem delivers candidate pairs, Newton's method polishes them,
and every candidate is kept only if its polynomial residual clears a
scale-aware threshold.  Each returned root carries the accuracy measure
max(|p|, |q|) * norm(J^{-1}), i.e. the residual amplified by the absolute
condition number of the zero.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from numbers import Integral, Real

import numpy as np

from . import monomial_tree, representation_tree, twopar
from .pencils import Pencil
from .polynomials import BivariatePolynomial, partial_derivatives

logger = logging.getLogger("detrep.solver")

LINEARIZATIONS = ("auto", "lin1", "lin2")


class DegenerateSystemError(RuntimeError):
    """The system does not look zero-dimensional (or the eigenvalue path
    collapsed entirely); roots cannot be enumerated."""


@dataclass(frozen=True)
class RootRecord:
    x: complex
    y: complex
    residual: float
    condition: float
    accuracy: float
    refined: bool
    multiplicity: int = 1


@dataclass
class SolveOptions:
    linearization: str = "auto"
    newton_steps: int = 2
    rank_tol: float | None = None
    cluster_tol: float = twopar.DEFAULT_CLUSTER_TOL
    residual_accept: float = 1e-6  # relative to the coefficient scale
    dedup_tol: float = 1e-8

    def __post_init__(self):
        if self.linearization not in LINEARIZATIONS:
            raise ValueError(f"linearization must be one of {LINEARIZATIONS}")
        if isinstance(self.newton_steps, bool) or not isinstance(self.newton_steps, Integral):
            raise TypeError(f"newton_steps must be an integer, got {self.newton_steps!r}")
        if self.newton_steps < 0:
            raise ValueError("newton_steps must be nonnegative")
        for name in ("rank_tol", "cluster_tol", "residual_accept", "dedup_tol"):
            value = getattr(self, name)
            if name == "rank_tol" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, Real):
                raise TypeError(f"{name} must be a real number, got {value!r}")
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass
class SolveDiagnostics:
    warnings: list[str] = field(default_factory=list)
    swapped: bool = False
    candidates: int = 0
    rejected: int = 0
    delta_size: int = 0
    reduced_size: int = 0
    staircase_steps: list[twopar.StaircaseStep] = field(default_factory=list)
    # operator determinants of the attempt that produced the roots
    deltas: twopar.DeltaTriple | None = None


def linearize_polynomial(p: BivariatePolynomial, method: str) -> Pencil:
    if method == "lin1":
        tree = monomial_tree.generic_tree(p.degree)
        return monomial_tree.assemble_pencil_from_monomial_tree(p, tree)
    if method in ("lin2", "auto"):
        return representation_tree.linearize(p)
    raise ValueError(f"unknown linearization {method!r}")


def _jacobian(pd, qd, x, y):
    (px, py), (qx, qy) = pd, qd
    return np.array([[px(x, y), py(x, y)], [qx(x, y), qy(x, y)]], dtype=complex)


def _condition_and_accuracy(pd, qd, x, y, residual: float) -> tuple[float, float]:
    """The spectral norm of the inverse Jacobian and the residual times it;
    both infinite when the Jacobian is singular."""
    smin = np.linalg.svd(_jacobian(pd, qd, x, y), compute_uv=False)[-1]
    if smin == 0.0:
        return float("inf"), float("inf")
    condition = 1.0 / smin
    return condition, residual * condition


def accuracy_measure(p: BivariatePolynomial, q: BivariatePolynomial, x, y) -> float:
    """max(|p|, |q|) times the spectral norm of the inverse Jacobian;
    infinity when the Jacobian is singular."""
    residual = max(abs(p(x, y)), abs(q(x, y)))
    pd, qd = partial_derivatives(p), partial_derivatives(q)
    return _condition_and_accuracy(pd, qd, x, y, residual)[1]


def newton_refine(
    p: BivariatePolynomial,
    q: BivariatePolynomial,
    x0: complex,
    y0: complex,
    steps: int = 2,
) -> tuple[complex, complex, bool]:
    """`steps` Newton iterations on (p, q); stops early once the residual
    stagnates at machine scale.  A singular Jacobian aborts refinement and
    returns the current point with refined=False."""
    return _newton(p, q, partial_derivatives(p), partial_derivatives(q), x0, y0, steps)


def _newton(p, q, pd, qd, x0, y0, steps):
    """`newton_refine` with the partial derivatives pd, qd of p and q given."""
    scale = max(p.coeff_norm(), q.coeff_norm(), 1.0)
    x, y = complex(x0), complex(y0)
    refined = True
    for _ in range(steps):
        fx = np.array([p(x, y), q(x, y)], dtype=complex)
        jac = _jacobian(pd, qd, x, y)
        sv = np.linalg.svd(jac, compute_uv=False)
        if sv[-1] <= 1e-14 * max(sv[0], 1.0):
            # likely a multiple root; Newton cannot certify progress here
            refined = False
            break
        if np.abs(fx).max() <= 1e2 * np.finfo(float).eps * scale:
            break
        delta = np.linalg.solve(jac, fx)
        x -= complex(delta[0])
        y -= complex(delta[1])
    return x, y, refined


def _swap_polynomial(p: BivariatePolynomial) -> BivariatePolynomial:
    return BivariatePolynomial(p.coeffs.T)


def _dedupe(records: list[RootRecord], tol: float) -> list[RootRecord]:
    """Merge near-coincident roots, keeping the most accurate member and
    recording the cluster size as a multiplicity."""
    out: list[RootRecord] = []
    for rec in sorted(records, key=lambda r: r.accuracy):
        for i, kept in enumerate(out):
            if max(abs(rec.x - kept.x), abs(rec.y - kept.y)) <= tol:
                out[i] = replace(kept, multiplicity=kept.multiplicity + rec.multiplicity)
                break
        else:
            out.append(rec)
    return out


def _solve_once(p, q, opts: SolveOptions, diagnostics: SolveDiagnostics):
    # a failed attempt's deltas and staircase are not the solve's
    diagnostics.deltas, diagnostics.staircase_steps = None, []
    pencil_p = linearize_polynomial(p, opts.linearization)
    pencil_q = linearize_polynomial(q, opts.linearization)
    problem = twopar.TwoParameterProblem.from_pencils(pencil_p, pencil_q)
    result = twopar.solve_full(
        problem, cluster_tol=opts.cluster_tol, rank_tol=opts.rank_tol
    )
    diagnostics.deltas = result.deltas
    diagnostics.delta_size = result.deltas.shape[0]
    diagnostics.reduced_size = result.reduced.shape[0]
    diagnostics.candidates = len(result.solutions)
    if result.staircase is not None:
        diagnostics.staircase_steps = result.staircase.steps
        diagnostics.warnings.extend(result.staircase.warnings)

    scale = max(p.coeff_norm(), q.coeff_norm())
    pd = partial_derivatives(p)
    qd = partial_derivatives(q)
    records = []
    for sol in result.solutions:
        x, y, refined = sol.x, sol.y, False
        if not (np.isfinite(x.real) and np.isfinite(x.imag) and np.isfinite(y.real) and np.isfinite(y.imag)):
            continue
        if opts.newton_steps > 0:
            x, y, refined = _newton(p, q, pd, qd, x, y, opts.newton_steps)
        # backward-error filter: the natural residual scale at (x, y) grows
        # like the largest monomial, so roots far outside the unit bidisk
        # are judged relative to scale * max(1, |x|, |y|)**degree
        magnitude = max(1.0, abs(x), abs(y))
        rp = abs(p(x, y))
        rq = abs(q(x, y))
        residual = max(rp, rq)
        if (
            not np.isfinite(residual)
            or rp > opts.residual_accept * scale * magnitude**p.degree
            or rq > opts.residual_accept * scale * magnitude**q.degree
        ):
            diagnostics.rejected += 1
            continue
        condition, accuracy = _condition_and_accuracy(pd, qd, x, y, residual)
        records.append(RootRecord(x, y, residual, condition, accuracy, refined))
    return _dedupe(records, opts.dedup_tol)


def solve_system(
    p: BivariatePolynomial,
    q: BivariatePolynomial,
    opts: SolveOptions | None = None,
    diagnostics: SolveDiagnostics | None = None,
) -> list[RootRecord]:
    """All roots of p(x, y) = q(x, y) = 0, sorted by ascending accuracy
    measure.  Every solve tries the given orientation first; when it yields
    no root, it retries once with x and y swapped before giving up."""
    opts = opts or SolveOptions()
    diagnostics = diagnostics if diagnostics is not None else SolveDiagnostics()
    if p.is_zero or q.is_zero or p.degree < 1 or q.degree < 1:
        raise ValueError("both polynomials must be nonzero with degree >= 1")

    last_error: Exception | None = None
    for swapped in (False, True):
        ps = _swap_polynomial(p) if swapped else p
        qs = _swap_polynomial(q) if swapped else q
        try:
            records = _solve_once(ps, qs, opts, diagnostics)
        except (twopar.StaircaseError, twopar.SingularDeltaError) as exc:
            last_error = exc
            diagnostics.warnings.append(f"solve attempt failed: {exc}")
            continue
        if records:
            if swapped:
                diagnostics.swapped = True
                records = [replace(r, x=r.y, y=r.x) for r in records]
            return sorted(records, key=lambda r: r.accuracy)
        diagnostics.warnings.append(
            "no candidate passed the residual filter"
            + (" (swapped variables)" if swapped else "")
        )
    raise DegenerateSystemError(
        "no roots could be certified; the system may not be zero-dimensional"
        + (f" ({last_error})" if last_error else "")
    )
