"""Roots of a system of two bivariate polynomials.

Both polynomials are linearized into pencils, the coupled two-parameter
eigenvalue problem delivers candidate pairs, Newton's method polishes them,
and every candidate is kept only if its polynomial residual clears a
scale-aware threshold.  Each returned root carries the accuracy measure
max(|p|, |q|) * norm(J^{-1}), i.e. the residual amplified by the absolute
condition number of the zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from numbers import Integral, Real

import numpy as np

from . import monomial_tree, representation_tree, twopar
from .pencils import Pencil
from .polynomials import BivariatePolynomial, derivative_tables, evaluate_tables

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
    residual_accept: float = 1e-6  # relative to the coefficient scale
    dedup_tol: float = 1e-8

    def __post_init__(self):
        if self.linearization not in LINEARIZATIONS:
            raise ValueError(f"linearization must be one of {LINEARIZATIONS}")
        if isinstance(self.newton_steps, bool) or not isinstance(self.newton_steps, Integral):
            raise TypeError(f"newton_steps must be an integer, got {self.newton_steps!r}")
        if self.newton_steps < 0:
            raise ValueError("newton_steps must be nonnegative")
        for name in ("rank_tol", "residual_accept", "dedup_tol"):
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
    rejected: int = 0
    # the latest attempt's deltas, regular part and staircase; None while
    # an attempt runs and after one that failed
    result: twopar.TwoParameterResult | None = None

    @property
    def candidates(self) -> int:
        return 0 if self.result is None else len(self.result.solutions)


def linearize_polynomial(p: BivariatePolynomial, method: str) -> Pencil:
    if method == "lin1":
        tree = monomial_tree.sparse_tree_heuristic(p)
        return monomial_tree.assemble_pencil_from_monomial_tree(p, tree)
    if method in ("lin2", "auto"):
        return representation_tree.linearize(p)
    raise ValueError(f"unknown linearization {method!r}")


def _stack_tables(p: BivariatePolynomial, q: BivariatePolynomial) -> np.ndarray:
    """p, q, dp/dx, dp/dy, dq/dx and dq/dy as coefficient tables of one size."""
    size = max(p.degree, q.degree) + 1
    tables = np.zeros((6, size, size), dtype=complex)
    polys = (p.coeffs, q.coeffs, *derivative_tables(p.coeffs), *derivative_tables(q.coeffs))
    for table, c in zip(tables, polys):
        table[: c.shape[0], : c.shape[0]] = c
    return tables


def _evaluate(tables, x, y):
    """At k points: (p, q) as a (k, 2) array, their moduli (the hypot of
    Python's abs), the (k, 2, 2) Jacobians and their singular values,
    largest first, with σmin set to 0 where the Jacobian is singular: where
    it overflowed or where σmin ≤ 1e-14·max(σmax, 1)."""
    vals = evaluate_tables(tables, x, y)
    fx, jac = vals[:2].T, vals[2:].T.reshape(-1, 2, 2)
    finite = np.isfinite(jac).all(axis=(1, 2))
    sv = np.zeros(jac.shape[:2])
    sv[finite] = np.linalg.svd(jac[finite], compute_uv=False)
    sv[sv[:, 1] <= 1e-14 * np.maximum(sv[:, 0], 1.0), 1] = 0.0
    return fx, np.hypot(fx.real, fx.imag), jac, sv


def _measure(absf, sv):
    """From |p|, |q| and the Jacobian's singular values at each point: the
    residual max(|p|, |q|), the spectral norm of the inverse Jacobian and
    the residual times it (the accuracy); the last two are infinite where
    the Jacobian is singular."""
    residual = absf.max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        condition = 1.0 / sv[:, 1]
        return residual, condition, np.where(sv[:, 1] > 0, residual * condition, np.inf)


def _polish(tables, scale, x, y, steps):
    """`steps` Newton iterations on every point at once.  Per point and per
    step: a singular Jacobian stops it with refined=False, a residual at
    machine scale stops it, and otherwise it takes one step.  Also returns
    `_evaluate`'s |p|, |q| and σ at the points, each evaluated once per move."""
    x, y = x.copy(), y.copy()
    refined = np.ones(x.shape, dtype=bool)
    absf, sv = np.empty((x.size, 2)), np.empty((x.size, 2))
    live = np.arange(x.size)  # the points not yet evaluated where they are
    for step_index in range(steps + 1):
        if live.size == 0:
            break
        fx, absf[live], jac, sv[live] = _evaluate(tables, x[live], y[live])
        if step_index == steps:
            break
        # likely a multiple root; Newton cannot certify progress here
        singular = sv[live, 1] == 0
        refined[live[singular]] = False
        step = ~singular & ~(absf[live].max(axis=1) <= 1e2 * np.finfo(float).eps * scale)
        delta = np.linalg.solve(jac[step], fx[step, :, None])[..., 0]
        live = live[step]
        x[live] -= delta[:, 0]
        y[live] -= delta[:, 1]
    return x, y, refined, absf, sv


def newton_refine(
    p: BivariatePolynomial, q: BivariatePolynomial, x0: complex, y0: complex, steps: int = 2
) -> tuple[complex, complex, bool]:
    """`steps` Newton iterations on (p, q); stops early once the residual
    stagnates at machine scale.  A singular Jacobian aborts refinement and
    returns the current point with refined=False."""
    point = np.array([complex(x0)]), np.array([complex(y0)])
    scale = max(p.coeff_norm(), q.coeff_norm(), 1.0)
    x, y, refined, _, _ = _polish(_stack_tables(p, q), scale, *point, steps)
    return complex(x[0]), complex(y[0]), bool(refined[0])


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
    diagnostics.result = None
    norms = p.coeff_norm(), q.coeff_norm()
    # the pencils mix structural ±1 entries with coefficients, so each
    # polynomial is linearized at a power-of-two scale with its largest
    # coefficient in [0.5, 1): the roots do not depend on the caller's scale,
    # and the scaled table stays trimmed and finite, so it skips the checks
    pencils = []
    for f, norm in zip((p, q), norms):
        unit = object.__new__(BivariatePolynomial)
        unit.coeffs = np.ldexp(f.coeffs.view(float), -math.frexp(norm)[1]).view(complex)
        unit.degree = f.degree
        pencils.append(linearize_polynomial(unit, opts.linearization))
    result = twopar.solve_full(*pencils, rank_tol=opts.rank_tol, max_roots=p.degree * q.degree)
    diagnostics.result = result
    if result.staircase is not None:
        diagnostics.warnings.extend(result.staircase.warnings)

    xs, ys = np.array([(s.x, s.y) for s in result.solutions], dtype=complex).reshape(-1, 2).T
    finite = np.isfinite(xs) & np.isfinite(ys)
    scale = max(norms)
    tables = _stack_tables(p, q)
    x, y, refined, absf, sv = _polish(tables, max(scale, 1.0), xs[finite], ys[finite],
                                      opts.newton_steps)
    refined &= opts.newton_steps > 0
    residual, condition, accuracy = _measure(absf, sv)
    # backward-error filter: the natural residual scale at (x, y) grows
    # like the largest monomial, so roots far outside the unit bidisk
    # are judged relative to scale * max(1, |x|, |y|)**degree
    magnitude = np.maximum(1.0, np.maximum(np.abs(x), np.abs(y)))[:, None]
    bound = opts.residual_accept * scale * magnitude ** [p.degree, q.degree]
    keep = np.isfinite(residual) & ~(absf > bound).any(axis=1)
    rejected = xs.size - int(keep.sum())  # the non-finite ones too
    diagnostics.rejected += rejected
    if rejected and keep.any():
        diagnostics.warnings.append(f"{rejected} of {xs.size} candidates failed the residual filter")
    fields = (x, y, residual, condition, accuracy, refined)
    records = [RootRecord(*f) for f in zip(*(a[keep].tolist() for a in fields))]
    return _dedupe(records, opts.dedup_tol)


def solve_system(
    p: BivariatePolynomial,
    q: BivariatePolynomial,
    opts: SolveOptions | None = None,
    diagnostics: SolveDiagnostics | None = None,
) -> list[RootRecord]:
    """All roots of p(x, y) = q(x, y) = 0, sorted by ascending accuracy
    measure.  Every solve tries the given orientation first; when it yields
    no root, it retries once with x and y swapped, and when that yields
    none either it raises DegenerateSystemError, its one failure."""
    opts = opts or SolveOptions()
    diagnostics = diagnostics if diagnostics is not None else SolveDiagnostics()
    if p.is_zero or q.is_zero or p.degree < 1 or q.degree < 1:
        raise ValueError("both polynomials must be nonzero with degree >= 1")

    for swapped in (False, True):
        ps, qs = (BivariatePolynomial(f.coeffs.T) for f in (p, q)) if swapped else (p, q)
        records = _solve_once(ps, qs, opts, diagnostics)
        if records:
            if swapped:
                diagnostics.swapped = True
                records = [replace(r, x=r.y, y=r.x) for r in records]
            singular = sum(r.accuracy == math.inf for r in records)
            if singular:
                diagnostics.warnings.append(
                    f"{singular} of {len(records)} roots have a singular Jacobian "
                    "(accuracy inf): a multiple root or a curve of common zeros"
                )
            # a finite error bound this large leaves no correct digit
            loose = sum(max(1.0, abs(r.x), abs(r.y)) <= r.accuracy < math.inf for r in records)
            if loose:
                diagnostics.warnings.append(f"{loose} of {len(records)} roots have an error "
                                            "bound as large as the root")
            return sorted(records, key=lambda r: r.accuracy)
        diagnostics.warnings.append(
            ("no candidate passed the residual filter" if diagnostics.candidates
             else "empty regular part: no candidates")
            + (" (swapped variables)" if swapped else "")
        )
    raise DegenerateSystemError("no roots could be certified; "
                                "the system may not be zero-dimensional")
