"""Independent check of a returned root set.

The benchmark evaluates the coefficient tables itself with Horner's rule and
never reads the solver's own accuracy figures.  A root set passes when its
multiplicity-summed count is deg p * deg q, its points are pairwise
distinct, and every point has a small scaled residual in both polynomials.
"""

from __future__ import annotations

import numpy as np

# |p(x, y)| / sum_jk |c_jk| |x|^j |y|^k, the backward error of p at the
# point; a root perturbed by 1e-3 sits many orders above this
RESIDUAL_TOL = 1e-8
# two points closer than this (relative to their magnitude) are one root
DISTINCT_TOL = 1e-6


def table_degree(table: np.ndarray) -> int:
    j, k = np.nonzero(table)
    return int((j + k).max()) if j.size else 0


def horner(table: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_jk c[j, k] x^j y^k at every point, y innermost."""
    n = table.shape[0] - 1
    acc = np.zeros(np.shape(x), dtype=np.result_type(table, x, y))
    for j in range(n, -1, -1):
        inner = np.zeros_like(acc)
        for k in range(n - j, -1, -1):
            inner = inner * y + table[j, k]
        acc = acc * x + inner
    return acc


def scaled_residuals(table: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    scale = horner(np.abs(table), np.abs(x), np.abs(y))
    return np.abs(horner(table, x, y)) / np.maximum(scale, np.finfo(float).tiny)


def root_set_problems(p: np.ndarray, q: np.ndarray, roots) -> list[tuple[str, str]]:
    """(kind, detail) for every reason the root set fails the check; empty
    when it passes.  Kinds are "missing", "excess", "coincident" and
    "residual".  `roots` holds (x, y, multiplicity) triples."""
    problems = []
    expected = table_degree(p) * table_degree(q)
    count = sum(int(m) for _, _, m in roots)
    if count < expected:
        problems.append(("missing", f"{count} of {expected} roots"))
    elif count > expected:
        problems.append(("excess", f"{count} roots, Bezout bound {expected}"))
    if not roots:
        return problems
    x = np.array([r[0] for r in roots], dtype=complex)
    y = np.array([r[1] for r in roots], dtype=complex)
    gap = np.maximum(np.abs(x[:, None] - x[None, :]), np.abs(y[:, None] - y[None, :]))
    size = np.maximum(np.maximum(np.abs(x), np.abs(y)), 1.0)
    close = gap <= DISTINCT_TOL * np.maximum(size[:, None], size[None, :])
    np.fill_diagonal(close, False)
    if close.any():
        problems.append(("coincident", f"{int(close.sum()) // 2} pair(s)"))
    worst = float(max(scaled_residuals(p, x, y).max(), scaled_residuals(q, x, y).max()))
    if not worst <= RESIDUAL_TOL:
        problems.append(("residual", f"{worst:.2e} > {RESIDUAL_TOL:.0e}"))
    return problems
