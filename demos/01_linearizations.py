"""
Three determinantal representations of one cubic
================================================

A bivariate polynomial p(x, y) of degree n can be rewritten as the
determinant of a linear matrix pencil A + xB + yC.  This script builds
three different pencils for the same cubic and verifies each one by
sampling det(A + xB + yC) against p.
"""
import numpy as np

from detrep import (
    BivariatePolynomial,
    assemble_pencil_from_monomial_tree,
    assemble_pencil_from_representation_tree,
    build_tree,
    generic_tree,
)
from detrep.representation_tree import _build

p = BivariatePolynomial.from_terms({
    (0, 0): 1, (1, 0): 2, (0, 1): 3,
    (2, 0): 4, (1, 1): 5, (0, 2): 6,
    (3, 0): 7, (2, 1): 8, (1, 2): 9, (0, 3): 10,
})
print("p(x,y) = 1 + 2x + 3y + 4x^2 + 5xy + 6y^2 + 7x^3 + 8x^2y + 9xy^2 + 10y^3")


def show(pencil, label):
    print(f"\n{label}: {pencil.dim} x {pencil.dim}")
    for i in range(pencil.dim):
        cells = []
        for j in range(pencil.dim):
            a, b, c = pencil.A[i, j], pencil.B[i, j], pencil.C[i, j]
            parts = []
            if abs(a) > 1e-12:
                parts.append(f"{a.real:.4g}" if abs(a.imag) < 1e-12 else f"({a:.4g})")
            if abs(b) > 1e-12:
                parts.append(f"{b.real:+.4g}x" if abs(b.imag) < 1e-12 else f"+({b:.4g})x")
            if abs(c) > 1e-12:
                parts.append(f"{c.real:+.4g}y" if abs(c.imag) < 1e-12 else f"+({c:.4g})y")
            cells.append("".join(parts) if parts else "0")
        print("   [" + ",  ".join(f"{cell:>18}" for cell in cells) + "]")


def verify(pencil, label):
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        x = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        y = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        worst = max(worst, abs(pencil.determinant(x, y) - p(x, y)) / abs(p(x, y)))
    print(f"   max relative determinant error over 50 samples: {worst:.2e}")


##############################################################################
# 1. The monomial-tree pencil: no floating point computation at all, the
#    coefficients of p are placed along a rooted tree of monomials.

tree = generic_tree(3)
print("\nmonomial tree nodes:", [f"x^{j}y^{k}" for j, k in tree.nodes])
pencil = assemble_pencil_from_monomial_tree(p, tree)
show(pencil, "monomial-tree pencil")
verify(pencil, "tree")

##############################################################################
# 2. The representation-tree pencil: one univariate rootfind shrinks the
#    matrix to 4 x 4.  Complex entries appear even for real input.

rep = _build(p, allow_special=False)
pencil = assemble_pencil_from_representation_tree(rep)
show(pencil, "representation-tree pencil")
verify(pencil, "recursive")

##############################################################################
# 3. The cubic special case: an affine change of variables empties the
#    pure-y corner of the coefficient table first, and three nodes are
#    enough -- the smallest possible representation for a cubic.

rep = build_tree(p)
pencil = assemble_pencil_from_representation_tree(rep)
(shear,) = rep.substitution_steps
print("\nchange of variables: x = x' + s y' + t with")
print("   s =", np.round(shear.params["s"], 6))
print("   t =", np.round(shear.params["t"], 6))
show(pencil, "3 x 3 special-case pencil")
verify(pencil, "cubic special case")
