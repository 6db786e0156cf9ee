"""
Inside the singular case: staircase compression
===============================================

Whenever a pencil is larger than the polynomial's degree, the coupled
two-parameter problem is singular: the operator determinant delta0 has a
nontrivial null space, and the finite eigenvalues hide in a smaller
regular block.  This script walks a degree-3 system through the SVD-based
compression that peels the singular structure away.
"""
import numpy as np

from detrep import (
    BivariatePolynomial,
    assemble_pencil_from_monomial_tree,
    extract_regular_part,
    generic_tree,
    operator_determinants,
    solve_regular,
)

rng = np.random.default_rng(3)


def random_cubic():
    table = np.zeros((4, 4))
    for j in range(4):
        for k in range(4 - j):
            table[j, k] = rng.uniform(0, 1)
    return BivariatePolynomial(table)


p, q = random_cubic(), random_cubic()
tree = generic_tree(3)
pencil_p = assemble_pencil_from_monomial_tree(p, tree)
pencil_q = assemble_pencil_from_monomial_tree(q, tree)

##############################################################################
# The two pencils are the whole two-parameter problem.  They are 5 x 5 for a
# degree-3 polynomial, so the deltas are 25 x 25 while the system has only
# 9 roots: delta0 must be singular.

deltas = operator_determinants(pencil_p, pencil_q)
sv = np.linalg.svd(deltas.delta0, compute_uv=False)
print(f"delta matrices: {deltas.shape[0]} x {deltas.shape[1]}")
print(f"singular values of delta0 range {sv[0]:.2e} .. {sv[-1]:.2e}")
print(f"numerical rank: {int(np.sum(sv > 1e-10 * sv[0]))}")

##############################################################################
# Each compression step turns the current block by the right singular
# vectors of its delta0, splits off delta0's null directions and keeps the
# rows that annihilate the matching columns of delta1 and delta2 (the
# slab).  delta0's left singular vectors are never applied: the slab's own
# left singular vectors absorb any unitary on the left.  The sizes shrink
# until a regular square block is left.  A block that keeps full column
# rank but has extra rows takes a "rows" step instead: the same compression
# applied to the conjugate-transposed triple, with the left and right bases
# swapped, since the bottom rows of delta1 and delta2 are the trailing
# columns of their conjugate transposes.  Each step records both rank
# decisions, delta0's and the slab's, by the smallest singular value kept
# and the largest dropped; the dropped ones are the noise the staircase
# has made so far.

reduced, log = extract_regular_part(deltas)
print("\ncompression steps:")
for step in log.steps:
    print(f"   {step.kind:>8} step on a {step.shape[0]}x{step.shape[1]} block: "
          f"rank {step.rank}, kept sigma {step.kept_sv:.2e}, dropped {step.dropped_sv:.2e}; "
          f"slab kept {step.slab_kept_sv:.2e}, dropped {step.slab_dropped_sv:.2e}")
print(f"regular part: {reduced.shape[0]} x {reduced.shape[1]}")

##############################################################################
# The accumulated transformations are isometries, so the reduced block is
# an exact two-sided compression of the original triple.

gram_left = log.left.conj().T @ log.left
gram_right = log.right.conj().T @ log.right
print(f"left/right transform orthonormality defects: "
      f"{np.abs(gram_left - np.eye(gram_left.shape[0])).max():.1e}, "
      f"{np.abs(gram_right - np.eye(gram_right.shape[0])).max():.1e}")

##############################################################################
# Nine eigenvalue pairs remain, and each annihilates both polynomials.

solutions = solve_regular(reduced)
print(f"\n{len(solutions)} eigenvalue pairs on the regular part:")
for s in solutions:
    print(f"   x = {s.x:+.6f}   y = {s.y:+.6f}   "
          f"|p| = {abs(p(s.x, s.y)):.1e}   |q| = {abs(q(s.x, s.y)):.1e}")
