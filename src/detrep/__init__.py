"""detrep: determinantal representations of bivariate polynomials and
eigenvalue-based root finding for systems of two of them.

A polynomial p(x, y) of degree n is rewritten as det(A + xB + yC) for
explicitly constructed square matrices.  Two constructions are provided:

* a monomial-tree pencil (works for scalar and matrix polynomials, size
  about n^2/4, no floating-point computation), and
* a representation-tree pencil (scalar polynomials, size about n^2/6,
  driven by univariate rootfinding, with dedicated size-3 and size-5
  constructions for cubics and quartics).

Pairing the pencils of two polynomials yields a two-parameter eigenvalue
problem whose eigenvalues are the common roots; the `twopar` module solves
it (including the singular case via staircase compression) and `solver`
wraps the full pipeline with Newton refinement.
"""

from .monomial_tree import (
    CoverageError,
    MonomialTree,
    assemble_pencil_from_monomial_tree,
    first_row_assignment,
    full_monomial_tree,
    generic_tree,
    generic_tree_size,
    sparse_tree_heuristic,
)
from .pencils import Pencil
from .polynomials import (
    AffineSubstitution,
    BivariatePolynomial,
    DegenerateInputError,
    LeadingCoefficientError,
    MatrixBivariatePolynomial,
    partial_derivatives,
    univariate_roots,
)
from .representation_tree import (
    LinearForm,
    RepresentationTree,
    assemble_pencil_from_representation_tree,
    build_tree,
    linearize,
    representation_tree_size,
)
from .solver import (
    DegenerateSystemError,
    RootRecord,
    SolveOptions,
    newton_refine,
    solve_system,
)
from .twopar import (
    DeltaTriple,
    EigenSolution,
    extract_regular_part,
    operator_determinants,
    solve_regular,
)

__version__ = "0.1.0"

__all__ = [
    "AffineSubstitution",
    "BivariatePolynomial",
    "CoverageError",
    "DegenerateInputError",
    "DegenerateSystemError",
    "DeltaTriple",
    "EigenSolution",
    "LeadingCoefficientError",
    "LinearForm",
    "MatrixBivariatePolynomial",
    "MonomialTree",
    "Pencil",
    "RepresentationTree",
    "RootRecord",
    "SolveOptions",
    "assemble_pencil_from_monomial_tree",
    "assemble_pencil_from_representation_tree",
    "build_tree",
    "extract_regular_part",
    "first_row_assignment",
    "full_monomial_tree",
    "generic_tree",
    "generic_tree_size",
    "linearize",
    "newton_refine",
    "operator_determinants",
    "partial_derivatives",
    "representation_tree_size",
    "solve_regular",
    "solve_system",
    "sparse_tree_heuristic",
    "univariate_roots",
]
