"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import numpy as np
import pytest

import detrep
from detrep import (
    BivariatePolynomial,
    MatrixBivariatePolynomial,
    MonomialTree,
    RepresentationTree,
    LinearForm,
    SolveOptions,
    assemble_pencil_from_monomial_tree,
    assemble_pencil_from_representation_tree,
    extract_regular_part,
    full_monomial_tree,
    generic_tree,
    generic_tree_size,
    linearize,
    operator_determinants,
    representation_tree_size,
    solve_regular,
    solve_system,
)
from detrep.solver import linearize_polynomial, newton_refine
from detrep.twopar import is_delta0_nonsingular

from oracles import resultant_roots
from test_polynomials import CUBIC


def report(number: int, text: str, ok: bool):
    print(f"\n[criterion {number}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {number} failed: {text}"


def random_poly(rng, n, complex_coeffs=False):
    table = np.zeros((n + 1, n + 1), dtype=complex)
    for j in range(n + 1):
        for k in range(n + 1 - j):
            table[j, k] = rng.uniform(0, 1)
            if complex_coeffs:
                table[j, k] += 1j * rng.uniform(0, 1)
    return BivariatePolynomial(table)


def det_identity_holds(pencil, poly, rng, points=20, tol=1e-9, matrix=False):
    for _ in range(points):
        x = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        y = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        want = np.linalg.det(poly(x, y)) if matrix else poly(x, y)
        if abs(pencil.determinant(x, y) - want) > tol * abs(want):
            return False
    return True


def test_criterion_1_size_tables():
    ok = [generic_tree_size(n) for n in range(1, 9)] == [1, 3, 5, 8, 11, 15, 19, 24]
    ok &= [len(generic_tree(n)) for n in range(1, 9)] == [1, 3, 5, 8, 11, 15, 19, 24]
    ok &= [representation_tree_size(n) for n in range(1, 9)] == [1, 2, 4, 6, 8, 11, 14, 17]
    ok &= [generic_tree_size(n) ** 2 for n in range(3, 11)] == [
        25, 64, 121, 225, 361, 576, 841, 1225]
    rng = np.random.default_rng(101)
    lin2_delta = [linearize(random_poly(rng, n)).size ** 2 for n in range(3, 11)]
    ok &= lin2_delta == [9, 25, 64, 100, 169, 289, 400, 576]
    report(1, "deterministic size tables for both linearizations", bool(ok))


def test_criterion_2_fixture_pencils():
    ok = True

    # printed 5x5 pencil of the running cubic over the generic tree
    pencil = assemble_pencil_from_monomial_tree(CUBIC, generic_tree(3))
    first_row = [(1, 2, 3), (0, 4, 5), (0, 0, 6), (0, 7, 8), (0, 9, 10)]
    ok &= pencil.size == 5
    for col, (a, b, c) in enumerate(first_row):
        ok &= (pencil.A[0, col], pencil.B[0, col], pencil.C[0, col]) == (a, b, c)
    below = np.eye(5)[1:]
    ok &= np.array_equal(pencil.A[1:].real, below)
    bwant = np.zeros((4, 5)); bwant[0, 0] = -1; bwant[2, 1] = -1
    cwant = np.zeros((4, 5)); cwant[1, 0] = -1; cwant[3, 2] = -1
    ok &= np.array_equal(pencil.B[1:].real, bwant)
    ok &= np.array_equal(pencil.C[1:].real, cwant)

    # printed 4x4 representation-tree matrix
    tree = RepresentationTree(
        (None, 0, 1, 0),
        (None, LinearForm(0, 1, -1), LinearForm(0, 1, 3), LinearForm(0, 2, -1)),
        (LinearForm(1, 3, 2), LinearForm(1, 2, 0), LinearForm(0, 1, 3), LinearForm(0, 2, -1)),
    )
    m4 = assemble_pencil_from_representation_tree(tree)
    ok &= np.array_equal(
        m4.A.real, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    ok &= np.array_equal(
        m4.B.real, [[3, 2, 1, 2], [-1, 0, 0, 0], [0, -1, 0, 0], [-2, 0, 0, 0]]
    )
    ok &= np.array_equal(
        m4.C.real, [[2, 0, 3, -1], [1, 0, 0, 0], [0, -3, 0, 0], [1, 0, 0, 0]]
    )

    # dense degree-3 block pencil over all six monomials
    rng = np.random.default_rng(102)
    blocks = {
        (j, k): rng.uniform(-1, 1, (2, 2)) for j in range(4) for k in range(4 - j)
    }
    P = MatrixBivariatePolynomial.from_blocks(blocks, 2)
    bp = assemble_pencil_from_monomial_tree(P, full_monomial_tree(3), placement="node")
    def blk(mat, i, j):
        return mat[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
    layout = [
        (bp.A, 0, 0, blocks[(0, 0)]), (bp.A, 0, 1, blocks[(1, 0)]),
        (bp.A, 0, 2, blocks[(0, 1)]), (bp.A, 0, 3, blocks[(2, 0)]),
        (bp.B, 0, 3, blocks[(3, 0)]), (bp.A, 0, 4, blocks[(1, 1)]),
        (bp.B, 0, 4, blocks[(2, 1)]), (bp.A, 0, 5, blocks[(0, 2)]),
        (bp.B, 0, 5, blocks[(1, 2)]), (bp.C, 0, 5, blocks[(0, 3)]),
        (bp.B, 1, 0, -np.eye(2)), (bp.B, 3, 1, -np.eye(2)), (bp.B, 4, 2, -np.eye(2)),
        (bp.C, 2, 0, -np.eye(2)), (bp.C, 5, 2, -np.eye(2)),
    ]
    for mat, i, j, want in layout:
        ok &= np.allclose(blk(mat, i, j), want)

    # 11-node sparse-tree pattern for the degree-6 polynomial
    sparse6 = BivariatePolynomial.from_terms(
        {(0, 0): 1, (1, 0): 1, (0, 1): 1, (0, 3): 1, (2, 2): 1,
         (4, 1): 1, (1, 4): 1, (6, 0): 1, (2, 4): 1}
    )
    tree11 = MonomialTree.from_node_set(
        {(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (3, 0),
         (1, 2), (4, 0), (1, 3), (5, 0), (2, 3)}
    )
    sp = assemble_pencil_from_monomial_tree(sparse6, tree11)
    x_edges = {(1, 0), (3, 1), (5, 3), (6, 4), (7, 5), (9, 7), (10, 8)}
    y_edges = {(2, 0), (4, 2), (8, 6)}
    for i in range(1, 11):
        for j in range(11):
            ok &= sp.B[i, j] == (-1.0 if (i, j) in x_edges else 0.0)
            ok &= sp.C[i, j] == (-1.0 if (i, j) in y_edges else 0.0)
    occupied = {
        j for j in range(11)
        if sp.A[0, j] != 0 or sp.B[0, j] != 0 or sp.C[0, j] != 0
    }
    ok &= occupied == {0, 4, 6, 7, 8, 9, 10}
    ok &= det_identity_holds(sp, sparse6, np.random.default_rng(103))

    report(2, "published pencil fixtures reproduced entry for entry", bool(ok))


def test_criterion_3_determinant_identity():
    rng = np.random.default_rng(104)
    ok = True
    for n in range(1, 11):
        for trial in range(50):
            p = random_poly(rng, n, complex_coeffs=(trial % 2 == 1))
            ok &= det_identity_holds(
                assemble_pencil_from_monomial_tree(p, generic_tree(n)), p, rng
            )
            ok &= det_identity_holds(linearize(p), p, rng)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, 4))
        blocks = {
            (j, kk): rng.uniform(0, 1, (k, k)) + 1j * rng.uniform(0, 1, (k, k))
            for j in range(n + 1) for kk in range(n + 1 - j)
        }
        P = MatrixBivariatePolynomial.from_blocks(blocks, k)
        ok &= det_identity_holds(
            assemble_pencil_from_monomial_tree(P, generic_tree(n)), P, rng, matrix=True
        )
    # special cases and their fallbacks
    paths = []
    triple = BivariatePolynomial.from_terms(
        {(3, 0): 1, (2, 1): -3, (1, 2): 3, (0, 3): -1,
         (0, 0): 0.5, (1, 0): 0.3, (0, 1): -0.2, (2, 0): 1.1, (1, 1): 0.4, (0, 2): 0.9}
    )
    paths.append((linearize(triple), triple, 4))
    rot4 = BivariatePolynomial.from_terms({(0, 4): 1, (3, 1): 1, (1, 1): 0.5, (0, 0): 1, (1, 0): 2})
    paths.append((linearize(rot4), rot4, 5))
    dbl4 = BivariatePolynomial.from_terms(
        {(4, 0): 1, (2, 2): 2, (0, 4): 1, (0, 0): 1, (1, 0): 1, (0, 1): 0.7, (2, 0): 0.3}
    )
    paths.append((linearize(dbl4), dbl4, None))
    rot5 = BivariatePolynomial.from_terms({(4, 1): 1, (0, 5): 2, (2, 2): 1, (0, 0): 1, (1, 0): 1})
    paths.append((linearize(rot5), rot5, None))
    for pencil, poly, size in paths:
        ok &= det_identity_holds(pencil, poly, rng)
        if size is not None:
            ok &= pencil.size == size
    report(3, "determinant identity on 1000+ random constructions at 1e-9", bool(ok))


def test_criterion_4_end_to_end_roots():
    rng = np.random.default_rng(105)
    ok = True
    for n in range(3, 8):
        for trial in range(20):
            complex_coeffs = trial % 2 == 1
            p = random_poly(rng, n, complex_coeffs)
            q = random_poly(rng, n, complex_coeffs)
            lin1 = solve_system(p, q, SolveOptions(linearization="lin1"))
            lin2 = solve_system(p, q, SolveOptions(linearization="lin2"))
            ok &= sum(r.multiplicity for r in lin1) == n * n
            ok &= sum(r.multiplicity for r in lin2) == n * n
            ok &= max(r.accuracy for r in lin1) <= 1e-6
            ok &= max(r.accuracy for r in lin2) <= 1e-6
            remaining = [(r.x, r.y) for r in lin2]
            for rec in lin1:
                dists = [max(abs(rec.x - a), abs(rec.y - b)) for a, b in remaining]
                idx = int(np.argmin(dists))
                ok &= dists[idx] <= 1e-7
                remaining.pop(idx)
            if not ok:
                report(4, f"failure at degree {n}, trial {trial}", False)
    report(4, "100 seeded systems per linearization: counts, accuracy, agreement", bool(ok))


def test_criterion_5_power_sum_system():
    p = BivariatePolynomial.from_terms({(9, 0): 1, (0, 9): 1, (0, 0): -1})
    q = BivariatePolynomial.from_terms({(10, 0): 1, (0, 10): 1, (0, 0): -1})
    pen_p = linearize_polynomial(p, "lin2")
    pen_q = linearize_polynomial(q, "lin2")
    ok = pen_p.size == 9 and pen_q.size == 10
    deltas = operator_determinants(pen_p, pen_q)
    ok &= deltas.shape == (90, 90)
    ok &= is_delta0_nonsingular(deltas)
    sols = solve_regular(deltas)
    ok &= len(sols) == 90
    worst = 0.0
    for s in sols:
        x, y, _ = newton_refine(p, q, s.x, s.y, steps=2)
        worst = max(worst, max(abs(p(x, y)), abs(q(x, y))))
    ok &= worst <= 1e-8
    report(5, f"9/10 power-sum system: 90 refined roots, residual {worst:.1e}", bool(ok))


def test_criterion_6_singular_path():
    rng = np.random.default_rng(106)
    ok = True
    for trial in range(10):
        p = random_poly(rng, 3)
        q = random_poly(rng, 3)
        deltas = operator_determinants(
            linearize_polynomial(p, "lin1"), linearize_polynomial(q, "lin1")
        )
        ok &= deltas.shape == (25, 25)
        ok &= not is_delta0_nonsingular(deltas)
        reduced, _ = extract_regular_part(deltas)
        sols = solve_regular(reduced)
        scale = max(p.coeff_norm(), q.coeff_norm())
        passing = [
            s for s in sols
            if max(abs(p(s.x, s.y)), abs(q(s.x, s.y))) <= 1e-6 * scale
        ]
        ok &= len(passing) == 9
        reference = resultant_roots(p.coeffs, q.coeffs)
        ok &= len(reference) == 9
        for s in passing:
            ok &= min(max(abs(s.x - a), abs(s.y - b)) for a, b in reference) <= 1e-7
    report(6, "10 singular cubic systems: 9 roots each, matching the resultant oracle", bool(ok))


def test_criterion_7_special_case_substitutions():
    rng = np.random.default_rng(107)
    ok = True
    for trial in range(50):
        p = random_poly(rng, 3, complex_coeffs=(trial % 2 == 1))
        pencil = linearize(p)
        tree = detrep.representation_tree._special_tree(p, p.coeff_norm())
        ok &= tree is not None
        work = p
        for step in tree.substitution_steps:
            work = work.substitute(step.map)
        scale = p.coeff_norm()
        ok &= abs(work.coeffs[0, 3]) <= 1e-10 * scale if work.degree >= 3 else True
        ok &= abs(work.coeffs[0, 2]) <= 1e-10 * scale if work.degree >= 2 else True
        ok &= pencil.size == 3
        ok &= det_identity_holds(pencil, p, rng)
    for trial in range(50):
        p = random_poly(rng, 4, complex_coeffs=(trial % 2 == 1))
        pencil = linearize(p)
        tree = detrep.representation_tree._special_tree(p, p.coeff_norm())
        ok &= tree is not None
        work = p
        for step in tree.substitution_steps:
            work = work.substitute(step.map)
        scale = p.coeff_norm()
        for (j, k) in ((3, 0), (4, 0), (0, 3), (0, 4)):
            coeff = work.coeffs[j, k] if (j <= work.degree and k <= work.degree - j) else 0.0
            ok &= abs(coeff) <= 1e-10 * scale
        ok &= pencil.size == 5
        ok &= det_identity_holds(pencil, p, rng)
    report(7, "substitutions kill the target coefficients at 1e-10 and pencils verify", bool(ok))
