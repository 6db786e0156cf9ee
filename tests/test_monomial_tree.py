import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detrep import (
    BivariatePolynomial,
    CoverageError,
    MatrixBivariatePolynomial,
    MonomialTree,
    assemble_pencil_from_monomial_tree,
    first_row_assignment,
    full_monomial_tree,
    generic_tree,
    generic_tree_size,
    sparse_tree_heuristic,
)

from detrep.monomial_tree import (
    _constrained_terms,
    _covers,
    _exact_min_node_set,
    _prune_generic,
)
from oracles import exact_min_node_set_full_grid, min_covering_tree_size
from test_polynomials import CUBIC, random_polynomial

# the sparse degree-6 polynomial whose minimal tree has 11 nodes
SPARSE6 = BivariatePolynomial.from_terms(
    {(0, 0): 1, (1, 0): 1, (0, 1): 1, (0, 3): 1, (2, 2): 1,
     (4, 1): 1, (1, 4): 1, (6, 0): 1, (2, 4): 1}
)


def pencil_entry(pencil, i, j):
    return pencil.A[i, j], pencil.B[i, j], pencil.C[i, j]


def check_determinant(pencil, poly, rng, points=20, tol=1e-9, matrix=False):
    for _ in range(points):
        x = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        y = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        want = np.linalg.det(poly(x, y)) if matrix else poly(x, y)
        got = pencil.determinant(x, y)
        assert abs(got - want) <= tol * abs(want)


class TestGenericTree:
    def test_degree_one_is_single_node(self):
        tree = generic_tree(1)
        assert tree.nodes == ((0, 0),)

    def test_node_counts(self):
        assert len(generic_tree(6)) == 15
        assert len(generic_tree(10)) == 35

    @pytest.mark.parametrize("n", range(1, 13))
    def test_node_set_characterization(self, n):
        want = {(j, k) for j in range(n) for k in range(n - j) if k == 0 or j % 2 == 0}
        assert set(generic_tree(n).nodes) == want

    def test_ordering_and_edges(self):
        tree = generic_tree(6)
        keys = [(j + k, -j) for j, k in tree.nodes]
        assert keys == sorted(keys)
        for i in range(1, len(tree)):
            pj, pk = tree.nodes[tree.parents[i]]
            j, k = tree.nodes[i]
            assert (j - pj, k - pk) == ((1, 0) if tree.edges[i] == "x" else (0, 1))


class TestTreeSize:
    def test_reference_values(self):
        assert generic_tree_size(8) == 24
        assert generic_tree_size(1) == 1
        assert generic_tree_size(9) == 29

    def test_first_eight(self):
        assert [generic_tree_size(n) for n in range(1, 9)] == [1, 3, 5, 8, 11, 15, 19, 24]

    @pytest.mark.parametrize("n", range(1, 41))
    def test_closed_forms(self, n):
        # even degrees: n(n+4)/4; odd degrees: (n-1)(n+5)/4 + 1
        if n % 2 == 0:
            assert generic_tree_size(n) == n * (n + 4) // 4
        else:
            assert generic_tree_size(n) == (n - 1) * (n + 5) // 4 + 1

    def test_matches_tree(self):
        for n in range(1, 12):
            assert generic_tree_size(n) == len(generic_tree(n))


class TestAssembleScalar:
    def test_cubic_pencil_entries(self):
        """The 5x5 pencil of the running cubic, entry for entry."""
        pencil = assemble_pencil_from_monomial_tree(CUBIC, generic_tree(3))
        assert pencil.size == 5 and pencil.block_size == 1
        first_row = [
            (1, 2, 3),   # 1 + 2x + 3y
            (0, 4, 5),   # 4x + 5y
            (0, 0, 6),   # 6y
            (0, 7, 8),   # 7x + 8y
            (0, 9, 10),  # 9x + 10y
        ]
        for col, want in enumerate(first_row):
            assert pencil_entry(pencil, 0, col) == want
        for i in range(1, 5):
            assert pencil.A[i, i] == 1.0
        assert pencil.B[1, 0] == -1 and pencil.B[3, 1] == -1
        assert pencil.C[2, 0] == -1 and pencil.C[4, 2] == -1
        # nothing else below the first row
        structural = {(1, 1), (2, 2), (3, 3), (4, 4)}
        struct_b = {(1, 0), (3, 1)}
        struct_c = {(2, 0), (4, 2)}
        for i in range(1, 5):
            for j in range(5):
                assert pencil.A[i, j] == (1.0 if (i, j) in structural else 0.0)
                assert pencil.B[i, j] == (-1.0 if (i, j) in struct_b else 0.0)
                assert pencil.C[i, j] == (-1.0 if (i, j) in struct_c else 0.0)

    def test_determinant_identity_random(self):
        rng = np.random.default_rng(20)
        for n in range(1, 11):
            p = random_polynomial(rng, n, complex_coeffs=(n % 2 == 0))
            pencil = assemble_pencil_from_monomial_tree(p, generic_tree(n))
            check_determinant(pencil, p, rng)

    def test_structure_invariant(self):
        """One off-diagonal structural entry per non-root row; B and C live
        in the first row and at edge positions only."""
        rng = np.random.default_rng(21)
        p = random_polynomial(rng, 6)
        tree = generic_tree(6)
        pencil = assemble_pencil_from_monomial_tree(p, tree)
        for i in range(1, pencil.size):
            off = [
                j
                for j in range(pencil.size)
                if j != i and (pencil.B[i, j] != 0 or pencil.C[i, j] != 0 or pencil.A[i, j] != 0)
            ]
            assert off == [tree.parents[i]]


class TestAssembleBlock:
    def test_degree_three_block_fixture(self):
        """Dense block pencil over the full 6-node monomial tree."""
        rng = np.random.default_rng(22)
        k = 2
        blocks = {}
        for j in range(4):
            for kk in range(4 - j):
                blocks[(j, kk)] = rng.uniform(-1, 1, (k, k))
        P = MatrixBivariatePolynomial.from_blocks(blocks, k)
        tree = full_monomial_tree(3)
        assert tree.nodes == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
        pencil = assemble_pencil_from_monomial_tree(P, tree, placement="node")
        eye = np.eye(k)

        def blk(mat, i, j):
            return mat[i * k : (i + 1) * k, j * k : (j + 1) * k]

        # first row: [P00, P10, P01, P20 + x P30, P11 + x P21, P02 + x P12 + y P03]
        assert np.allclose(blk(pencil.A, 0, 0), blocks[(0, 0)])
        assert np.allclose(blk(pencil.A, 0, 1), blocks[(1, 0)])
        assert np.allclose(blk(pencil.A, 0, 2), blocks[(0, 1)])
        assert np.allclose(blk(pencil.A, 0, 3), blocks[(2, 0)])
        assert np.allclose(blk(pencil.B, 0, 3), blocks[(3, 0)])
        assert np.allclose(blk(pencil.A, 0, 4), blocks[(1, 1)])
        assert np.allclose(blk(pencil.B, 0, 4), blocks[(2, 1)])
        assert np.allclose(blk(pencil.A, 0, 5), blocks[(0, 2)])
        assert np.allclose(blk(pencil.B, 0, 5), blocks[(1, 2)])
        assert np.allclose(blk(pencil.C, 0, 5), blocks[(0, 3)])
        # -xI at block rows 2,4,5 and -yI at rows 3,6 (1-based)
        assert np.allclose(blk(pencil.B, 1, 0), -eye)
        assert np.allclose(blk(pencil.B, 3, 1), -eye)
        assert np.allclose(blk(pencil.B, 4, 2), -eye)
        assert np.allclose(blk(pencil.C, 2, 0), -eye)
        assert np.allclose(blk(pencil.C, 5, 2), -eye)
        rng2 = np.random.default_rng(23)
        check_determinant(pencil, P, rng2, matrix=True)

    def test_determinant_identity_random_blocks(self):
        rng = np.random.default_rng(24)
        for _ in range(8):
            n = int(rng.integers(1, 6))
            k = int(rng.integers(1, 4))
            blocks = {}
            for j in range(n + 1):
                for kk in range(n + 1 - j):
                    blocks[(j, kk)] = rng.uniform(-1, 1, (k, k)) + 1j * rng.uniform(-1, 1, (k, k))
            P = MatrixBivariatePolynomial.from_blocks(blocks, k)
            pencil = assemble_pencil_from_monomial_tree(P, generic_tree(n))
            check_determinant(pencil, P, rng, points=10, matrix=True)

    def test_null_vector_embedding(self):
        """If P(x, y) u = 0 the stacked vector (node monomial times u)
        lies in the kernel of the pencil."""
        rng = np.random.default_rng(25)
        k, n = 2, 3
        blocks = {}
        for j in range(n + 1):
            for kk in range(n + 1 - j):
                blocks[(j, kk)] = rng.uniform(-1, 1, (k, k))
        P = MatrixBivariatePolynomial.from_blocks(blocks, k)
        tree = generic_tree(n)
        pencil = assemble_pencil_from_monomial_tree(P, tree)
        # pick y0, solve det P(x, y0) = 0 through the companion-block
        # generalized eigenvalue problem of the matrix polynomial in x
        y0 = 0.37
        xc = [sum(P.coeffs[j, kk] * y0**kk for kk in range(n + 1 - j)) for j in range(n + 1)]
        big_a = np.zeros((n * k, n * k), dtype=complex)
        big_b = np.eye(n * k, dtype=complex)
        big_a[:-k, k:] = np.eye((n - 1) * k)
        for j in range(n):
            big_a[-k:, j * k : (j + 1) * k] = -xc[j]
        big_b[-k:, -k:] = xc[n]
        import scipy.linalg

        vals, vecs = scipy.linalg.eig(big_a, big_b)
        finite = np.isfinite(vals)
        idx = np.argmin(np.abs(vals[finite]))
        x0 = vals[finite][idx]
        u = vecs[:, np.flatnonzero(finite)[idx]][:k]
        assert np.linalg.norm(P(x0, y0) @ u) <= 1e-8 * np.linalg.norm(u)
        stacked = np.concatenate([x0**j * y0**kk * u for j, kk in tree.nodes])
        resid = np.linalg.norm(pencil(x0, y0) @ stacked) / np.linalg.norm(stacked)
        assert resid <= 1e-8


class TestFirstRowAssignment:
    def test_top_degree_term_uses_x_slot(self):
        p = BivariatePolynomial.from_terms({(6, 0): 1.0, (0, 0): 1.0})
        tree = generic_tree(6)
        col, slot = first_row_assignment(p, tree)[(6, 0)]
        assert tree.nodes[col] == (5, 0) and slot == "B"

    def test_constant_sits_on_root(self):
        assignment = first_row_assignment(CUBIC, generic_tree(3))
        assert assignment[(0, 0)] == (0, "A")

    def test_pure_y_cube_steps_from_y_square(self):
        p = BivariatePolynomial.from_terms({(0, 3): 1.0, (3, 0): 1.0})
        tree = generic_tree(3)
        col, slot = first_row_assignment(p, tree)[(0, 3)]
        assert tree.nodes[col] == (0, 2) and slot == "C"

    def test_node_placement_prefers_own_node(self):
        tree = full_monomial_tree(3)
        assignment = first_row_assignment(CUBIC, tree, placement="node")
        assert assignment[(1, 0)] == (1, "A")
        assert assignment[(0, 2)] == (5, "A")

    def test_coverage_error_names_the_term(self):
        p = BivariatePolynomial.from_terms({(2, 2): 1.0, (0, 0): 1.0})
        chain = MonomialTree.from_node_set({(0, 0), (1, 0), (2, 0), (3, 0)})
        with pytest.raises(CoverageError, match="x\\^2 y\\^2"):
            first_row_assignment(p, chain)


class TestSparseTree:
    def test_eleven_node_fixture_tree(self):
        """Explicitly constructed 11-node tree for the sparse degree-6
        polynomial: nodes, edge positions and first-row pattern."""
        node_set = {(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (3, 0),
                    (1, 2), (4, 0), (1, 3), (5, 0), (2, 3)}
        tree = MonomialTree.from_node_set(node_set)
        assert tree.nodes == ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (3, 0),
                              (1, 2), (4, 0), (1, 3), (5, 0), (2, 3))
        pencil = assemble_pencil_from_monomial_tree(SPARSE6, tree)
        # -x entries (1-based block positions (2,1),(4,2),(6,4),(7,5),(8,6),(10,8),(11,9))
        x_edges = {(1, 0), (3, 1), (5, 3), (6, 4), (7, 5), (9, 7), (10, 8)}
        y_edges = {(2, 0), (4, 2), (8, 6)}
        for i in range(1, 11):
            for j in range(11):
                assert pencil.B[i, j] == (-1.0 if (i, j) in x_edges else 0.0)
                assert pencil.C[i, j] == (-1.0 if (i, j) in y_edges else 0.0)
        # first-row occupancy: columns of 1, y^2, xy^2, x^4, xy^3, x^5, x^2y^3
        occupied = {
            j
            for j in range(11)
            if pencil.A[0, j] != 0 or pencil.B[0, j] != 0 or pencil.C[0, j] != 0
        }
        assert occupied == {0, 4, 6, 7, 8, 9, 10}
        rng = np.random.default_rng(26)
        check_determinant(pencil, SPARSE6, rng)

    def test_heuristic_reaches_eleven_nodes(self):
        tree = sparse_tree_heuristic(SPARSE6)
        assert len(tree) <= 11
        pencil = assemble_pencil_from_monomial_tree(SPARSE6, tree)
        rng = np.random.default_rng(27)
        check_determinant(pencil, SPARSE6, rng)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_dense_input_returns_generic_tree(self, n):
        """Full support takes the shortcut to the generic tree, and the
        search finds that same tree: dropping the constant, which
        constrains nothing, sends the same terms through the search."""
        rng = np.random.default_rng(28 + n)
        p = random_polynomial(rng, n)
        assert sparse_tree_heuristic(p) == generic_tree(n)
        table = p.coeffs.copy()
        table[0, 0] = 0
        assert sparse_tree_heuristic(BivariatePolynomial(table)) == generic_tree(n)
        blocks = MatrixBivariatePolynomial(p.coeffs[:, :, None, None] * np.eye(2))
        assert sparse_tree_heuristic(blocks) == generic_tree(n)

    @pytest.mark.parametrize("seed", range(8))
    def test_exact_search_size_against_enumeration(self, seed):
        """The bit-mask search finds a covering tree as small as the
        brute-force subset search does."""
        rng = np.random.default_rng(60 + seed)
        n = 3 + seed % 2
        all_terms = [(j, k) for j in range(n + 1) for k in range(n + 1 - j)]
        count = int(rng.integers(2, 7))
        chosen = [all_terms[i] for i in rng.choice(len(all_terms), size=count, replace=False)]
        top = [(j, k) for j, k in all_terms if j + k == n]
        chosen.append(top[rng.integers(len(top))])
        p = BivariatePolynomial.from_terms({t: rng.uniform(0.5, 1.5) for t in chosen})
        nodes = _exact_min_node_set(p)
        assert _covers(nodes, _constrained_terms(p))
        assert len(nodes) == min_covering_tree_size(chosen, p.degree)

    def test_two_chain_polynomial(self):
        p = BivariatePolynomial.from_terms({(9, 0): 1, (0, 9): 1, (0, 0): -1})
        tree = sparse_tree_heuristic(p)
        assert len(tree) <= generic_tree_size(9)
        pencil = assemble_pencil_from_monomial_tree(p, tree)
        rng = np.random.default_rng(29)
        check_determinant(pencil, p, rng)

    def test_matrix_polynomial_input(self):
        rng = np.random.default_rng(45)
        blocks = {
            (j, k): rng.uniform(-1, 1, (2, 2))
            for j, k in [(0, 0), (5, 0), (0, 5), (2, 2)]
        }
        P = MatrixBivariatePolynomial.from_blocks(blocks, 2)
        tree = sparse_tree_heuristic(P)
        assert len(tree) <= len(generic_tree(5))
        pencil = assemble_pencil_from_monomial_tree(P, tree)
        check_determinant(pencil, P, rng, points=10, matrix=True)

    @pytest.mark.parametrize("seed", range(6))
    def test_minimality_against_enumeration(self, seed):
        """Exhaustive subset search confirms minimality for small degrees."""
        rng = np.random.default_rng(40 + seed)
        n = int(rng.integers(3, 6))
        all_terms = [(j, k) for j in range(n + 1) for k in range(n + 1 - j)]
        chosen = [all_terms[i] for i in rng.choice(len(all_terms), size=5, replace=False)]
        top = [(j, k) for j, k in all_terms if j + k == n]
        chosen.append(top[rng.integers(len(top))])
        p = BivariatePolynomial.from_terms({t: 1.0 for t in chosen})
        tree = sparse_tree_heuristic(p)
        want = min_covering_tree_size([t for t in chosen], p.degree)
        assert len(tree) == want



@st.composite
def sparse_low_degree_polynomials(draw):
    """Degree 2-6 polynomials with a few terms, x^n and y^n each often
    present and often absent."""
    n = draw(st.integers(2, 6))
    terms = draw(st.lists(
        st.tuples(st.integers(0, n), st.integers(0, n)).filter(lambda t: sum(t) <= n),
        min_size=1, max_size=9,
    ))
    terms.append(draw(st.sampled_from([(n, 0), (0, n)] + [(j, n - j) for j in range(1, n)])))
    terms += [t for t in ((n, 0), (0, n)) if draw(st.booleans())]
    return BivariatePolynomial.from_terms({t: 1.0 for t in terms})


@settings(max_examples=60, deadline=None)
@given(sparse_low_degree_polynomials())
def test_exact_search_matches_the_full_grid_search(p):
    """Fixing the x- and y-chains that x^n and y^n force leaves the search
    with the same smallest node set as screening the whole grid."""
    assert _exact_min_node_set(p) == exact_min_node_set_full_grid(p)


@st.composite
def sparse_polynomials(draw):
    """Degree 7-10 polynomials with a top-degree term and a few more terms;
    beyond the exact-search cap the greedy search and the pruned generic
    tree compete."""
    n = draw(st.integers(7, 10))
    top = draw(st.integers(0, n))
    others = draw(st.lists(
        st.tuples(st.integers(0, n), st.integers(0, n)).filter(lambda t: sum(t) <= n),
        min_size=1, max_size=8,
    ))
    coeff = st.floats(0.5, 2.0).flatmap(lambda c: st.sampled_from([c, -c]))
    terms = {term: draw(coeff) for term in [(top, n - top)] + others}
    return BivariatePolynomial.from_terms(terms)


@settings(max_examples=60, deadline=None)
@given(sparse_polynomials())
def test_pruned_generic_tree_properties(p):
    n = p.degree
    generic = set(generic_tree(n).nodes)
    pruned = _prune_generic(p)
    assert pruned <= generic
    assert _covers(pruned, _constrained_terms(p))
    assert len(pruned) <= generic_tree_size(n)
    heuristic = sparse_tree_heuristic(p)
    assert len(heuristic) <= len(pruned)
    rng = np.random.default_rng(n)
    for nodes in (pruned, heuristic.nodes):
        pencil = assemble_pencil_from_monomial_tree(p, MonomialTree.from_node_set(nodes))
        for _ in range(5):
            x = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            y = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            # roundoff scale: the sum of the term magnitudes at (x, y)
            size = sum(abs(c * x**j * y**k) for j, k, c in p.terms())
            assert abs(pencil.determinant(x, y) - p(x, y)) <= 1e-9 * size


class TestTreeValidation:
    def test_rejects_wrong_order(self):
        with pytest.raises(ValueError):
            MonomialTree(((0, 0), (0, 1), (1, 0)), (-1, 0, 0), (None, "y", "x"))

    def test_rejects_bad_parent_step(self):
        with pytest.raises(ValueError):
            MonomialTree(((0, 0), (1, 0), (0, 1)), (-1, 0, 1), (None, "x", "y"))

    def test_tree_too_deep_for_degree(self):
        tree = generic_tree(5)
        p = BivariatePolynomial.from_terms({(2, 0): 1.0, (0, 0): 1.0})
        with pytest.raises(ValueError, match="too deep"):
            assemble_pencil_from_monomial_tree(p, tree)
