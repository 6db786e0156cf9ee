import numpy as np

from detrep import BivariatePolynomial, monomial_tree, representation_tree
from detrep.pencils import tree_pencil


def block(mat, i, j, k=2):
    return mat[i * k : (i + 1) * k, j * k : (j + 1) * k]


def test_tree_pencil_blocks_with_offset_edges():
    # root 0, node 1 = root * (2 + x), node 2 = node 1 * (-1 + x/2 + 3i y):
    # 2 x 2 blocks in row 0 and edges with constant offsets
    rng = np.random.default_rng(11)
    first = rng.normal(size=(3, 3, 2, 2)) + 1j * rng.normal(size=(3, 3, 2, 2))
    edges = [(2.0, 1.0, 0.0), (-1.0, 0.5, 3j)]
    pencil = tree_pencil((0, 1), edges, first)
    assert (pencil.size, pencil.block_size, pencil.dim) == (3, 2, 6)

    eye, zero = np.eye(2), np.zeros((2, 2))
    below = {(1, 0): edges[0], (2, 1): edges[1]}
    for s, mat in enumerate((pencil.A, pencil.B, pencil.C)):
        for i in range(3):
            for j in range(3):
                if i == 0:
                    want = first[s, j]
                elif (i, j) in below:
                    want = -below[i, j][s] * eye
                elif i == j and s == 0:
                    want = eye
                else:
                    want = zero
                assert np.array_equal(block(mat, i, j), want), (s, i, j)

    # the determinant is det of sum over nodes of the row-0 form times the
    # product of the edge forms on the node's root path
    x, y = 0.3 - 0.7j, -1.1 + 0.2j

    def form(f):
        return f[0] + x * f[1] + y * f[2]

    nodes = [1.0, form(edges[0]), form(edges[0]) * form(edges[1])]
    total = sum(form(first[:, i]) * nodes[i] for i in range(3))
    assert np.isclose(pencil.determinant(x, y), np.linalg.det(total), rtol=1e-12)


def test_both_tree_modules_assemble_through_tree_pencil(monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        return tree_pencil(*args)

    for module in (monomial_tree, representation_tree):
        monkeypatch.setattr(module, "tree_pencil", spy)
    p = BivariatePolynomial.from_terms({(3, 0): 1.0, (0, 3): 2.0, (1, 1): -1.0, (0, 0): 0.5})
    monomial_tree.assemble_pencil_from_monomial_tree(p, monomial_tree.generic_tree(3))
    representation_tree.linearize(p)
    assert len(calls) == 2
