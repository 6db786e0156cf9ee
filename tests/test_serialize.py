import json

import numpy as np
import pytest

from detrep import (
    BivariatePolynomial,
    MatrixBivariatePolynomial,
    build_tree,
    generic_tree,
    linearize,
    solve_system,
    sparse_tree_heuristic,
)
from detrep import serialize

from test_polynomials import CUBIC, random_polynomial


def round_trip(obj, to_json, from_json):
    return from_json(json.loads(json.dumps(to_json(obj))))


class TestPolynomialFormat:
    def test_scalar_round_trip(self):
        rng = np.random.default_rng(0)
        p = random_polynomial(rng, 6, complex_coeffs=True)
        back = round_trip(p, serialize.polynomial_to_json, serialize.polynomial_from_json)
        assert back.degree == p.degree
        assert np.array_equal(back.coeffs, p.coeffs)

    def test_real_entries_written_as_numbers(self):
        doc = serialize.polynomial_to_json(CUBIC)
        assert doc["degree"] == 3
        assert doc["coeffs"][0] == [1.0, 3.0, 6.0, 10.0]
        assert doc["coeffs"][3] == [7.0]

    def test_reader_accepts_pairs_and_numbers(self):
        doc = {"degree": 1, "coeffs": [[1.0, [0.0, 2.0]], [3.0]]}
        p = serialize.polynomial_from_json(doc)
        assert p.coeffs[0, 1] == 2j
        assert p.coeffs[1, 0] == 3.0

    def test_matrix_round_trip(self):
        rng = np.random.default_rng(1)
        blocks = {}
        for j in range(3):
            for k in range(3 - j):
                blocks[(j, k)] = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
        P = MatrixBivariatePolynomial.from_blocks(blocks, 2)
        back = round_trip(P, serialize.polynomial_to_json, serialize.polynomial_from_json)
        assert isinstance(back, MatrixBivariatePolynomial)
        assert back.block_size == 2
        assert np.array_equal(back.coeffs, P.coeffs)

    def test_matrix_bytes_are_pinned(self):
        # key order degree, block_size, coeffs; every entry an [re, im] pair
        P = MatrixBivariatePolynomial.from_blocks(
            {
                (0, 0): [[1.0, 0.5j], [-2.0, 0.0]],
                (1, 0): [[0.25, 0.0], [0.0, 1.0 - 1.0j]],
                (0, 1): [[0.0, 3.0], [1.5, -0.5]],
            },
            2,
        )
        assert json.dumps(serialize.polynomial_to_json(P)) == (
            '{"degree": 1, "block_size": 2, "coeffs": '
            "[[[[[1.0, 0.0], [0.0, 0.5]], [[-2.0, 0.0], [0.0, 0.0]]], "
            "[[[0.0, 0.0], [3.0, 0.0]], [[1.5, 0.0], [-0.5, 0.0]]]], "
            "[[[[0.25, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, -1.0]]]]]}"
        )

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            serialize.polynomial_from_json({"degree": 2, "coeffs": [[1, 2, 3], [4], [5]]})


class TestPencilFormat:
    def test_round_trip(self):
        pencil = linearize(CUBIC)
        back = round_trip(pencil, serialize.pencil_to_json, serialize.pencil_from_json)
        assert back.size == pencil.size
        assert np.array_equal(back.A, pencil.A)
        assert np.array_equal(back.B, pencil.B)
        assert np.array_equal(back.C, pencil.C)


def as_complex(obj) -> complex:
    """A JSON scalar: a number or an [re, im] pair."""
    return complex(*obj) if isinstance(obj, list) else complex(obj)


def written(obj, to_json):
    """The document as a file holds it."""
    return json.loads(json.dumps(to_json(obj)))


class TestTreeFormats:
    """Trees are written only (the metadata of `detrep linearize`); the
    document must hold the tree entry by entry."""

    @pytest.mark.parametrize("tree", [
        sparse_tree_heuristic(BivariatePolynomial.from_terms({(5, 0): 1, (0, 5): 1, (0, 0): 1})),
        generic_tree(6),
    ], ids=["sparse", "generic"])
    def test_monomial_tree_writer(self, tree):
        doc = written(tree, serialize.monomial_tree_to_json)
        assert set(doc) == {"nodes", "parents", "edges"}
        assert [tuple(nd) for nd in doc["nodes"]] == list(tree.nodes)
        assert doc["parents"] == list(tree.parents)
        assert doc["edges"] == list(tree.edges)

    def test_representation_tree_writer_with_substitutions(self):
        rng = np.random.default_rng(2)
        p = random_polynomial(rng, 6)
        tree = build_tree(p)
        assert tree.substitution_steps  # inner special case fired
        doc = written(tree, serialize.representation_tree_to_json)
        assert doc["parents"] == [-1 if i is None else i for i in tree.parents]
        assert doc["edges"][0] is None
        for key, forms in (("edges", tree.edges[1:]), ("coeffs", tree.coeffs)):
            entries = doc[key][1:] if key == "edges" else doc[key]
            assert len(entries) == len(forms)
            for entry, form in zip(entries, forms):
                assert [as_complex(z) for z in entry] == [form.a, form.b, form.c]
        assert len(doc["substitutions"]) == len(tree.substitution_steps)
        for entry, step in zip(doc["substitutions"], tree.substitution_steps):
            assert entry["kind"] == step.kind
            assert np.array_equal([[as_complex(z) for z in row] for row in entry["linear"]],
                                  step.map.linear)
            assert np.array_equal([as_complex(z) for z in entry["shift"]], step.map.shift)
            assert {k: as_complex(v) for k, v in entry["params"].items()} == step.params


class TestRootsAndSystems:
    def test_roots_schema(self):
        p = BivariatePolynomial.from_terms({(1, 0): 1, (0, 1): 1, (0, 0): -1})
        q = BivariatePolynomial.from_terms({(1, 0): 1, (0, 1): -1})
        doc = serialize.roots_to_json(solve_system(p, q))
        assert isinstance(doc, list) and len(doc) == 1
        entry = doc[0]
        assert set(entry) == {"x", "y", "residual", "condition", "accuracy", "multiplicity"}
        assert entry["x"] == [pytest.approx(0.5), pytest.approx(0.0)]

    def test_system_reader(self):
        doc = {
            "p": serialize.polynomial_to_json(CUBIC),
            "q": {"degree": 1, "coeffs": [[0, 1], [1]]},
            "options": {"newton_steps": 3},
        }
        p, q, opts = serialize.system_from_json(doc)
        assert p.degree == 3 and q.degree == 1
        assert opts == {"newton_steps": 3}

    def test_system_requires_both_entries(self):
        with pytest.raises(ValueError):
            serialize.system_from_json({"p": serialize.polynomial_to_json(CUBIC)})
