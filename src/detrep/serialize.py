"""JSON formats for polynomials, pencils, trees and root lists.

Scalar entries are written as plain numbers when real and as [re, im]
pairs otherwise; readers accept both forms everywhere.  Matrices are
row-major nested arrays of [re, im] pairs.  Trees are written only, as
the metadata of `detrep linearize`; no command reads them back.
"""

from __future__ import annotations

import json

import numpy as np

from .monomial_tree import MonomialTree
from .pencils import Pencil
from .polynomials import BivariatePolynomial, MatrixBivariatePolynomial
from .representation_tree import LinearForm, RepresentationTree, SubstitutionStep
from .solver import RootRecord


def _scalar_to_json(z: complex):
    z = complex(z)
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def _scalar_from_json(obj) -> complex:
    if isinstance(obj, (int, float)):
        return complex(obj)
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return complex(obj[0], obj[1])
    raise ValueError(f"expected a number or [re, im] pair, got {obj!r}")


def _matrix_to_json(mat: np.ndarray):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat, dtype=complex)]


def _matrix_from_json(rows) -> np.ndarray:
    return np.array([[_scalar_from_json(z) for z in row] for row in rows], dtype=complex)


# -- polynomials -----------------------------------------------------------------


def polynomial_to_json(p) -> dict:
    if isinstance(p, BivariatePolynomial):
        head, entry = {}, _scalar_to_json
    elif isinstance(p, MatrixBivariatePolynomial):
        head, entry = {"block_size": p.block_size}, _matrix_to_json
    else:
        raise TypeError(f"cannot serialize {type(p).__name__}")
    n = p.degree
    rows = [[entry(p.coeffs[j, k]) for k in range(n + 1 - j)] for j in range(n + 1)]
    return {"degree": n, **head, "coeffs": rows}


def polynomial_from_json(obj: dict):
    n = int(obj["degree"])
    rows = obj["coeffs"]
    if len(rows) != n + 1:
        raise ValueError(f"expected {n + 1} coefficient rows, got {len(rows)}")
    matrix = "block_size" in obj
    entry = _matrix_from_json if matrix else _scalar_from_json
    block = (int(obj["block_size"]),) * 2 if matrix else ()
    table = np.zeros((n + 1, n + 1) + block, dtype=complex)
    for j, row in enumerate(rows):
        if len(row) != n + 1 - j:
            raise ValueError(f"row {j} must have {n + 1 - j} entries")
        for k, z in enumerate(row):
            table[j, k] = entry(z)
    return MatrixBivariatePolynomial(table) if matrix else BivariatePolynomial(table)


# -- pencils ----------------------------------------------------------------------


def pencil_to_json(pencil: Pencil) -> dict:
    return {
        "size": pencil.size,
        "block_size": pencil.block_size,
        "A": _matrix_to_json(pencil.A),
        "B": _matrix_to_json(pencil.B),
        "C": _matrix_to_json(pencil.C),
    }


def pencil_from_json(obj: dict) -> Pencil:
    return Pencil(
        size=int(obj["size"]),
        block_size=int(obj.get("block_size", 1)),
        A=_matrix_from_json(obj["A"]),
        B=_matrix_from_json(obj["B"]),
        C=_matrix_from_json(obj["C"]),
    )


# -- trees -------------------------------------------------------------------------


def monomial_tree_to_json(tree: MonomialTree) -> dict:
    return {
        "nodes": [list(nd) for nd in tree.nodes],
        "parents": list(tree.parents),
        "edges": list(tree.edges),
    }


def _form_to_json(form: LinearForm | None):
    if form is None:
        return None
    return [_scalar_to_json(form.a), _scalar_to_json(form.b), _scalar_to_json(form.c)]


def _substitution_to_json(step: SubstitutionStep) -> dict:
    return {
        "kind": step.kind,
        "linear": _matrix_to_json(step.map.linear),
        "shift": [_scalar_to_json(z) for z in step.map.shift],
        "params": {key: _scalar_to_json(val) for key, val in step.params.items()},
    }


def representation_tree_to_json(tree: RepresentationTree) -> dict:
    return {
        "parents": [(-1 if p is None else p) for p in tree.parents],
        "edges": [_form_to_json(e) for e in tree.edges],
        "coeffs": [_form_to_json(f) for f in tree.coeffs],
        "substitutions": [_substitution_to_json(s) for s in tree.substitution_steps],
    }


# -- roots and systems ----------------------------------------------------------------


def roots_to_json(records: list[RootRecord]) -> list:
    return [
        {
            "x": [rec.x.real, rec.x.imag],
            "y": [rec.y.real, rec.y.imag],
            "residual": rec.residual,
            "condition": rec.condition,
            "accuracy": rec.accuracy,
            "multiplicity": rec.multiplicity,
        }
        for rec in records
    ]


def system_from_json(obj: dict):
    """(p, q, options-dict) from a system file."""
    if "p" not in obj or "q" not in obj:
        raise ValueError("system file needs polynomial entries 'p' and 'q'")
    p = polynomial_from_json(obj["p"])
    q = polynomial_from_json(obj["q"])
    if not isinstance(p, BivariatePolynomial) or not isinstance(q, BivariatePolynomial):
        raise ValueError("system solving expects scalar polynomials")
    return p, q, obj.get("options", {})


def dump(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def load(path):
    with open(path) as fh:
        return json.load(fh)
