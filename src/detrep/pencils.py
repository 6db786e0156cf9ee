"""Linear matrix pencils A + x B + y C."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Pencil:
    """Triple of square complex matrices; `size` counts blocks of edge
    length `block_size`, so the matrices have shape (size*block_size,)**2."""

    size: int
    block_size: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        dim = self.size * self.block_size
        for name in ("A", "B", "C"):
            mat = np.asarray(getattr(self, name), dtype=complex)
            if mat.shape != (dim, dim):
                raise ValueError(f"{name} must have shape {(dim, dim)}, got {mat.shape}")
            object.__setattr__(self, name, mat)

    @property
    def dim(self) -> int:
        return self.size * self.block_size

    def __call__(self, x: complex, y: complex) -> np.ndarray:
        return self.A + x * self.B + y * self.C

    def determinant(self, x: complex, y: complex) -> complex:
        return complex(np.linalg.det(self(x, y)))


def tree_pencil(parents, edges, first_row: np.ndarray) -> Pencil:
    """Pencil of a tree rooted at node 0: row 0 is first_row, the (3, m, k, k)
    array of the A, B and C blocks of each node (k = 1 for scalars); row
    i >= 1 has the identity on its diagonal and minus the edge form
    a + b x + c y, (a, b, c) = edges[i - 1], under its parent parents[i - 1]."""
    _, m, block, _ = first_row.shape
    dim = m * block
    # scalar entries, blown up to blocks below; a loop beats fancy indexing here
    mats = np.zeros((3, m, m), dtype=complex)
    for i, (p, (a, b, c)) in enumerate(zip(parents, edges), start=1):
        mats[0, i, i] = 1.0
        mats[0, i, p], mats[1, i, p], mats[2, i, p] = -a, -b, -c
    if block > 1:
        mats = (mats[:, :, None, :, None] * np.eye(block)[:, None, :]).reshape(3, dim, dim)
    mats[:, :block] = first_row.transpose(0, 2, 1, 3).reshape(3, block, dim)
    return Pencil(size=m, block_size=block, A=mats[0], B=mats[1], C=mats[2])
