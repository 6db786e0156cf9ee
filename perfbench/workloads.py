"""Seeded inputs for the solve benchmark.

Every workload is a closed loop: one caller solves one system after
another.  The seed fixes the whole stream of coefficient tables, and the
solver sees only the polynomials built from them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    degrees: tuple[int, ...]  # visited in rotation, one system per step
    sparse: bool
    linearization: str
    # the traced run reports its exact counts over this many leading systems,
    # so they repeat exactly for a fixed seed whatever the run length
    count_systems: int


WORKLOADS = {
    w.name: w
    for w in (
        # monomial-tree pencils, N = 576: exactly real and staircase-heavy, so
        # a cheaper staircase shows here
        Workload("dense-lin1", (8,), False, "lin1", 4),
        # default options (lin2), N = 576: the top of the range users get,
        # with swap retries and failures in its tail
        Workload("dense-auto", (10,), False, "auto", 3),
        # default options: the staircase is bypassed or tiny, so the
        # representation-tree special cases and per-root Python work dominate
        Workload("small-auto", (3, 4, 5), False, "auto", 30),
        # x^n, y^n, 1 and 3 random terms with default options: the input
        # Steiner trees target, where lin2 fails on part of it today
        Workload("sparse-auto", (8,), True, "auto", 12),
        # monomial-tree pencils with a 3-step staircase (N = 25); lin1 raised
        # DegenerateSystemError on one of about 280,000 systems drawn
        Workload("cubic-lin1", (3,), False, "lin1", 30),
        # the same systems with default options (lin2): the regular path,
        # N = 9, so both the staircase and the monomial tree are bypassed
        Workload("cubic-auto", (3,), False, "auto", 30),
        # conics with lin1: monomial-tree pencils and a 2-step staircase on
        # every system (N = 9); the representation tree is bypassed
        Workload("quadric-lin1", (2,), False, "lin1", 30),
    )
}

SPARSE_EXTRA_TERMS = 3


def dense_table(n: int, rng: np.random.Generator) -> np.ndarray:
    """uniform(0, 1) on every monomial x^j y^k with j + k <= n, drawn in the
    order `detrep bench` uses."""
    table = np.zeros((n + 1, n + 1))
    for j in range(n + 1):
        for k in range(n + 1 - j):
            table[j, k] = rng.uniform(0.0, 1.0)
    return table


def sparse_table(n: int, rng: np.random.Generator) -> np.ndarray:
    """x^n, y^n and a constant plus SPARSE_EXTRA_TERMS distinct random
    monomials of degree <= n, all with uniform(0, 1) coefficients.  The pure
    powers keep all n^2 roots of a generic pair finite."""
    fixed = ((n, 0), (0, n), (0, 0))
    others = [
        (j, k) for j in range(n + 1) for k in range(n + 1 - j) if (j, k) not in fixed
    ]
    picks = rng.choice(len(others), SPARSE_EXTRA_TERMS, replace=False)
    table = np.zeros((n + 1, n + 1))
    for j, k in list(fixed) + [others[i] for i in picks]:
        table[j, k] = rng.uniform(0.0, 1.0)
    return table


def systems(workload: Workload, seed: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Endless stream of (p, q) coefficient tables, c[j, k] multiplying
    x^j y^k.  Each degree draws from its own generator keyed by (seed, n),
    so system 0 of a dense degree-n workload is the system `detrep bench
    --seed <seed>` builds for degree n."""
    make = sparse_table if workload.sparse else dense_table
    streams = {
        n: np.random.default_rng((seed, n, 1) if workload.sparse else (seed, n))
        for n in workload.degrees
    }
    while True:
        for n in workload.degrees:
            rng = streams[n]
            p = make(n, rng)
            q = make(n, rng)
            yield p, q


def add_to_digest(digest, p: np.ndarray, q: np.ndarray) -> None:
    digest.update(np.ascontiguousarray(p, dtype="<f8").tobytes())
    digest.update(np.ascontiguousarray(q, dtype="<f8").tobytes())


def tables_digest(pairs) -> str:
    """sha256 over the float64 bytes of every table, in order."""
    digest = hashlib.sha256()
    for p, q in pairs:
        add_to_digest(digest, p, q)
    return digest.hexdigest()
