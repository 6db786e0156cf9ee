"""Linearization built on a rooted tree of monomials.

The pencil A + x B + y C for a polynomial of degree n is assembled over a
tree whose nodes are monomials x^j y^k with j + k <= n - 1: the root is 1,
every edge multiplies its parent by x or by y, each non-root row of the
pencil carries an identity (block) on the diagonal and -x or -y under it,
and the first row distributes the coefficients of the polynomial.  The
determinant of the pencil then reproduces the polynomial (or the
determinant of the matrix polynomial) identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pencils import tree_pencil
from .polynomials import BivariatePolynomial, MatrixBivariatePolynomial

X_EDGE = "x"
Y_EDGE = "y"


class CoverageError(ValueError):
    """The tree cannot represent some term of the polynomial."""


def _monomial_key(node):
    # total degree first, larger x-exponent first inside a degree
    j, k = node
    return (j + k, -j)


@dataclass(frozen=True)
class MonomialTree:
    """Rooted tree of monomials ordered degree-first, x-heavy first.

    nodes[i] is the exponent pair (j, k); parents[i] / edges[i] give the
    parent index and the edge variable for i >= 1 (parents[0] is -1).
    """

    nodes: tuple
    parents: tuple
    edges: tuple
    index: dict = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        nodes, parents, edges = self.nodes, self.parents, self.edges
        if not nodes or nodes[0] != (0, 0):
            raise ValueError("first node must be the root monomial (0, 0)")
        if len(parents) != len(nodes) or len(edges) != len(nodes):
            raise ValueError("parents and edges must align with nodes")
        keys = [_monomial_key(nd) for nd in nodes]
        if keys != sorted(keys):
            raise ValueError("nodes must be in degree negative lexicographic order")
        for i in range(1, len(nodes)):
            p, var = parents[i], edges[i]
            if not 0 <= p < i:
                raise ValueError(f"node {i} needs a parent with smaller index")
            pj, pk = nodes[p]
            step = (1, 0) if var == X_EDGE else (0, 1)
            if nodes[i] != (pj + step[0], pk + step[1]):
                raise ValueError(f"node {nodes[i]} does not extend parent {nodes[p]}")
        object.__setattr__(self, "index", {nd: i for i, nd in enumerate(nodes)})

    def __len__(self):
        return len(self.nodes)

    @classmethod
    def from_node_set(cls, node_set) -> "MonomialTree":
        """Order a reachable node set and pick parents (x-parent preferred)."""
        nodes = sorted(set(node_set) | {(0, 0)}, key=_monomial_key)
        present = set(nodes)
        parents, edges = [-1], [None]
        pos = {nd: i for i, nd in enumerate(nodes)}
        for nd in nodes[1:]:
            j, k = nd
            if j > 0 and (j - 1, k) in present:
                parents.append(pos[(j - 1, k)])
                edges.append(X_EDGE)
            elif k > 0 and (j, k - 1) in present:
                parents.append(pos[(j, k - 1)])
                edges.append(Y_EDGE)
            else:
                raise ValueError(f"node {nd} is unreachable in the node set")
        return cls(tuple(nodes), tuple(parents), tuple(edges))


def _generic_node_set(n: int) -> set:
    """All x^j y^k with j + k < n and (k = 0 or j even)."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    return {(j, k) for j in range(n) for k in range(n - j) if k == 0 or j % 2 == 0}


def generic_tree_size(n: int) -> int:
    """Number of nodes of the generic degree-n tree."""
    return len(_generic_node_set(n))


def generic_tree(n: int) -> MonomialTree:
    """Tree covering every possible term of a dense degree-n polynomial.

    The pure-x and pure-y chains run from the root; each even-j interior
    row hangs off x^j and continues with y-edges.  Within the generic node
    set every node has a unique feasible parent, so the layout is forced.
    """
    return MonomialTree.from_node_set(_generic_node_set(n))


def full_monomial_tree(n: int) -> MonomialTree:
    """Tree over every monomial of degree < n (the dense baseline layout:
    x-edges inside each row, y-edges down the pure-y chain)."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    node_set = {(j, k) for j in range(n) for k in range(n - j)}
    return MonomialTree.from_node_set(node_set)


def _term_options(j: int, k: int, n: int):
    """Representation slots for the term x^j y^k of a degree-n polynomial:
    at its own node, or at the node missing one x, or one y."""
    options = []
    if j + k < n:
        options.append(((j, k), "A"))
    if j > 0:
        options.append(((j - 1, k), "B"))
    if k > 0:
        options.append(((j, k - 1), "C"))
    return options


def first_row_assignment(P, tree: MonomialTree, placement: str = "parent") -> dict:
    """Assign every nonzero term to a (column, slot) of the first pencil row.

    placement="parent" sends each term of total degree >= 1 to a node one
    degree lower, preferring the slot reached by a y-step (the earlier
    column); placement="node" parks a term at its own node whenever the
    node is present, falling back to the x-step then the y-step slot.
    Either choice yields the same determinant.
    """
    if placement not in ("parent", "node"):
        raise ValueError("placement must be 'parent' or 'node'")
    n = P.degree
    assignment = {}
    for j, k, _ in P.terms():
        options = {slot: node for node, slot in _term_options(j, k, n)}
        order = "ABC" if placement == "node" else "CBA"
        chosen = None
        for slot in order:
            node = options.get(slot)
            if node is not None and node in tree.index:
                chosen = (tree.index[node], slot)
                break
        if chosen is None:
            raise CoverageError(f"tree cannot represent the term x^{j} y^{k}")
        assignment[(j, k)] = chosen
    return assignment


def assemble_pencil_from_monomial_tree(P, tree: MonomialTree, placement: str = "parent"):
    """Pencil (A, B, C) with det(A + xB + yC) equal to the polynomial
    (scalar case) or to det P(x, y) (matrix case)."""
    if not isinstance(P, (BivariatePolynomial, MatrixBivariatePolynomial)):
        raise TypeError("expected a scalar or matrix bivariate polynomial")
    n = P.degree
    deepest = max(j + k for j, k in tree.nodes)
    if deepest > max(n - 1, 0):
        raise ValueError(
            f"tree reaches degree {deepest}, too deep for a degree-{n} polynomial"
        )
    block = getattr(P, "block_size", 1)
    first_row = np.zeros((3, len(tree), block, block), dtype=complex)
    for (j, k), (col, slot) in first_row_assignment(P, tree, placement).items():
        first_row["ABC".index(slot), col] = P.coeffs[j, k]
    edges = [(0, 1, 0) if var == X_EDGE else (0, 0, 1) for var in tree.edges[1:]]
    return tree_pencil(tree.parents[1:], edges, first_row)


# -- small trees for sparse polynomials ----------------------------------------


def _constrained_terms(P):
    """Terms that actually constrain the node set (degree >= 2; degree-1
    terms ride on the root, the constant needs nothing)."""
    n = P.degree
    out = []
    for j, k, _ in P.terms():
        if j + k < 2:
            continue
        out.append(((j, k), [node for node, _ in _term_options(j, k, n)]))
    return out


def _covers(node_set, constraints) -> bool:
    return all(any(opt in node_set for opt in opts) for _, opts in constraints)


def _prune_generic(P) -> set:
    """Generic node set cut back to the columns the first row of this
    polynomial uses, closed upward to the root along the tree's parents."""
    tree = generic_tree(P.degree)
    used = {0}
    for col, _ in first_row_assignment(P, tree).values():
        while col not in used:
            used.add(col)
            col = tree.parents[col]
    return {tree.nodes[i] for i in used}


def _exact_min_node_set(P) -> set:
    """Smallest covering node set by vectorized subset enumeration.

    x^n has the one slot x^(n-1), so every cover holds the x-chain up to
    it, and likewise the y-chain for y^n; those nodes are fixed.  Each
    subset of the other grid nodes (j + k <= n - 1, at most 20 for n <= 6)
    is screened with bit arithmetic: it is a valid tree iff every member
    has a feasible parent in it or among the fixed nodes, and with them
    it must cover every constrained term.  The first subset of fewest
    nodes wins, the one the search over the whole grid finds.
    """
    n = P.degree
    constraints = _constrained_terms(P)
    fixed = {(0, 0)}
    for _, opts in constraints:
        if len(opts) == 1:  # x^n or y^n
            [(j, k)] = opts
            fixed |= {(i, 0) for i in range(1, j + 1)} | {(0, i) for i in range(1, k + 1)}
    grid = sorted(((j, k) for j in range(n) for k in range(n - j)), key=_monomial_key)
    free = [nd for nd in grid if nd not in fixed]
    bit = {nd: 1 << i for i, nd in enumerate(free)}

    def mask(nodes):  # 0 when a fixed node is among them: always satisfied
        return 0 if any(nd in fixed for nd in nodes) else sum(bit[nd] for nd in nodes)

    subsets = np.arange(1 << len(free), dtype=np.uint32)
    valid = np.ones(subsets.shape, dtype=bool)
    for j, k in free:
        parents = mask([nd for nd in ((j - 1, k), (j, k - 1)) if min(nd) >= 0])
        if parents:
            valid &= ((subsets & np.uint32(bit[(j, k)])) == 0) | ((subsets & np.uint32(parents)) != 0)
    for covers in filter(None, (mask(opts) for _, opts in constraints)):
        valid &= (subsets & np.uint32(covers)) != 0
    popcount = np.bitwise_count(subsets).astype(np.int64)
    popcount[~valid] = 1 << 30
    best = int(np.argmin(popcount))
    return fixed | {nd for nd in free if best & bit[nd]}


def _greedy_node_set(P) -> set:
    """Connect terminals one by one, largest degree first, each through the
    cheapest monomial path from the nodes already present."""
    tree = {(0, 0)}
    constraints = sorted(
        _constrained_terms(P), key=lambda item: (-(item[0][0] + item[0][1]), -item[0][0])
    )
    for _, opts in constraints:
        if any(opt in tree for opt in opts):
            continue
        best = None
        for opt in opts:
            oj, ok = opt
            for tj, tk in tree:
                if tj <= oj and tk <= ok:
                    cost = (oj - tj) + (ok - tk)
                    key = (cost, _monomial_key(opt), _monomial_key((tj, tk)))
                    if best is None or key < best[0]:
                        best = (key, opt, (tj, tk))
        _, opt, start = best
        j, k = start
        while j < opt[0]:  # extend in x first, then in y
            j += 1
            tree.add((j, k))
        while k < opt[1]:
            k += 1
            tree.add((j, k))
    return tree


EXACT_SEARCH_MAX_DEGREE = 6
EXACT_SEARCH_MAX_TERMINALS = 20


def sparse_tree_heuristic(P) -> MonomialTree:
    """lin1's tree: a small valid tree for the polynomial, never larger than
    the generic tree, which full support gets without a search.  Below the
    exact-search cap the minimum is found by enumeration; beyond it a greedy
    terminal-connection pass runs, and the pruned generic tree acts as a
    safety net (and wins ties)."""
    n = P.degree
    if n < 1:
        raise ValueError("degree must be at least 1")
    # count the terms (nonzero blocks of a matrix polynomial; the table is 0 past the degree)
    support = P.coeffs if P.coeffs.ndim == 2 else P.coeffs.any(axis=(2, 3))
    if np.count_nonzero(support) == (n + 1) * (n + 2) // 2:
        return generic_tree(n)
    constraints = _constrained_terms(P)
    fallback = _prune_generic(P)
    if n <= EXACT_SEARCH_MAX_DEGREE and len(constraints) <= EXACT_SEARCH_MAX_TERMINALS:
        candidate = _exact_min_node_set(P)
    else:
        candidate = _greedy_node_set(P)
    chosen = candidate if len(candidate) < len(fallback) else fallback
    if not _covers(chosen, constraints):  # pragma: no cover - safety check
        raise CoverageError("internal error: heuristic produced a non-covering tree")
    return MonomialTree.from_node_set(chosen)
