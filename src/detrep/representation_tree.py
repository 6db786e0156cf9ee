"""Linearization through a representation tree with linear-form edges.

Every node of the tree carries the product of the forms on its root path,
and a linear coefficient form; the polynomial is recovered as the sum of
coefficient times node product.  The main branch is driven by the roots of
the top-degree coefficient slice, the remainder is divisible by y**2 and
handled recursively through a bridge node, and the degree-3/degree-4
special constructions shave one node off after an affine change of
variables (which may push constant offsets into the edge forms of a
substituted subtree; the assembled pencil absorbs them in its A matrix).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pencils import Pencil, tree_pencil
from .polynomials import (
    DEGREE_TRIM_REL,
    AffineSubstitution,
    BivariatePolynomial,
    DegenerateInputError,
    LeadingCoefficientError,
    substitute_table,
    times_linear,
    univariate_roots,
)

# remainder rows that must vanish are accepted up to this fraction of the scale
REMAINDER_TOL = 1e-8
# remainder entries below this fraction of the parent scale are roundoff
REMAINDER_CLEAN = 1e-12
# a substitution target coefficient counts as killed below this fraction
VANISH_TOL = 1e-10


@dataclass(frozen=True)
class LinearForm:
    """a + b x + c y."""

    a: complex = 0.0
    b: complex = 0.0
    c: complex = 0.0

    def __call__(self, x: complex, y: complex) -> complex:
        return self.a + self.b * x + self.c * y

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0


@dataclass(frozen=True)
class SubstitutionStep:
    """One recorded change of variables (x, y) = map(x', y')."""

    kind: str
    map: AffineSubstitution
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RepresentationTree:
    """Rooted tree; node 0 is the root with polynomial 1.

    parents[i] < i for non-root nodes, so the assembled pencil is lower
    triangular below its first row.  Edge forms are homogeneous (a = 0)
    for trees built without substitutions; substituted subtrees carry
    constant offsets in their edges.
    """

    parents: tuple
    edges: tuple
    coeffs: tuple
    substitution_steps: tuple = ()

    def __post_init__(self):
        m = len(self.parents)
        if m == 0 or self.parents[0] is not None or self.edges[0] is not None:
            raise ValueError("node 0 must be the root (no parent, no edge)")
        if len(self.edges) != m or len(self.coeffs) != m:
            raise ValueError("parents, edges and coeffs must align")
        for i in range(1, m):
            if not 0 <= self.parents[i] < i:
                raise ValueError(f"node {i} needs a parent with smaller index")
            edge = self.edges[i]
            if edge.b == 0 and edge.c == 0:
                raise ValueError(f"edge into node {i} must involve x or y")

    def __len__(self):
        return len(self.parents)

    def _reconstruct_table(self, size: int) -> np.ndarray:
        # sum of coefficient form times node product; a node's degree is its
        # depth, at most len(self) - 1, so size len(self) + 1 holds every term
        def form_table(f):  # the product of the root's 1 with the form f
            table = np.zeros((size, size), dtype=complex)
            table[0, 0], table[1, 0], table[0, 1] = f.a, f.b, f.c
            return table

        nodes = [None]
        for i in range(1, len(self)):
            e, parent = self.edges[i], self.parents[i]
            nodes.append(times_linear(nodes[parent], e.a, e.b, e.c) if parent else form_table(e))
        total = form_table(self.coeffs[0])
        for f, table in zip(self.coeffs[1:], nodes[1:]):
            if not f.is_zero:
                total += times_linear(table, f.a, f.b, f.c)
        return total


def representation_tree_size(n: int) -> int:
    """Node count of the plain recursive construction for dense degree n."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    if n <= 3:
        return (1, 2, 4)[n - 1]
    return n + 1 + representation_tree_size(n - 3)


# -- pencil assembly ------------------------------------------------------------


def assemble_pencil_from_representation_tree(tree: RepresentationTree) -> Pencil:
    """det(A + xB + yC) equals the polynomial the tree represents."""
    edges = [(e.a, e.b, e.c) for e in tree.edges[1:]]
    first_row = np.array([(f.a, f.b, f.c) for f in tree.coeffs], dtype=complex).T
    return tree_pencil(tree.parents[1:], edges, first_row.reshape(3, -1, 1, 1))


# -- construction ----------------------------------------------------------------


def _top_slice(p: BivariatePolynomial) -> np.ndarray:
    """Coefficients of the univariate polynomial whose zeros steer the main
    branch: entry i multiplies t**i and equals the x^i y^(n-i) coefficient."""
    return p.coeffs[:, ::-1].diagonal().copy()


def _pick_rotation(p: BivariatePolynomial, norm: float) -> complex:
    """gamma making the x^n coefficient of p(x, y + gamma x) largest among a
    few small candidates."""
    top = _top_slice(p)
    # substituted x^n coefficient is sum_i top[n-i] gamma^i, i.e. polyval
    # of the low-first slice read as a high-first coefficient list
    best = max((1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 3.0, -3.0), key=lambda g: abs(np.polyval(top, g)))
    if abs(np.polyval(top, best)) <= DEGREE_TRIM_REL * norm:  # pragma: no cover
        raise DegenerateInputError("cannot make the leading x-coefficient nonzero")
    return best


def _rotate_leading_x(p: BivariatePolynomial, norm: float):
    """p (of coefficient norm `norm`) with a nonzero x^n coefficient, its
    norm, and the step that made it so (none if it was nonzero): the exact
    swap of x and y when the y^n coefficient is nonzero, else rotate_y."""
    n, tol = p.degree, DEGREE_TRIM_REL * norm
    if abs(p.coeffs[n, 0]) > tol:
        return p, norm, ()
    if abs(p.coeffs[0, n]) > tol:
        swap = AffineSubstitution(np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2))
        return BivariatePolynomial(p.coeffs.T), norm, (SubstitutionStep("swap", swap),)
    gamma = _pick_rotation(p, norm)
    rot = AffineSubstitution.shear_y(gamma, 0.0)
    work = p.substitute(rot)
    return work, work.coeff_norm(), (SubstitutionStep("rotate_y", rot, {"gamma": gamma}),)


def _undo_substitutions(parents, edges, coeffs, steps, own_steps=()) -> RepresentationTree:
    """The tree whose non-root edges and coefficient forms, (a, b, c)
    triples, were built in the variables after `steps`, in the ones before
    them; the triples have already undone the tree's `own_steps`.  The map
    back composes the steps' exact inverses."""
    back = steps[-1].map.inverse()
    for step in steps[-2::-1]:
        back = back.compose(step.map.inverse())
    (e00, e01), (e10, e11) = back.linear.tolist()
    t0, t1 = back.shift.tolist()
    forms = [LinearForm(a + b * t0 + c * t1, b * e00 + c * e10, b * e01 + c * e11)
             for a, b, c in edges + coeffs]
    return RepresentationTree(
        parents, (None, *forms[: len(edges)]), tuple(forms[len(edges):]), steps + own_steps
    )


def _simple_roots(roots: list[complex]) -> list[complex]:
    # a numerical m-fold root splits into a cluster of diameter about
    # eps**(1/m) (6e-6 for a triple root), so the separation threshold must
    # sit well above that; near-coincident roots would blow up the shift
    # parameter anyway and are better served by the fallback construction;
    # a root's separation is its second-smallest distance (the first is 0)
    return [r for r in roots
            if (sorted([abs(r - other) for other in roots]) + [np.inf])[1] > 1e-4 * (1.0 + abs(r))]


def _shear(p: BivariatePolynomial, along_y: bool, norm: float):
    """p (of coefficient norm `norm`) after x = x' + s y' + t killing its
    y'^n and y'^(n-1) coefficients, with the recorded step; along_y, after
    y = u x' + y' + v killing x'^n and x'^(n-1) (the same rule on the
    transposed table).  None when no simple root of the steering slice
    gives a usable shift.

    In the table c the y'^n coefficient is h(s) = sum_i c[i, n-i] s^i and
    the y'^(n-1) coefficient is exactly g(s) + t h'(s), with
    g(s) = sum_i c[i, n-1-i] s^i, so s is a root of h and t = -g(s)/h'(s).
    The blow-up of the substituted coefficients grows like
    max(1, |s|, |t|)**n, so the candidate minimizing that factor wins, the
    larger |h'(s)| breaking a tie; a near-real candidate within a factor
    two of the best keeps real inputs on real shifts.  Both keys are
    quantized, so conjugate candidates tie in floating point as in exact
    arithmetic, and `univariate_roots`' order puts Im s < 0 first.  One
    correction pass against the substituted table keeps the killed
    coefficient at the roundoff of a single substitution even when the
    shift amplifies the coefficient scale; it reads that one entry from a
    Horner run on row 0 (column 0 along y) of the table.
    """
    n = p.degree
    flipped = (p.coeffs.T if along_y else p.coeffs)[:, ::-1]
    norm = max(1.0, norm)
    # h and g lie on diagonals of the flipped table; along y the u^n entry
    # is the y^n coefficient a preceding shear_x killed
    h = flipped.diagonal().tolist()[: n if along_y else n + 1]
    g = flipped.diagonal(1).tolist()
    h_scale = max(max(map(abs, h)), DEGREE_TRIM_REL * norm)
    while len(h) > 1 and abs(h[-1]) <= DEGREE_TRIM_REL * h_scale:
        h.pop()
    if len(h) == 1:
        return None
    roots = _simple_roots(univariate_roots(h).tolist())
    # h' and g, high-first and padded to one length, evaluated at all roots
    # by one Horner run on the stacked rows (numpy's complex products round
    # unlike Python's, and the staircase downstream feels the last bit)
    dh = [0j] * (n + 1 - len(h)) + [i * h[i] for i in range(len(h) - 1, 0, -1)]
    rows, at = np.array([dh, g[::-1]]), np.array(roots, dtype=complex)
    values = rows[:, :1]  # Horner from the leading coefficients
    for k in range(1, n):
        values = values * at + rows[:, k, None]
    candidates = []
    for s, slope, offset in zip(roots, *values.tolist()):
        if abs(slope) > 1e-13 * norm:
            t = -offset / slope
        elif abs(offset) <= VANISH_TOL * norm:
            t = 0.0 + 0.0j
        else:
            continue
        if abs(t) <= 1e8 * norm:
            candidates.append((max(1.0, abs(s), abs(t)), s, t, slope))
    if not candidates:
        return None
    amp_q = 1e-12 * max(cand[0] for cand in candidates)  # univariate_roots' quanta
    slope_q = 1e-12 * max(max(abs(cand[3]) for cand in candidates), 1e-300)
    candidates.sort(key=lambda cand: (round(cand[0] / amp_q), round(-abs(cand[3]) / slope_q)))
    best_amp = candidates[0][0]
    _, s, t, slope = next(
        (cand for cand in candidates
         if abs(cand[1].imag) <= 1e-10 * (1.0 + abs(cand[1])) and cand[0] <= 2.0 * best_amp),
        candidates[0],
    )
    kind, names = ("shear_y", ("u", "v")) if along_y else ("shear_x", ("s", "t"))
    sub = getattr(AffineSubstitution, kind)(s, t)
    if abs(slope) > 1e-13 * norm:
        if along_y:
            entry = substitute_table(p.coeffs, sub, cols=1)[n - 1, 0]
        else:
            entry = substitute_table(p.coeffs, sub, rows=1)[0, n - 1]
        t = t - complex(entry) / slope
        sub.shift[1 if along_y else 0] = t  # the substitution's own fresh array
    return p.substitute(sub), SubstitutionStep(kind, sub, dict(zip(names, (s, t))))


def _main_branch_tree(
    p: BivariatePolynomial, allow_special: bool, norm: float
) -> RepresentationTree:
    """Plain recursive construction; the leading x-coefficient is nonzero,
    and norm is the coefficient norm of p."""
    n = p.degree
    c = p.coeffs
    if n == 1:
        return RepresentationTree((None,), (None,), (LinearForm(c[0, 0], c[1, 0], c[0, 1]),))

    zeros = univariate_roots(_top_slice(p))
    parents = [None, *range(n - 1)]
    edges: list = [None] + [LinearForm(0.0, 1.0, -zeros[k]) for k in range(n - 1)]

    # the x^(k-2) y coefficient of node k-1, prod_{i<k-1} (x - z_i y)
    beta = np.cumsum(-zeros)
    coeffs = [LinearForm(c[0, 0], c[1, 0], c[0, 1])]
    for k in range(2, n):
        coeffs.append(LinearForm(0.0, c[k, 0], c[k - 1, 1] - c[k, 0] * beta[k - 2]))
    coeffs.append(LinearForm(0.0, c[n, 0], -c[n, 0] * zeros[n - 1]))

    main = RepresentationTree(tuple(parents), tuple(edges), tuple(coeffs))
    remainder = c - main._reconstruct_table(n + 1)
    scale = max(norm, 1.0)
    low = np.abs(remainder[:, :2]).max()
    if low > REMAINDER_TOL * scale:  # pragma: no cover - algebraic identity
        raise DegenerateInputError("remainder unexpectedly involves y^0 or y^1 terms")
    # divided by y^2; roundoff leftovers must not masquerade as remainder
    # terms: judge against the scale of the parent polynomial, not of the
    # remainder
    table = remainder[: n - 1, 2:]
    table[np.abs(table) <= REMAINDER_CLEAN * scale] = 0.0
    s = BivariatePolynomial(table)

    if s.is_zero:
        return main

    bridge = len(parents)
    parents.append(0)
    edges.append(LinearForm(0.0, 0.0, 1.0))
    if s.degree == 0:
        coeffs.append(LinearForm(0.0, 0.0, s.coeffs[0, 0]))
        return RepresentationTree(tuple(parents), tuple(edges), tuple(coeffs))
    coeffs.append(LinearForm())

    # the subtree hangs from the bridge by a y-edge, its nodes after it
    sub = _build(s, allow_special)
    parents += [bridge, *(i + bridge + 1 for i in sub.parents[1:])]
    edges += [LinearForm(0.0, 0.0, 1.0), *sub.edges[1:]]
    coeffs += sub.coeffs
    return RepresentationTree(tuple(parents), tuple(edges), tuple(coeffs), sub.substitution_steps)


def _special_tree(p: BivariatePolynomial, norm: float):
    """Size-3 tree for a cubic after x = x' + s y' + t, or size-5 tree for a
    quartic after a second shear y = u x' + y' + v; None when a steering
    polynomial lacks a usable simple root.  norm is the coefficient norm
    of p."""
    n = p.degree
    work, work_norm, rotation = _rotate_leading_x(p, norm)
    sheared = _shear(work, False, work_norm)
    if sheared is None or sheared[0].degree != n:
        return None
    tilde, shear1 = sheared
    scale = max(work_norm, 1.0)
    c = tilde.coeffs.tolist()
    if max(abs(c[0][n]), abs(c[0][n - 1])) > VANISH_TOL * scale:
        return None

    if n == 3:
        try:
            z2, z3 = univariate_roots([c[1][2], c[2][1], c[3][0]]).tolist()
        except LeadingCoefficientError:
            return None
        return _undo_substitutions(
            (None, 0, 1), [(0.0, 1.0, 0.0), (0.0, 1.0, -z2)],
            [(c[0][0], c[1][0], c[0][1]), (0.0, c[2][0], c[1][1]), (0.0, c[3][0], -c[3][0] * z3)],
            rotation + (shear1,),
        )

    sheared = _shear(tilde, True, tilde.coeff_norm())
    if sheared is None or sheared[0].degree != 4:
        return None
    hat, shear2 = sheared
    c = hat.coeffs.tolist()
    if max(abs(c[j][k]) for j, k in ((3, 0), (4, 0), (0, 3), (0, 4))) > VANISH_TOL * scale:
        return None

    a31, a22, a13 = c[3][1], c[2][2], c[1][3]
    if abs(a31) > DEGREE_TRIM_REL * scale:
        try:
            z1, z2 = univariate_roots([a13, a22, a31]).tolist()
        except LeadingCoefficientError:
            return None
        top_edge, top_coeff = (0.0, 1.0, -z1), (0.0, a31, -a31 * z2)
    else:
        # quartic band reduces to x y^2 (a22 x + a13 y): climb with a y-edge
        top_edge, top_coeff = (0.0, 0.0, 1.0), (0.0, a22, a13)

    x_edge, y_edge = (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)
    return _undo_substitutions(
        (None, 0, 0, 1, 3), [x_edge, y_edge, y_edge, top_edge],
        [(c[0][0], c[1][0], c[0][1]), (0.0, c[2][0], c[1][1]), (0.0, 0.0, c[0][2]),
         (0.0, c[2][1], c[1][2]), top_coeff],
        rotation + (shear1, shear2),
    )


def _build(p: BivariatePolynomial, allow_special: bool) -> RepresentationTree:
    n = p.degree
    if n < 1 or p.is_zero:
        raise DegenerateInputError("need a nonzero polynomial of degree at least 1")
    norm = p.coeff_norm()
    if allow_special and n in (3, 4):
        special = _special_tree(p, norm)
        # a large shear can leave a special tree that no longer reproduces p;
        # the plain recursion below stays exact
        if special is not None:
            misfit = special._reconstruct_table(max(len(special), n) + 1)
            misfit[: n + 1, : n + 1] -= p.coeffs
            if np.abs(misfit).max() <= REMAINDER_TOL * max(norm, 1.0):
                return special
    work, _, rotation = _rotate_leading_x(p, norm)
    if rotation:
        # a cubic or quartic gets here only when its special tree, which
        # makes this same rotation, failed
        tree = _build(work, allow_special and n > 4)
        edges, coeffs = ([(f.a, f.b, f.c) for f in fs] for fs in (tree.edges[1:], tree.coeffs))
        return _undo_substitutions(tree.parents, edges, coeffs, rotation, tree.substitution_steps)
    return _main_branch_tree(p, allow_special, norm)


# -- public operation surface ------------------------------------------------------


def build_tree(p: BivariatePolynomial) -> RepresentationTree:
    """Smallest available representation tree: the recursive construction,
    with the size-3 cubic and size-5 quartic trees wherever a (sub)polynomial
    of that degree admits them."""
    return _build(p, allow_special=True)


def linearize(p: BivariatePolynomial) -> Pencil:
    """Pencil with det(A + xB + yC) = p(x, y) from `build_tree`."""
    return assemble_pencil_from_representation_tree(build_tree(p))
