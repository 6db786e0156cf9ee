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
from typing import NamedTuple

import numpy as np

from .pencils import Pencil, tree_pencil
from .polynomials import (
    DEGREE_TRIM_REL,
    AffineSubstitution,
    BivariatePolynomial,
    DegenerateInputError,
    LeadingCoefficientError,
    sort_roots,
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


class LinearForm(NamedTuple):
    """a + b x + c y."""

    a: complex = 0.0
    b: complex = 0.0
    c: complex = 0.0

    def __call__(self, x: complex, y: complex) -> complex:
        return self.a + self.b * x + self.c * y


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
    first_row = np.array(tree.coeffs, dtype=complex).T
    return tree_pencil(tree.parents[1:], tree.edges[1:], first_row.reshape(3, -1, 1, 1))


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


def _root_pair(roots: list[complex], shift: complex = 0.0) -> list[complex]:
    """Two roots less `shift`, in `univariate_roots`' order.  A pair that
    `_simple_roots` calls double is a double root, which an eigensolve
    splits by about sqrt(eps); its mean is known to eps and is taken twice."""
    if len(_simple_roots(roots)) == 2:
        return sort_roots([r - shift for r in roots])
    return [(roots[0] + roots[1]) / 2 - shift] * 2


def _shear_parameters(c: np.ndarray, along_y: bool, norm: float):
    """(s, t, h'(s), the other roots of h) of the shear x = x' + s y' + t
    that kills the y'^n and y'^(n-1) coefficients of the table c (of
    coefficient norm `norm`); along_y, (u, v, ...) of y = u x' + y' + v
    killing x'^n and x'^(n-1) (the same rule on the transposed table).
    None when no simple root of the steering slice gives a usable shift.

    In the table c the y'^n coefficient is h(s) = sum_i c[i, n-i] s^i and
    the y'^(n-1) coefficient is exactly g(s) + t h'(s), with
    g(s) = sum_i c[i, n-1-i] s^i, so s is a root of h and t = -g(s)/h'(s).
    The blow-up of the substituted coefficients grows like
    max(1, |s|, |t|)**n, so the candidate minimizing that factor wins, the
    larger |h'(s)| breaking a tie; a near-real candidate within a factor
    two of the best keeps real inputs on real shifts.  Both keys are
    quantized, so conjugate candidates tie in floating point as in exact
    arithmetic, and `univariate_roots`' order puts Im s < 0 first.  The
    substituted coefficients carry roundoff of eps times that factor, so a
    choice with more than REMAINDER_TOL of it is not taken.
    """
    n = c.shape[0] - 1
    flipped = (c.T if along_y else c)[:, ::-1]
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
    all_roots = univariate_roots(h).tolist()
    roots = _simple_roots(all_roots)
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
    amp, s, t, slope = next(
        (cand for cand in candidates
         if abs(cand[1].imag) <= 1e-10 * (1.0 + abs(cand[1])) and cand[0] <= 2.0 * best_amp),
        candidates[0],
    )
    if np.finfo(float).eps * amp**n > REMAINDER_TOL:
        return None
    all_roots.remove(s)
    return s, t, slope, all_roots


def _shear(p: BivariatePolynomial, along_y: bool, norm: float):
    """p after the shear of `_shear_parameters`, with the recorded step, or
    None.  One correction pass against the substituted table keeps the
    killed coefficient at the roundoff of a single substitution even when
    the shift amplifies the coefficient scale; it reads that one entry from
    a Horner run on row 0 (column 0 along y) of the table."""
    n, shear = p.degree, _shear_parameters(p.coeffs, along_y, norm)
    if shear is None:
        return None
    s, t, slope, _ = shear
    kind, names = ("shear_y", ("u", "v")) if along_y else ("shear_x", ("s", "t"))
    sub = getattr(AffineSubstitution, kind)(s, t)
    if abs(slope) > 1e-13 * max(1.0, norm):
        if along_y:
            entry = substitute_table(p.coeffs, sub, cols=1)[n - 1, 0]
        else:
            entry = substitute_table(p.coeffs, sub, rows=1)[0, n - 1]
        t = t - complex(entry) / slope
        sub.shift[1 if along_y else 0] = t  # the substitution's own fresh array
    return p.substitute(sub), SubstitutionStep(kind, sub, dict(zip(names, (s, t))))


def _tree_table(tree: RepresentationTree, size: int) -> np.ndarray:
    """The tree's polynomial as a coefficient table of the given size: the
    sum of each nonzero coefficient form times its node's product of edge
    forms.  The root's 1 times a form is written without a table product."""
    def times(table, form):
        if table is not None:
            return times_linear(table, *form)
        table = np.zeros((size, size), dtype=complex)
        table[0, 0], table[1, 0], table[0, 1] = form
        return table

    nodes = [None]
    for parent, edge in zip(tree.parents[1:], tree.edges[1:]):
        nodes.append(times(nodes[parent], edge))
    forms = zip(nodes, tree.coeffs)
    return sum(times(node, form) for node, form in forms if node is None or any(form))


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
    remainder = c - _tree_table(main, n + 1)
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


def _special_tree(p: BivariatePolynomial, norm: float, rotated=None):
    """Size-3 tree for a cubic after x = x' + s y' + t, or size-5 tree for a
    quartic after a second shear y = u x' + y' + v; None when a steering
    polynomial lacks a usable simple root.  norm is the coefficient norm
    of p, and rotated is `_rotate_leading_x(p, norm)` when the caller has it."""
    n = p.degree
    work, work_norm, rotation = rotated or _rotate_leading_x(p, norm)
    if n == 3:
        # closed form: x = x' + s y' + t takes column k's polynomial P_k to
        # sum_i d_ik (x' + s y')^i, d_ik = P_k^(i)(t) / i!; the top form
        # c30 (x - s y)(x - s2 y)(x - s3 y) leaves c30 (x' - z2 y')(x' - z3 y'),
        # z = s2 - s, s3 - s for the other roots of h
        shear = _shear_parameters(work.coeffs, False, work_norm)
        if shear is None or len(shear[3]) != 2:  # h lost its top entry to the trim
            return None
        s, t, slope, others = shear
        (c00, c01, c02, c03), (c10, c11, c12, _), (c20, c21, _, _), (c30, *_) = work.coeffs.tolist()
        if abs(slope) > 1e-13 * max(1.0, work_norm):  # `_shear`'s correction pass
            t -= (c02 + s * (c11 + s * c20) + t * (c12 + s * (2 * c21 + 3 * s * c30))) / slope
        d00, d10 = c00 + t * (c10 + t * (c20 + t * c30)), c10 + t * (2 * c20 + 3 * t * c30)
        d20, d01 = c20 + 3 * t * c30, c01 + t * (c11 + t * c21)
        d11, d02 = c11 + 2 * t * c21, c02 + t * c12
        killed = d02 + s * (d11 + s * d20), c03 + s * (c12 + s * (c21 + s * c30))
        if max(map(abs, killed)) > VANISH_TOL * max(work_norm, 1.0):
            return None
        z2, z3 = _root_pair(others, s)
        step = SubstitutionStep("shear_x", AffineSubstitution.shear_x(s, t), {"s": s, "t": t})
        return _undo_substitutions(
            (None, 0, 1), [(0.0, 1.0, 0.0), (0.0, 1.0, -z2)],
            [(d00, d10, d01 + s * d10), (0.0, d20, d11 + 2 * s * d20), (0.0, c30, -c30 * z3)],
            rotation + (step,),
        )
    sheared = _shear(work, False, work_norm)
    if sheared is None or sheared[0].degree != n:
        return None
    tilde, shear1 = sheared
    scale = max(work_norm, 1.0)
    c = tilde.coeffs.tolist()
    if max(abs(c[0][n]), abs(c[0][n - 1])) > VANISH_TOL * scale:
        return None

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
            z1, z2 = _root_pair(univariate_roots([a13, a22, a31]).tolist())
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
    rotated = _rotate_leading_x(p, norm)
    if allow_special and n in (3, 4):
        special = _special_tree(p, norm, rotated)
        # a large shear can leave a special tree that no longer reproduces p;
        # the plain recursion below stays exact
        if special is not None:
            misfit = _tree_table(special, max(len(special), n) + 1)
            misfit[: n + 1, : n + 1] -= p.coeffs
            if np.abs(misfit).max() <= REMAINDER_TOL * max(norm, 1.0):
                return special
    work, _, rotation = rotated
    if rotation:
        tree = _build(work, allow_special and n > 4)
        return _undo_substitutions(tree.parents, tree.edges[1:], tree.coeffs, rotation,
                                   tree.substitution_steps)
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
