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

    def compose(self, sub: AffineSubstitution) -> "LinearForm":
        """The form expressed in the new variables of the substitution."""
        e, t = sub.linear, sub.shift
        return LinearForm(
            self.a + self.b * t[0] + self.c * t[1],
            self.b * e[0, 0] + self.c * e[1, 0],
            self.b * e[0, 1] + self.c * e[1, 1],
        )


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
        nodes = [np.zeros((size, size), dtype=complex)]
        nodes[0][0, 0] = 1.0
        for i in range(1, len(self)):
            e = self.edges[i]
            nodes.append(times_linear(nodes[self.parents[i]], e.a, e.b, e.c))
        total = np.zeros((size, size), dtype=complex)
        for f, table in zip(self.coeffs, nodes):
            if not f.is_zero:
                total += times_linear(table, f.a, f.b, f.c)
        return total

    def composed_substitution(self) -> AffineSubstitution:
        total = AffineSubstitution.identity()
        for step in self.substitution_steps:
            total = total.compose(step.map)
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


def _coeff_at(p: BivariatePolynomial, j: int, k: int) -> complex:
    if j <= p.degree and k <= p.degree - j:
        return complex(p.coeffs[j, k])
    return 0.0 + 0.0j


def _top_slice(p: BivariatePolynomial) -> np.ndarray:
    """Coefficients of the univariate polynomial whose zeros steer the main
    branch: entry i multiplies t**i and equals the x^i y^(n-i) coefficient."""
    n = p.degree
    return np.array([p.coeffs[i, n - i] for i in range(n + 1)], dtype=complex)


def _pick_rotation(p: BivariatePolynomial) -> complex:
    """gamma making the x^n coefficient of p(x, y + gamma x) largest among a
    few small candidates."""
    top = _top_slice(p)
    # substituted x^n coefficient is sum_i top[n-i] gamma^i, i.e. polyval
    # of the low-first slice read as a high-first coefficient list
    best, best_val = None, -1.0
    for gamma in (1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 3.0, -3.0):
        val = abs(np.polyval(top, gamma))
        if val > best_val:
            best, best_val = gamma, val
    if best_val <= DEGREE_TRIM_REL * p.coeff_norm():  # pragma: no cover
        raise DegenerateInputError("cannot make the leading x-coefficient nonzero")
    return best


def _rotate_leading_x(p: BivariatePolynomial):
    """p with a nonzero x^n coefficient, plus the rotate_y step that made it
    so (an empty tuple when the coefficient is already nonzero)."""
    if abs(_coeff_at(p, p.degree, 0)) > DEGREE_TRIM_REL * p.coeff_norm():
        return p, ()
    gamma = _pick_rotation(p)
    rot = AffineSubstitution.shear_y(gamma, 0.0)
    return p.substitute(rot), (SubstitutionStep("rotate_y", rot, {"gamma": gamma}),)


def _undo_substitutions(tree: RepresentationTree, steps: tuple) -> RepresentationTree:
    """Tree built in the variables after `steps`, expressed in the ones
    before them; the steps go in front of the tree's own, which the tree
    has already undone."""
    total = AffineSubstitution.identity()
    for step in steps:
        total = total.compose(step.map)
    back = total.inverse()
    return RepresentationTree(
        tree.parents,
        tuple(None if e is None else e.compose(back) for e in tree.edges),
        tuple(f.compose(back) for f in tree.coeffs),
        steps + tree.substitution_steps,
    )


def _simple_roots(roots: np.ndarray) -> list[complex]:
    # a numerical m-fold root splits into a cluster of diameter about
    # eps**(1/m) (6e-6 for a triple root), so the separation threshold must
    # sit well above that; near-coincident roots would blow up the shift
    # parameter anyway and are better served by the fallback construction
    out = []
    for i, r in enumerate(roots):
        sep = min(
            (abs(r - other) for j, other in enumerate(roots) if j != i),
            default=np.inf,
        )
        if sep > 1e-4 * (1.0 + abs(r)):
            out.append(complex(r))
    return out


def _shear(p: BivariatePolynomial, along_y: bool):
    """p after x = x' + s y' + t killing its y'^n and y'^(n-1) coefficients,
    with the recorded step; along_y, after y = u x' + y' + v killing x'^n
    and x'^(n-1) (the same rule on the transposed table).  None when no
    simple root of the steering slice gives a usable shift.

    In the table c the y'^n coefficient is h(s) = sum_i c[i, n-i] s^i and
    the y'^(n-1) coefficient is exactly g(s) + t h'(s), with
    g(s) = sum_i c[i, n-1-i] s^i, so s is a root of h and t = -g(s)/h'(s).
    The blow-up of the substituted coefficients grows like
    max(1, |s|, |t|)**n, so the candidate minimizing that factor wins; a
    near-real candidate within a factor two of the best keeps real inputs
    on real shifts.  One correction pass against the substituted table
    keeps the killed coefficient at the roundoff of a single substitution
    even when the shift amplifies the coefficient scale; it reads that one
    entry from a Horner run on row 0 (column 0 along y) of the table, so
    the whole polynomial is substituted once.
    """
    n = p.degree
    c = p.coeffs.T if along_y else p.coeffs
    norm = max(1.0, p.coeff_norm())
    # along y the u^n entry is the y^n coefficient a preceding shear_x killed
    h = np.array([c[i, n - i] for i in range(n if along_y else n + 1)])
    h_scale = max(np.abs(h).max(), DEGREE_TRIM_REL * norm)
    while h.size > 1 and abs(h[-1]) <= DEGREE_TRIM_REL * h_scale:
        h = h[:-1]
    if h.size == 1:
        return None
    dh = np.polyder(h[::-1])
    g = np.array([c[i, n - 1 - i] for i in range(n)])[::-1]
    roots = _simple_roots(univariate_roots(h))
    # polyval at all roots at once rounds like one call per root
    at = np.array(roots, dtype=complex)
    slopes, offsets = np.polyval(dh, at).tolist(), np.polyval(g, at).tolist()
    candidates = []
    for s, slope, offset in zip(roots, slopes, offsets):
        if abs(slope) > 1e-13 * norm:
            t = -offset / slope
        elif abs(offset) <= VANISH_TOL * norm:
            t = 0.0 + 0.0j
        else:
            continue
        if abs(t) <= 1e8 * norm:
            rank = (max(1.0, abs(s), abs(t)), -abs(slope), s.real, s.imag)
            candidates.append((rank, s, t, slope))
    if not candidates:
        return None
    candidates.sort(key=lambda cand: cand[0])
    best_amp = candidates[0][0][0]
    _, s, t, slope = next(
        (cand for cand in candidates
         if abs(cand[1].imag) <= 1e-10 * (1.0 + abs(cand[1])) and cand[0][0] <= 2.0 * best_amp),
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


def _main_branch_tree(p: BivariatePolynomial, allow_special: bool) -> RepresentationTree:
    """Plain recursive construction; the leading x-coefficient is nonzero."""
    n = p.degree
    c = p.coeffs
    if n == 1:
        return RepresentationTree(
            (None,), (None,), (LinearForm(c[0, 0], c[1, 0], c[0, 1]),)
        )

    zeros = univariate_roots(_top_slice(p))
    parents = [None] + [i for i in range(n - 1)]
    edges: list = [None] + [LinearForm(0.0, 1.0, -zeros[k]) for k in range(n - 1)]

    # the x^(k-2) y coefficient of node k-1, prod_{i<k-1} (x - z_i y)
    beta = np.cumsum(-zeros)
    coeffs = [LinearForm(c[0, 0], c[1, 0], c[0, 1])]
    for k in range(2, n):
        coeffs.append(LinearForm(0.0, c[k, 0], c[k - 1, 1] - c[k, 0] * beta[k - 2]))
    coeffs.append(LinearForm(0.0, c[n, 0], -c[n, 0] * zeros[n - 1]))

    main = RepresentationTree(tuple(parents), tuple(edges), tuple(coeffs))
    remainder = c - main._reconstruct_table(n + 1)
    scale = max(p.coeff_norm(), 1.0)
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

    sub = _build(s, allow_special)
    offset = bridge + 1
    for i in range(len(sub)):
        if i == 0:
            parents.append(bridge)
            edges.append(LinearForm(0.0, 0.0, 1.0))
        else:
            parents.append(sub.parents[i] + offset)
            edges.append(sub.edges[i])
        coeffs.append(sub.coeffs[i])
    return RepresentationTree(
        tuple(parents), tuple(edges), tuple(coeffs), sub.substitution_steps
    )


def _special_tree(p: BivariatePolynomial):
    """Size-3 tree for a cubic after x = x' + s y' + t, or size-5 tree for a
    quartic after a second shear y = u x' + y' + v; None when a steering
    polynomial lacks a usable simple root."""
    n = p.degree
    work, rotation = _rotate_leading_x(p)
    sheared = _shear(work, along_y=False)
    if sheared is None:
        return None
    tilde, shear1 = sheared

    scale = max(work.coeff_norm(), 1.0)
    killed = max(abs(_coeff_at(tilde, 0, n)), abs(_coeff_at(tilde, 0, n - 1)))
    if tilde.degree != n or killed > VANISH_TOL * scale:
        return None

    if n == 3:
        quad = [_coeff_at(tilde, 1, 2), _coeff_at(tilde, 2, 1), _coeff_at(tilde, 3, 0)]
        try:
            z2, z3 = univariate_roots(quad)
        except LeadingCoefficientError:
            return None
        c = tilde.coeffs
        tree = RepresentationTree(
            (None, 0, 1),
            (None, LinearForm(0.0, 1.0, 0.0), LinearForm(0.0, 1.0, -z2)),
            (
                LinearForm(c[0, 0], c[1, 0], c[0, 1]),
                LinearForm(0.0, c[2, 0], c[1, 1]),
                LinearForm(0.0, c[3, 0], -c[3, 0] * z3),
            ),
        )
        return _undo_substitutions(tree, rotation + (shear1,))

    sheared = _shear(tilde, along_y=True)
    if sheared is None:
        return None
    hat, shear2 = sheared
    killed = max(abs(_coeff_at(hat, j, k)) for j, k in ((3, 0), (4, 0), (0, 3), (0, 4)))
    if hat.degree != 4 or killed > VANISH_TOL * scale:
        return None

    a31 = _coeff_at(hat, 3, 1)
    a22 = _coeff_at(hat, 2, 2)
    a13 = _coeff_at(hat, 1, 3)
    if abs(a31) > DEGREE_TRIM_REL * scale:
        try:
            z1, z2 = univariate_roots([a13, a22, a31])
        except LeadingCoefficientError:
            return None
        top_edge = LinearForm(0.0, 1.0, -z1)
        top_coeff = LinearForm(0.0, a31, -a31 * z2)
    else:
        # quartic band reduces to x y^2 (a22 x + a13 y): climb with a y-edge
        top_edge = LinearForm(0.0, 0.0, 1.0)
        top_coeff = LinearForm(0.0, a22, a13)

    c = hat.coeffs
    tree = RepresentationTree(
        (None, 0, 0, 1, 3),
        (
            None,
            LinearForm(0.0, 1.0, 0.0),
            LinearForm(0.0, 0.0, 1.0),
            LinearForm(0.0, 0.0, 1.0),
            top_edge,
        ),
        (
            LinearForm(c[0, 0], c[1, 0], c[0, 1]),
            LinearForm(0.0, c[2, 0], c[1, 1]),
            LinearForm(0.0, 0.0, c[0, 2]),
            LinearForm(0.0, c[2, 1], c[1, 2]),
            top_coeff,
        ),
    )
    return _undo_substitutions(tree, rotation + (shear1, shear2))


def _build(p: BivariatePolynomial, allow_special: bool) -> RepresentationTree:
    n = p.degree
    if n < 1 or p.is_zero:
        raise DegenerateInputError("need a nonzero polynomial of degree at least 1")
    if allow_special and n in (3, 4):
        special = _special_tree(p)
        # a large shear can leave a special tree that no longer reproduces p;
        # the plain recursion below stays exact
        if special is not None:
            misfit = special._reconstruct_table(max(len(special), n) + 1)
            misfit[: n + 1, : n + 1] -= p.coeffs
            if np.abs(misfit).max() <= REMAINDER_TOL * max(p.coeff_norm(), 1.0):
                return special
    work, rotation = _rotate_leading_x(p)
    if rotation:
        # a cubic or quartic gets here only when its special tree, which
        # makes this same rotation, failed
        return _undo_substitutions(_build(work, allow_special and n > 4), rotation)
    return _main_branch_tree(p, allow_special)


# -- public operation surface ------------------------------------------------------


def build_tree(p: BivariatePolynomial) -> RepresentationTree:
    """Smallest available representation tree: the recursive construction,
    with the size-3 cubic and size-5 quartic trees wherever a (sub)polynomial
    of that degree admits them."""
    return _build(p, allow_special=True)


def linearize(p: BivariatePolynomial) -> Pencil:
    """Pencil with det(A + xB + yC) = p(x, y) from `build_tree`."""
    return assemble_pencil_from_representation_tree(build_tree(p))
