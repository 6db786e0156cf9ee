"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the code paths of the package itself:
evaluation by naive high-precision summation, Kronecker products by index
loops, roots of a system by a Sylvester-resultant elimination, minimal
monomial trees by exhaustive subset enumeration, the polynomials of a
representation tree by products of {(j, k): c} term dictionaries.  Some
are earlier forms of package routines, kept to pin the rounding or the
choices of their faster replacements: the two-pass Horner substitution,
the companion eigenvalues from `np.linalg.eigvals`, the inverse of an
affine map from `np.linalg.inv`, the exact monomial-tree search over the
whole grid, and a cubic's size-3 representation tree from substituted
coefficient tables.
"""

from __future__ import annotations

import itertools

import mpmath
import numpy as np


def naive_eval(coeffs, x, y, dps=50):
    """Term-by-term summation in extended precision."""
    with mpmath.workdps(dps):
        acc = mpmath.mpc(0)
        xm = mpmath.mpc(x)
        ym = mpmath.mpc(y)
        n = coeffs.shape[0] - 1
        for j in range(n + 1):
            for k in range(n + 1 - j):
                c = complex(coeffs[j, k])
                if c != 0:
                    acc += mpmath.mpc(c) * xm**j * ym**k
        return complex(acc)


def scalar_horner(coeffs, x, y):
    """Nested Horner recurrences (y innermost) in Python complex arithmetic,
    one point at a time."""
    n = coeffs.shape[0] - 1
    acc = 0.0 + 0.0j
    for j in range(n, -1, -1):
        inner = 0.0 + 0.0j
        for k in range(n - j, -1, -1):
            inner = inner * y + coeffs[j, k]
        acc = acc * x + inner
    return complex(acc)


def _scalar_jacobian(pd, qd, x, y):
    (px, py), (qx, qy) = pd, qd
    return np.array(
        [[scalar_horner(f.coeffs, x, y) for f in row] for row in ((px, py), (qx, qy))],
        dtype=complex,
    )


def scalar_condition_and_accuracy(pd, qd, x, y, residual):
    """The reference accuracy rule, one root at a time: the spectral norm of
    the inverse Jacobian and the residual times it; both infinite when the
    Jacobian is singular (by Newton's test, smin <= 1e-14 * max(smax, 1)).
    pd and qd are the partial derivatives of p and q."""
    smax, smin = np.linalg.svd(_scalar_jacobian(pd, qd, x, y), compute_uv=False)
    if smin <= 1e-14 * max(smax, 1.0):
        return float("inf"), float("inf")
    condition = 1.0 / smin
    return condition, residual * condition


def scalar_newton(p, q, pd, qd, x0, y0, steps):
    """The reference Newton rules, one root at a time: a singular Jacobian
    stops with refined=False, a residual at machine scale stops, otherwise
    one 2x2 step."""
    scale = max(p.coeff_norm(), q.coeff_norm(), 1.0)
    x, y = complex(x0), complex(y0)
    refined = True
    for _ in range(steps):
        fx = np.array([scalar_horner(p.coeffs, x, y), scalar_horner(q.coeffs, x, y)])
        jac = _scalar_jacobian(pd, qd, x, y)
        sv = np.linalg.svd(jac, compute_uv=False)
        if sv[-1] <= 1e-14 * max(sv[0], 1.0):
            refined = False
            break
        if np.abs(fx).max() <= 1e2 * np.finfo(float).eps * scale:
            break
        delta = np.linalg.solve(jac, fx)
        x -= complex(delta[0])
        y -= complex(delta[1])
    return x, y, refined


def naive_kron(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    m, n = a.shape
    p, q = b.shape
    out = np.zeros((m * p, n * q), dtype=complex)
    for i in range(m):
        for j in range(n):
            for k in range(p):
                for l in range(q):
                    out[i * p + k, j * q + l] = a[i, j] * b[k, l]
    return out


def central_difference(f, x, y, h=1e-6):
    """Gradient of a scalar function of two complex variables."""
    dx = (f(x + h, y) - f(x - h, y)) / (2 * h)
    dy = (f(x, y + h) - f(x, y - h)) / (2 * h)
    return dx, dy


def smallest_singular_value_2x2(m):
    """sigma_min of a 2x2 matrix from the explicit singular value identity."""
    a = m.conj().T @ m
    tr = a[0, 0].real + a[1, 1].real
    det = abs(np.linalg.det(m)) ** 2
    disc = max(tr * tr / 4.0 - det, 0.0)
    lam_min = max(tr / 2.0 - np.sqrt(disc), 0.0)
    return float(np.sqrt(lam_min))


# -- resultant-based elimination solver ------------------------------------------


def _x_coefficients(coeffs, y):
    """Coefficients in x of p(x, y0), highest degree last."""
    n = coeffs.shape[0] - 1
    return np.array(
        [sum(coeffs[j, k] * y**k for k in range(n + 1 - j)) for j in range(n + 1)],
        dtype=complex,
    )


def _sylvester_det(pc, qc):
    dp = len(pc) - 1
    dq = len(qc) - 1
    size = dp + dq
    s = np.zeros((size, size), dtype=complex)
    for i in range(dq):
        s[i, i : i + dp + 1] = pc[::-1]
    for i in range(dp):
        s[dq + i, i : i + dq + 1] = qc[::-1]
    return complex(np.linalg.det(s))


def resultant_roots(p_coeffs, q_coeffs, radius=1.1, tol=1e-8):
    """All roots of the system by eliminating x through the Sylvester
    resultant in y; y-values are roots of an interpolated determinant
    polynomial, x-values come from p(., y) and are kept when q nearly
    vanishes too.  Iterated 2x2 Newton polishing makes the reference
    values accurate to machine precision."""
    np_ = p_coeffs.shape[0] - 1
    nq = q_coeffs.shape[0] - 1
    deg_bound = np_ * nq + 1

    samples = 2 * deg_bound + 8
    ys = radius * np.exp(2j * np.pi * np.arange(samples) / samples)
    vals = np.array(
        [_sylvester_det(_x_coefficients(p_coeffs, y), _x_coefficients(q_coeffs, y)) for y in ys]
    )
    vander = np.vander(ys, deg_bound + 1, increasing=True)
    res_coeffs, *_ = np.linalg.lstsq(vander, vals, rcond=None)
    trim = np.abs(res_coeffs)
    cutoff = 1e-10 * trim.max()
    top = max(i for i in range(len(res_coeffs)) if trim[i] > cutoff)
    y_candidates = np.roots(res_coeffs[: top + 1][::-1])

    def newton(x, y, iters=40):
        for _ in range(iters):
            f = np.array([_poly_eval(p_coeffs, x, y), _poly_eval(q_coeffs, x, y)])
            j = np.array(
                [
                    [_poly_eval_dx(p_coeffs, x, y), _poly_eval_dy(p_coeffs, x, y)],
                    [_poly_eval_dx(q_coeffs, x, y), _poly_eval_dy(q_coeffs, x, y)],
                ]
            )
            if np.linalg.cond(j) > 1e12:
                break
            step = np.linalg.solve(j, f)
            x, y = x - step[0], y - step[1]
            if np.abs(step).max() < 1e-15 * (1 + abs(x) + abs(y)):
                break
        return x, y

    scale = max(np.abs(p_coeffs).max(), np.abs(q_coeffs).max())
    found = []
    for y0 in y_candidates:
        xc = _x_coefficients(p_coeffs, y0)
        xc = xc[: max(i for i in range(len(xc)) if abs(xc[i]) > 1e-12 * np.abs(xc).max()) + 1]
        if len(xc) < 2:
            continue
        for x0 in np.roots(xc[::-1]):
            if abs(_poly_eval(q_coeffs, x0, y0)) > 1e-4 * scale:
                continue
            x1, y1 = newton(complex(x0), complex(y0))
            resid = max(abs(_poly_eval(p_coeffs, x1, y1)), abs(_poly_eval(q_coeffs, x1, y1)))
            if resid > tol * scale:
                continue
            if all(max(abs(x1 - a), abs(y1 - b)) > 1e-6 for a, b in found):
                found.append((x1, y1))
    return found


def _poly_eval(coeffs, x, y):
    n = coeffs.shape[0] - 1
    return sum(coeffs[j, k] * x**j * y**k for j in range(n + 1) for k in range(n + 1 - j))


def _poly_eval_dx(coeffs, x, y):
    n = coeffs.shape[0] - 1
    return sum(
        j * coeffs[j, k] * x ** (j - 1) * y**k
        for j in range(1, n + 1)
        for k in range(n + 1 - j)
    )


def _poly_eval_dy(coeffs, x, y):
    n = coeffs.shape[0] - 1
    return sum(
        k * coeffs[j, k] * x**j * y ** (k - 1)
        for j in range(n + 1)
        for k in range(1, n + 1 - j)
    )


# -- representation trees from term dictionaries -----------------------------------


def _times_form(terms, form):
    """The {(j, k): c} polynomial `terms` times a + b x + c y, term by term."""
    out = {}
    for (j, k), coeff in terms.items():
        for key, factor in (((j, k), form.a), ((j + 1, k), form.b), ((j, k + 1), form.c)):
            if factor != 0:
                out[key] = out.get(key, 0) + coeff * factor
    return out


def tree_node_products(tree):
    """Per node of a representation tree, the product of the edge forms on
    its path from the root, as a {(j, k): c} dictionary."""
    products = [{(0, 0): 1.0 + 0.0j}]
    for i in range(1, len(tree)):
        products.append(_times_form(products[tree.parents[i]], tree.edges[i]))
    return products


def tree_reconstruction(tree):
    """The polynomial a representation tree represents: the sum over its
    nodes of coefficient form times node product, as a {(j, k): c} dictionary."""
    total = {}
    for form, product in zip(tree.coeffs, tree_node_products(tree)):
        for key, coeff in _times_form(product, form).items():
            total[key] = total.get(key, 0) + coeff
    return total


# -- exhaustive minimal-tree search -----------------------------------------------


def min_covering_tree_size(terms, degree):
    """Minimum node count of a reachable monomial set covering every term,
    by brute-force subset enumeration (practical for degree <= 5)."""
    grid = [(j, k) for j in range(degree) for k in range(degree - j)]
    non_root = [nd for nd in grid if nd != (0, 0)]

    constraints = []
    for (j, k) in terms:
        if j + k < 2:
            continue
        opts = set()
        if j + k < degree:
            opts.add((j, k))
        if j > 0:
            opts.add((j - 1, k))
        if k > 0:
            opts.add((j, k - 1))
        constraints.append(opts)

    best = None
    for size in range(len(non_root) + 1):
        for combo in itertools.combinations(non_root, size):
            nodes = set(combo) | {(0, 0)}
            if not all(
                ((j - 1, k) in nodes or (j, k - 1) in nodes) for (j, k) in combo
            ):
                continue
            if all(opts & nodes for opts in constraints):
                best = size + 1
                break
        if best is not None:
            break
    return best


# -- earlier forms of package routines ---------------------------------------------


def _times_linear(table, a, b, c):
    out = a * table
    out[..., 1:, :] += b * table[..., :-1, :]
    out[..., :, 1:] += c * table[..., :, :-1]
    return out


def substitute_table_two_pass(c, sub, rows=None, cols=None):
    """Leading rows x cols block of the table of p(E (x', y') + t) by a
    Horner pass over y for all rows of c, then one over x, whatever the map
    leaves alone."""
    e, t = sub.linear, sub.shift
    n = c.shape[0] - 1
    part = np.zeros((n + 1, n + 1, n + 1), dtype=complex)[:, :rows, :cols]
    for k in range(n, -1, -1):
        part = _times_linear(part, t[1], e[1, 0], e[1, 1])
        part[:, 0, 0] += c[:, k]
    acc = np.zeros((n + 1, n + 1), dtype=complex)[:rows, :cols]
    for j in range(n, -1, -1):
        acc = _times_linear(acc, t[0], e[0, 0], e[0, 1]) + part[j]
    return acc


def companion_eigvals(coeffs):
    """Roots of c[0] + ... + c[m] t^m (m >= 2) as `np.linalg.eigvals` of
    the companion matrix of the monic normalization, in the package's
    order: ascending modulus, then real part, then imaginary part, the
    first two keys quantized at 1e-12 of the largest modulus."""
    c = np.asarray(coeffs, dtype=complex).ravel()
    monic = c / c[-1]
    m = c.size - 1
    companion = np.zeros((m, m), dtype=complex)
    companion[1:, :-1] = np.eye(m - 1)
    companion[:, -1] = -monic[:-1]
    roots = np.linalg.eigvals(companion)
    quantum = 1e-12 * max(np.abs(roots).max(), 1e-300)
    order = np.lexsort(
        (roots.imag, np.round(roots.real / quantum), np.round(np.abs(roots) / quantum))
    )
    return roots[order]


def affine_inverse(sub):
    """(E^-1, -E^-1 t) of the map (x, y) = E (x', y') + t by `np.linalg.inv`,
    which factors E with partial pivoting."""
    e_inv = np.linalg.inv(sub.linear)
    return e_inv, -e_inv @ sub.shift


def exact_min_node_set_full_grid(P):
    """The smallest covering monomial node set by screening every subset of
    the grid nodes with j + k <= n - 1, the root always in; the first
    subset of fewest nodes in the order of `_monomial_key` wins."""
    from detrep.monomial_tree import _constrained_terms, _monomial_key

    n = P.degree
    grid = sorted(((j, k) for j in range(n) for k in range(n - j)), key=_monomial_key)
    non_root = grid[1:]
    bit = {nd: 1 << i for i, nd in enumerate(non_root)}
    subsets = np.arange(1 << len(non_root), dtype=np.uint32)
    valid = np.ones(subsets.shape, dtype=bool)
    for j, k in non_root:
        if j + k == 1:
            continue  # always attachable to the root; no other node's parent is the root
        parent_mask = np.uint32(0)
        if j > 0:
            parent_mask |= np.uint32(bit[(j - 1, k)])
        if k > 0:
            parent_mask |= np.uint32(bit[(j, k - 1)])
        member = (subsets & np.uint32(bit[(j, k)])) != 0
        valid &= ~(member & ((subsets & parent_mask) == 0))
    for _, opts in _constrained_terms(P):
        mask = np.uint32(0)
        for opt in opts:
            mask |= np.uint32(bit[opt])
        valid &= (subsets & mask) != 0
    popcount = np.bitwise_count(subsets).astype(np.int64)
    popcount[~valid] = 1 << 30
    best = int(np.argmin(popcount))
    return {(0, 0)} | {nd for nd in non_root if best & bit[nd]}


def table_cubic_tree(p, exchange=False):
    """A cubic's size-3 representation tree by the substituted coefficient
    table: the shear by `BivariatePolynomial.substitute`, the quadratic
    factor's roots by a second `univariate_roots` call (in the other order
    when `exchange`), and the misfit guard from the reconstructed table.
    None where that route keeps no special tree."""
    from detrep import representation_tree as rt
    from detrep.polynomials import LeadingCoefficientError, univariate_roots

    norm = p.coeff_norm()
    work, work_norm, rotation = rt._rotate_leading_x(p, norm)
    sheared = rt._shear(work, False, work_norm)
    if sheared is None or sheared[0].degree != 3:
        return None
    tilde, shear = sheared
    c = tilde.coeffs.tolist()
    if max(abs(c[0][3]), abs(c[0][2])) > rt.VANISH_TOL * max(work_norm, 1.0):
        return None
    try:
        z2, z3 = univariate_roots([c[1][2], c[2][1], c[3][0]]).tolist()[:: -1 if exchange else 1]
    except LeadingCoefficientError:
        return None
    tree = rt._undo_substitutions(
        (None, 0, 1), [(0.0, 1.0, 0.0), (0.0, 1.0, -z2)],
        [(c[0][0], c[1][0], c[0][1]), (0.0, c[2][0], c[1][1]), (0.0, c[3][0], -c[3][0] * z3)],
        rotation + (shear,),
    )
    misfit = rt._tree_table(tree, 4)
    misfit[:4, :4] -= p.coeffs
    return tree if np.abs(misfit).max() <= rt.REMAINDER_TOL * max(norm, 1.0) else None
