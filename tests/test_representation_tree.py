import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detrep import (
    AffineSubstitution,
    BivariatePolynomial,
    DegenerateInputError,
    LinearForm,
    RepresentationTree,
    assemble_pencil_from_representation_tree,
    build_tree,
    linearize,
    representation_tree_size,
    solve_system,
    univariate_roots,
)
from detrep import polynomials, representation_tree
from detrep.representation_tree import _build

from oracles import table_cubic_tree, tree_node_products, tree_reconstruction
from test_polynomials import CUBIC, random_polynomial


def check_determinant(pencil, poly, rng, points=20, tol=1e-9):
    for _ in range(points):
        x = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        y = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        want = poly(x, y)
        assert abs(pencil.determinant(x, y) - want) <= tol * abs(want)


def plain_tree(p):
    """The recursive construction without the cubic/quartic trees."""
    return _build(p, allow_special=False)


def special_pencil(p):
    """Pencil and composed substitution of the tree `build_tree` picks."""
    tree = build_tree(p)
    total = AffineSubstitution(np.eye(2), np.zeros(2))
    for step in tree.substitution_steps:
        total = total.compose(step.map)
    return assemble_pencil_from_representation_tree(tree), total


def node_polynomials(tree: RepresentationTree) -> list[BivariatePolynomial]:
    return [BivariatePolynomial.from_terms(terms) for terms in tree_node_products(tree)]


def reconstruct(tree: RepresentationTree) -> BivariatePolynomial:
    return BivariatePolynomial.from_terms(tree_reconstruction(tree))


def identity_defect(tree: RepresentationTree, p: BivariatePolynomial) -> float:
    diff = reconstruct(tree) - p
    return diff.coeff_norm() / p.coeff_norm()


class TestTreeSize:
    def test_reference_values(self):
        assert representation_tree_size(8) == 17
        assert representation_tree_size(1) == 1
        assert representation_tree_size(11) == 29  # 11 + 1 + size(8)

    def test_first_eight(self):
        assert [representation_tree_size(n) for n in range(1, 9)] == [1, 2, 4, 6, 8, 11, 14, 17]

    @pytest.mark.parametrize("n", range(4, 20))
    def test_recurrence(self, n):
        assert representation_tree_size(n) == n + 1 + representation_tree_size(n - 3)


class TestBuildTree:
    def test_running_cubic_nodes_and_coefficients(self):
        tree = plain_tree(CUBIC)
        assert len(tree) == 4
        q = node_polynomials(tree)
        # q2 = x + (0.0079857 + 1.1259i) y
        assert q[1].coeffs[1, 0] == pytest.approx(1.0)
        assert q[1].coeffs[0, 1] == pytest.approx(0.0079857 + 1.1259j, abs=2e-4)
        # q3 = x^2 + 0.015971 xy + 1.2677 y^2
        assert q[2].coeffs[2, 0] == pytest.approx(1.0)
        assert q[2].coeffs[1, 1] == pytest.approx(0.015971, abs=2e-5)
        assert q[2].coeffs[0, 2] == pytest.approx(1.2677, abs=2e-4)
        # q4 = y (the bridge node)
        assert q[3].coeffs[0, 1] == pytest.approx(1.0)
        f1, f2, f3, f4 = tree.coeffs
        assert (f1.a, f1.b, f1.c) == (1.0, 2.0, 3.0)
        assert f3.b == pytest.approx(7.0)
        assert f3.c == pytest.approx(7.8882, abs=2e-4)
        # remainder coefficient magnitude is pinned; its conjugation is not
        assert abs(f4.c) == pytest.approx(abs(0.88972 + 5.5576j), rel=2e-4)
        assert abs(f2.c) == pytest.approx(abs(4.9681 + 4.5036j), rel=2e-4)
        assert identity_defect(tree, CUBIC) < 1e-12

    def test_power_sum_uses_main_branch_only(self):
        for n in (5, 9, 10):
            p = BivariatePolynomial.from_terms({(n, 0): 1, (0, n): 1, (0, 0): -1})
            tree = plain_tree(p)
            assert len(tree) == n
            pencil = assemble_pencil_from_representation_tree(tree)
            rng = np.random.default_rng(n)
            check_determinant(pencil, p, rng)

    def test_degree_two(self):
        rng = np.random.default_rng(50)
        p = random_polynomial(rng, 2)
        assert len(plain_tree(p)) == 2

    @pytest.mark.parametrize("n", range(1, 11))
    def test_sizes_and_identity(self, n):
        rng = np.random.default_rng(60 + n)
        p = random_polynomial(rng, n, complex_coeffs=(n % 3 == 0))
        tree = plain_tree(p)
        assert len(tree) == representation_tree_size(n)
        assert identity_defect(tree, p) < 1e-10

    def test_main_branch_edges_are_root_quotients(self):
        rng = np.random.default_rng(61)
        p = random_polynomial(rng, 6)
        tree = plain_tree(p)
        zeros = univariate_roots([p.coeffs[i, 6 - i] for i in range(7)])
        for k in range(1, 6):
            edge = tree.edges[k]
            assert edge.a == 0 and edge.b == 1.0
            assert edge.c == pytest.approx(-zeros[k - 1], rel=1e-12)

    def test_homogeneous_levels_without_substitutions(self):
        rng = np.random.default_rng(62)
        p = random_polynomial(rng, 7)
        tree = plain_tree(p)
        assert tree.substitution_steps == ()
        depth = [0] * len(tree)
        for i in range(1, len(tree)):
            depth[i] = depth[tree.parents[i]] + 1
        for i, q in enumerate(node_polynomials(tree)):
            degrees = {j + k for j, k, _ in q.terms()}
            assert degrees == {depth[i]}

    def test_zero_polynomial_rejected(self):
        with pytest.raises(DegenerateInputError):
            plain_tree(BivariatePolynomial.zero())

    def test_rotation_path_when_leading_x_term_missing(self):
        """Without x^n the tree is built on p(y, x) if it has y^n, else
        after a rotation."""
        rng = np.random.default_rng(63)
        for terms, kind in (
            ({(4, 1): 1, (0, 5): 2, (2, 2): 1, (0, 0): 1, (1, 0): 1}, "swap"),
            ({(4, 1): 1, (1, 4): 2, (2, 2): 1, (0, 0): 1, (1, 0): 1}, "rotate_y"),
        ):
            p = BivariatePolynomial.from_terms(terms)
            tree = plain_tree(p)
            assert [step.kind for step in tree.substitution_steps] == [kind]
            check_determinant(assemble_pencil_from_representation_tree(tree), p, rng)


class TestAssemble:
    def test_printed_four_by_four(self):
        """Tree whose assembled matrix reproduces the published 4x4 layout
        with rows [f1 f2 f3 f4; -(x-y) 1 0 0; 0 -(x+3y) 1 0; -(2x-y) 0 0 1]."""
        tree = RepresentationTree(
            (None, 0, 1, 0),
            (None, LinearForm(0, 1, -1), LinearForm(0, 1, 3), LinearForm(0, 2, -1)),
            (
                LinearForm(1, 3, 2),
                LinearForm(1, 2, 0),
                LinearForm(0, 1, 3),
                LinearForm(0, 2, -1),
            ),
        )
        pencil = assemble_pencil_from_representation_tree(tree)
        A, B, C = pencil.A.real, pencil.B.real, pencil.C.real
        assert np.array_equal(A, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        assert np.array_equal(B, [[3, 2, 1, 2], [-1, 0, 0, 0], [0, -1, 0, 0], [-2, 0, 0, 0]])
        assert np.array_equal(C, [[2, 0, 3, -1], [1, 0, 0, 0], [0, -3, 0, 0], [1, 0, 0, 0]])
        # the matrix is a determinantal representation of what it rebuilds
        p = reconstruct(tree)
        rng = np.random.default_rng(64)
        check_determinant(pencil, p, rng)

    def test_tree_with_unit_edges_rebuilds_stated_sum(self):
        """Same node layout with the edge q3 = (x+y) q2 reproduces
        1 + 4x + y + 6x^2 - 6xy + y^2 + x^3 + 3x^2y - xy^2 - 3y^3."""
        tree = RepresentationTree(
            (None, 0, 1, 0),
            (None, LinearForm(0, 1, -1), LinearForm(0, 1, 1), LinearForm(0, 2, -1)),
            (
                LinearForm(1, 3, 2),
                LinearForm(1, 2, 0),
                LinearForm(0, 1, 3),
                LinearForm(0, 2, -1),
            ),
        )
        want = BivariatePolynomial.from_terms(
            {(0, 0): 1, (1, 0): 4, (0, 1): 1, (2, 0): 6, (1, 1): -6, (0, 2): 1,
             (3, 0): 1, (2, 1): 3, (1, 2): -1, (0, 3): -3}
        )
        assert (reconstruct(tree) - want).coeff_norm() < 1e-14

    def test_single_node_constant(self):
        tree = RepresentationTree((None,), (None,), (LinearForm(2.5, 0, 0),))
        pencil = assemble_pencil_from_representation_tree(tree)
        assert pencil.dim == 1 and pencil.A[0, 0] == 2.5

    def test_random_degree_five(self):
        rng = np.random.default_rng(65)
        p = random_polynomial(rng, 5, complex_coeffs=True)
        pencil = assemble_pencil_from_representation_tree(plain_tree(p))
        check_determinant(pencil, p, rng)


class TestCubicSpecialCase:
    def test_running_cubic_reference(self):
        pencil, sub = special_pencil(CUBIC)
        assert pencil.size == 3
        # substitution x = x' + s y' + t with the real steering root
        assert sub.linear[0, 1] == pytest.approx(-1.1269, abs=2e-4)
        assert sub.shift[0] == pytest.approx(-0.30873, abs=2e-5)
        # printed matrices (columns of C tied to the conjugation-ambiguous
        # branch root are exercised through the determinant instead)
        assert np.abs(pencil.A - np.array(
            [[1.0307, -0.76665, 2.1611], [-0.30873, 1, 0], [0, -0.30873, 1]]
        )).max() < 2e-4
        assert np.abs(pencil.B - np.array(
            [[1.5317, -2.4833, 7], [-1, 0, 0], [0, -1, 0]]
        )).max() < 2e-4
        assert pencil.C[0, 0] == pytest.approx(2.2189, abs=2e-4)
        assert pencil.C[0, 1] == pytest.approx(2.8587, abs=2e-4)
        assert pencil.C[1, 0] == pytest.approx(-1.1269, abs=2e-4)
        rng = np.random.default_rng(66)
        check_determinant(pencil, CUBIC, rng)

    def test_symmetric_cubic_picks_real_root(self):
        p = BivariatePolynomial.from_terms({(3, 0): 1, (0, 3): 1, (0, 0): 1})
        pencil, sub = special_pencil(p)
        assert pencil.size == 3
        assert sub.linear[0, 1] == pytest.approx(-1.0, abs=1e-10)
        rng = np.random.default_rng(67)
        check_determinant(pencil, p, rng)

    def test_triple_root_falls_back(self):
        p = BivariatePolynomial.from_terms(
            {(3, 0): 1, (2, 1): -3, (1, 2): 3, (0, 3): -1,
             (0, 0): 0.5, (1, 0): 0.3, (0, 1): -0.2, (2, 0): 1.1, (1, 1): 0.4, (0, 2): 0.9}
        )
        pencil, sub = special_pencil(p)
        assert pencil.size == 4
        assert np.array_equal(sub.linear, np.eye(2)) and np.array_equal(sub.shift, np.zeros(2))
        rng = np.random.default_rng(68)
        check_determinant(pencil, p, rng)


class TestQuarticSpecialCase:
    def test_reduced_polynomial_identity(self):
        """With the x^3, x^4, y^3, y^4 coefficients absent, five nodes
        rebuild the polynomial exactly."""
        rng = np.random.default_rng(69)
        terms = {}
        for j in range(5):
            for k in range(5 - j):
                if (j, k) in ((3, 0), (4, 0), (0, 3), (0, 4)):
                    continue
                terms[(j, k)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        p = BivariatePolynomial.from_terms(terms)
        pencil, sub = special_pencil(p)
        assert pencil.size == 5
        check_determinant(pencil, p, rng)

    def test_random_dense_quartic(self):
        rng = np.random.default_rng(70)
        for trial in range(10):
            p = random_polynomial(rng, 4, complex_coeffs=(trial % 2 == 1))
            pencil, _ = special_pencil(p)
            assert pencil.size == 5
            check_determinant(pencil, p, rng)

    def test_missing_leading_coefficient_rotates(self):
        """Without x^4 the quartic tree is built after a swap, or after a
        rotation when y^4 is missing too."""
        rng = np.random.default_rng(71)
        for top, kind in (((0, 4), "swap"), ((1, 3), "rotate_y")):
            p = BivariatePolynomial.from_terms({top: 1, (3, 1): 1, (1, 1): 0.5, (0, 0): 1, (1, 0): 2})
            assert build_tree(p).substitution_steps[0].kind == kind
            pencil, sub = special_pencil(p)
            assert pencil.size == 5
            assert not (np.array_equal(sub.linear, np.eye(2)) and np.array_equal(sub.shift, np.zeros(2)))
            check_determinant(pencil, p, rng)

    def test_double_double_steering_roots_fall_back(self):
        # quartic band (x^2 + y^2)^2 has only double steering roots
        p = BivariatePolynomial.from_terms(
            {(4, 0): 1, (2, 2): 2, (0, 4): 1, (0, 0): 1, (1, 0): 1, (0, 1): 0.7, (2, 0): 0.3}
        )
        pencil, _ = special_pencil(p)
        rng = np.random.default_rng(72)
        check_determinant(pencil, p, rng)


    def test_special_tree_that_misses_the_polynomial_is_not_used(self):
        # the x^4 term vanishes; after the rotation the second shear has
        # |v| ~ 3e4 and the size-5 tree misses p by 2e4 times its scale
        p = BivariatePolynomial.from_terms({
            (0, 0): 0.4, (1, 0): -0.7, (0, 1): -0.8, (1, 1): 0.6, (0, 2): 0.7,
            (2, 1): 0.7, (1, 2): 0.5, (0, 3): 0.8, (1, 3): 0.4, (0, 4): 0.6,
        })
        tree = build_tree(p)
        assert identity_defect(tree, p) <= 1e-8
        assert len(tree) == len(plain_tree(p))
        check_determinant(assemble_pencil_from_representation_tree(tree), p, np.random.default_rng(73))


@st.composite
def sparse_low_degree_polynomials(draw):
    """Cubics and quartics with a top-degree term and a few more terms; the
    x^n term is often absent, so the shears follow a rotation."""
    n = draw(st.integers(3, 4))
    top = draw(st.integers(0, n - 1))
    others = draw(st.lists(
        st.tuples(st.integers(0, n), st.integers(0, n)).filter(lambda t: sum(t) <= n),
        min_size=1, max_size=8,
    ))
    coeff = st.floats(0.1, 1.0).flatmap(lambda c: st.sampled_from([c, -c]))
    terms = {term: draw(coeff) for term in [(top, n - top)] + others}
    return BivariatePolynomial.from_terms(terms)


@settings(max_examples=80, deadline=None)
@given(sparse_low_degree_polynomials())
def test_build_tree_reproduces_sparse_cubics_and_quartics(p):
    tree = build_tree(p)
    assert (reconstruct(tree) - p).coeff_norm() <= 1e-8 * max(p.coeff_norm(), 1.0)


def test_dense_cubic_tree_builds_few_polynomial_objects(monkeypatch):
    """A cubic's shear and its misfit guard work on Python scalars, so a
    dense cubic's tree builds no polynomial object (it built one, the
    substituted cubic, and up to 8 before that)."""
    built = []
    init = BivariatePolynomial.__init__

    def counting_init(self, coeffs):
        built.append(1)
        init(self, coeffs)

    p = random_polynomial(np.random.default_rng(95), 3)
    monkeypatch.setattr(BivariatePolynomial, "__init__", counting_init)
    tree = build_tree(p)
    monkeypatch.undo()
    assert len(tree) == 3
    assert built == []


@pytest.mark.parametrize("n,shears", [(3, 1), (4, 2)])
def test_dense_tree_substitutes_once_per_shear(monkeypatch, n, shears):
    """The shear's correction reads its one entry from a windowed Horner
    run, so each quartic shear substitutes the whole polynomial once; the
    cubic's shear substitutes nothing, its coefficients being closed-form."""
    calls = []
    substitute = BivariatePolynomial.substitute

    def counting_substitute(self, sub):
        calls.append(1)
        return substitute(self, sub)

    p = random_polynomial(np.random.default_rng(95), n)
    monkeypatch.setattr(BivariatePolynomial, "substitute", counting_substitute)
    tree = build_tree(p)
    monkeypatch.undo()
    assert [step.kind for step in tree.substitution_steps] == ["shear_x", "shear_y"][:shears]
    assert len(calls) == (shears if n == 4 else 0)


def test_real_cubic_picks_the_conjugate_shear_below_the_axis():
    """A real cubic's shear candidates come in conjugate pairs that tie in
    exact arithmetic; the choice must not follow the last bits.  Every
    non-real shear has Im s < 0, also after any coefficient moves by one
    ulp."""
    rng = np.random.default_rng(118)
    non_real = 0
    for _ in range(120):
        c = random_polynomial(rng, 3).coeffs.real
        moved = []
        for j, k in ((0, 0), (1, 2), (0, 3), (3, 0)):
            d = c.copy()
            d[j, k] = np.nextafter(d[j, k], np.inf)
            moved.append(d)
        shears = [build_tree(BivariatePolynomial(t)).substitution_steps[0].params["s"]
                  for t in [c] + moved]
        if abs(shears[0].imag) > 1e-10 * (1.0 + abs(shears[0])):
            non_real += 1
            assert all(s.imag < -1e-10 * (1.0 + abs(s)) for s in shears)
    assert non_real >= 20


@pytest.mark.parametrize("n,products", [(3, 3), (4, 22)])
def test_dense_tree_call_budget(monkeypatch, n, products):
    """A shear runs Horner products only over the variable it moves, each
    Horner run starts from its leading coefficient, invertibility needs no
    determinant routine, and the map back is inverted in closed form.  A
    dense cubic's sheared coefficients are closed-form, so its 3 table
    products are the misfit guard's, which writes the forms of the root
    and of its children without a product (9 with the substituted table,
    21 with a two-pass substitution and 4 `np.linalg.det` calls).  A
    dense quartic makes 22, 16 in its two shears (49 and 6 before)."""
    calls = {"times_linear": 0, "det": 0, "inv": 0}
    times_linear, det, inv = polynomials.times_linear, np.linalg.det, np.linalg.inv

    def counting(name, func):
        def counted(*args):
            calls[name] += 1
            return func(*args)
        return counted

    p = random_polynomial(np.random.default_rng(95), n)
    for module in (polynomials, representation_tree):
        monkeypatch.setattr(module, "times_linear", counting("times_linear", times_linear))
    monkeypatch.setattr(np.linalg, "det", counting("det", det))
    monkeypatch.setattr(np.linalg, "inv", counting("inv", inv))
    tree = build_tree(p)
    monkeypatch.undo()
    assert len(tree) == representation_tree_size(n) - 1
    assert calls == {"times_linear": products, "det": 0, "inv": 0}


def _dense_table(rows):
    table = np.zeros((len(rows), len(rows)))
    for j, row in enumerate(rows):
        table[j, : len(row)] = row
    return table


def test_cubic_shear_with_too_much_amplification_takes_the_plain_tree():
    """`cubic-auto` seed 43 system 10292: p's best shear has t = -519.4, so
    eps * |t|^3 = 3.1e-8 exceeds REMAINDER_TOL.  The closed form's tree
    would still miss p by about 2e-8 of its scale, and a more accurate
    rounding of it passed the misfit guard once and left the N = 9 block
    with 3 candidates; the amplification rule takes the plain tree before
    any tree is built, and the system keeps its 9 roots."""
    p = BivariatePolynomial(_dense_table([
        [0.9351448684744118, 0.7748872787200872, 0.7513095117223972, 0.2102198283191109],
        [0.5743277103528933, 0.5955115111631282, 0.6079899792873183],
        [0.7839923001837767, 0.5875723088255607], [0.18977873453849559]]))
    q = BivariatePolynomial(_dense_table([
        [0.8166678817739774, 0.24727847582577822, 0.27034493943014826, 0.5583422154489857],
        [0.25526255435289136, 0.7593323247928582, 0.7228437482008768],
        [0.4419162910783233, 0.8123017185087179], [0.7580712000341661]]))
    assert representation_tree._special_tree(p, p.coeff_norm()) is None
    assert len(build_tree(p)) == 4 and len(build_tree(q)) == 3
    roots = solve_system(p, q)
    assert sum(r.multiplicity for r in roots) == 9


def test_cubic_with_a_double_pair_in_its_quadratic_factor_takes_their_mean():
    """The top form (x - y)(x + 2y)^2 gives h the simple root 1 and the
    double pair -2, -2, which the eigensolve splits by about sqrt(eps):
    the size-3 tree takes their mean, known to about eps, as the double
    root z2 = z3 = -3 of its quadratic factor (x' + 3y')^2."""
    p = BivariatePolynomial(_dense_table([
        [0.3, -0.7, 0.2, -4.0], [0.5, 0.9, 0.0], [-0.6, 3.0], [1.0]]))
    work, work_norm, _ = representation_tree._rotate_leading_x(p, p.coeff_norm())
    s, _, _, others = representation_tree._shear_parameters(work.coeffs, False, work_norm)
    assert abs(s - 1.0) < 1e-12 and 0 < abs(others[0] - others[1]) < 1e-6
    tree = build_tree(p)
    assert len(tree) == 3
    # c30 = 1: the edge into node 2 and node 2's form both read x - (s + z) y
    assert tree.edges[2].c == tree.coeffs[2].c
    assert abs(tree.edges[2].c + 1.0 - 3.0) < 1e-14
    assert (reconstruct(tree) - p).coeff_norm() <= 1e-14


@st.composite
def cubics(draw):
    """Dense or sparse cubics, real or complex; without x^3 the tree is built
    after the swap, or after the rotation when y^3 is missing too."""
    value = st.floats(-1.0, 1.0).filter(lambda v: abs(v) >= 0.05)
    imaginary = draw(st.booleans())
    table = np.zeros((4, 4), dtype=complex)
    for j in range(4):
        for k in range(4 - j):
            if draw(st.integers(0, 3)):
                table[j, k] = complex(draw(value), draw(value) if imaginary else 0.0)
    table[1, 2] = table[1, 2] or 0.5
    for corner in draw(st.sampled_from([(), ((3, 0),), ((3, 0), (0, 3))])):
        table[corner] = 0.0
    return BivariatePolynomial(table)


@settings(max_examples=150, deadline=None)
@given(cubics())
def test_closed_form_cubic_tree_matches_the_table_route(p):
    """The closed-form tree reproduces p within the misfit guard, and where
    both it and the substituted-table route keep a special tree (one with
    a shear; a plain tree can have 3 nodes too) their pencils agree to
    1e-12 of the pencil's scale, wherever the quadratic factor's roots z2
    and z3 pass the shear's simple-root test: a double pair is split by
    about sqrt(eps) on the table route and is their mean in the closed
    form.  A near-tie of z2 and z3 in `univariate_roots`' order may come out
    either way on the two routes; the other order is the tree the table
    route builds with them exchanged."""
    tree = build_tree(p)
    scale = max(p.coeff_norm(), 1.0)
    assert (reconstruct(tree) - p).coeff_norm() <= representation_tree.REMAINDER_TOL * scale
    if "shear_x" not in [step.kind for step in tree.substitution_steps]:
        return
    work, work_norm, _ = representation_tree._rotate_leading_x(p, p.coeff_norm())
    shear = representation_tree._shear_parameters(work.coeffs, False, work_norm)
    if len(representation_tree._simple_roots(shear[3])) < 2:
        return
    pencil = assemble_pencil_from_representation_tree(tree)
    got = np.stack([pencil.A, pencil.B, pencil.C])
    errors = []
    for exchange in (False, True):
        ref = table_cubic_tree(p, exchange)
        if ref is None:
            return
        ref_pencil = assemble_pencil_from_representation_tree(ref)
        want = np.stack([ref_pencil.A, ref_pencil.B, ref_pencil.C])
        errors.append(np.abs(got - want).max() / np.abs(want).max())
    assert min(errors) <= 1e-12


class TestLinearize:
    @pytest.mark.parametrize(
        "n,size",
        [(1, 1), (2, 2), (3, 3), (4, 5), (5, 8), (6, 10), (7, 13), (8, 17), (9, 20), (10, 24)],
    )
    def test_dispatch_sizes(self, n, size):
        rng = np.random.default_rng(80 + n)
        p = random_polynomial(rng, n)
        assert linearize(p).size == size

    def test_special_cases_can_be_disabled(self):
        rng = np.random.default_rng(90)
        p = random_polynomial(rng, 6)
        assert len(plain_tree(p)) == 11

    @pytest.mark.parametrize("n", range(1, 11))
    def test_determinant_identity(self, n):
        rng = np.random.default_rng(91 + n)
        for trial in range(3):
            p = random_polynomial(rng, n, complex_coeffs=(trial == 2))
            check_determinant(linearize(p), p, rng, points=10)

    def test_spliced_subtree_records_substitutions(self):
        rng = np.random.default_rng(92)
        p = random_polynomial(rng, 6)
        tree = build_tree(p)
        kinds = [s.kind for s in tree.substitution_steps]
        assert "shear_x" in kinds  # the inner cubic special case fired
        assert len(tree) == 10
        assert identity_defect(tree, p) < 1e-10

    @pytest.mark.parametrize("n,kinds", [
        (6, ["swap", "shear_x"]),
        (7, ["swap", "shear_x", "shear_y"]),
        (6, ["rotate_y", "shear_x"]),
        (7, ["rotate_y", "shear_x", "shear_y"]),
    ])
    def test_rotated_tree_with_a_sheared_subtree(self, n, kinds):
        """Without an x^n term the whole tree is built after a swap (or,
        without y^n too, a rotation), and its cubic or quartic remainder
        after its own shears.  Undoing the swap or rotation must not undo
        those shears a second time."""
        rng = np.random.default_rng(93 + n)
        for trial in range(3):
            c = random_polynomial(rng, n, complex_coeffs=(trial == 2)).coeffs.copy()
            c[n, 0] = 0.0
            if kinds[0] == "rotate_y":
                c[0, n] = 0.0
            p = BivariatePolynomial(c)
            tree = build_tree(p)
            assert [s.kind for s in tree.substitution_steps] == kinds
            assert identity_defect(tree, p) < 1e-9
            pencil = assemble_pencil_from_representation_tree(tree)
            check_determinant(pencil, p, rng, points=10, tol=1e-7)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2**32 - 1), st.booleans())
def test_tree_without_leading_x_is_the_transposed_tree(n, seed, complex_coeffs):
    """Without x^n but with y^n, the tree is the tree of p(y, x) with b and
    c exchanged in every form, so it is exact to the dense tree's rounding:
    the plain construction reproduces p to 1e-13 of its scale."""
    c = random_polynomial(np.random.default_rng(seed), n, complex_coeffs).coeffs.copy()
    c[n, 0] = 0.0
    p = BivariatePolynomial(c)
    tree, ref = build_tree(p), build_tree(BivariatePolynomial(c.T))
    assert [s.kind for s in tree.substitution_steps] == [
        "swap", *(s.kind for s in ref.substitution_steps)
    ]
    assert tree.parents == ref.parents
    for got, want in zip(tree.edges[1:] + tree.coeffs, ref.edges[1:] + ref.coeffs):
        assert (got.a, got.b, got.c) == (want.a, want.c, want.b)
    assert identity_defect(plain_tree(p), p) <= 1e-13
