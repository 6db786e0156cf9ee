import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from detrep import (
    AffineSubstitution,
    BivariatePolynomial,
    LeadingCoefficientError,
    MatrixBivariatePolynomial,
    partial_derivatives,
    univariate_roots,
)
from detrep import _lapack, serialize
from detrep.polynomials import DEGREE_TRIM_REL, _trim_table, substitute_table

from oracles import (
    affine_inverse,
    central_difference,
    companion_eigvals,
    naive_eval,
    substitute_table_two_pass,
)

# the running cubic used throughout the suite
CUBIC = BivariatePolynomial.from_terms(
    {(0, 0): 1, (1, 0): 2, (0, 1): 3, (2, 0): 4, (1, 1): 5, (0, 2): 6,
     (3, 0): 7, (2, 1): 8, (1, 2): 9, (0, 3): 10}
)


def random_polynomial(rng, n, complex_coeffs=False):
    table = np.zeros((n + 1, n + 1), dtype=complex)
    for j in range(n + 1):
        for k in range(n + 1 - j):
            table[j, k] = rng.uniform(0, 1)
            if complex_coeffs:
                table[j, k] += 1j * rng.uniform(0, 1)
    return BivariatePolynomial(table)


class TestEvaluate:
    def test_constant_term(self):
        assert CUBIC(0.0, 0.0) == 1.0

    def test_pure_x_sum(self):
        assert CUBIC(1.0, 0.0) == 14.0

    def test_against_extended_precision_summation(self):
        # frozen from the naive high-precision oracle (value is exactly 1.5)
        assert CUBIC(0.5, -0.5) == pytest.approx(1.5, abs=1e-14)
        assert naive_eval(CUBIC.coeffs, 0.5, -0.5) == pytest.approx(1.5, abs=1e-14)

    def test_random_points_match_oracle(self):
        rng = np.random.default_rng(10)
        p = random_polynomial(rng, 7, complex_coeffs=True)
        for _ in range(10):
            x = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            y = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            want = naive_eval(p.coeffs, x, y)
            assert p(x, y) == pytest.approx(want, rel=1e-13)

    def test_linearity_in_coefficients(self):
        rng = np.random.default_rng(11)
        p = random_polynomial(rng, 5, True)
        q = random_polynomial(rng, 5, True)
        for _ in range(20):
            x = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            y = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            lhs = (p + q)(x, y)
            rhs = p(x, y) + q(x, y)
            assert lhs == pytest.approx(rhs, rel=1e-13)


class TestEvaluateMatrix:
    def test_identity_constant(self):
        P = MatrixBivariatePolynomial.from_blocks({(0, 0): np.eye(3)}, 3)
        assert np.allclose(P(0.7, -0.3), np.eye(3))

    def test_degree_one(self):
        p00 = np.array([[1.0, 2.0], [3.0, 4.0]])
        p10 = np.array([[0.0, 1.0], [1.0, 0.0]])
        P = MatrixBivariatePolynomial.from_blocks({(0, 0): p00, (1, 0): p10}, 2)
        assert np.allclose(P(2.0, 0.0), p00 + 2 * p10)

    def test_entrywise_expansion_oracle(self):
        rng = np.random.default_rng(12)
        blocks = {}
        for j in range(4):
            for k in range(4 - j):
                blocks[(j, k)] = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
        P = MatrixBivariatePolynomial.from_blocks(blocks, 3)
        x = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        y = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        direct = P(x, y)
        entrywise = np.array(
            [[BivariatePolynomial(P.coeffs[:, :, r, c])(x, y) for c in range(3)] for r in range(3)]
        )
        assert np.abs(direct - entrywise).max() <= 1e-12 * np.abs(direct).max()


class TestUnivariateRoots:
    def test_cubic_reference_values(self):
        roots = univariate_roots([10, 9, 8, 7])
        expected = [-0.0079857 - 1.1259j, -0.0079857 + 1.1259j, -1.1269 + 0j]
        for got, want in zip(roots, expected):
            assert got == pytest.approx(want, abs=2e-4)

    def test_tie_break_orders_by_real_part(self):
        roots = univariate_roots([-1, 0, 1])  # t^2 - 1
        assert roots == pytest.approx([-1.0, 1.0])
        assert set(np.round(roots, 12)) == {-1.0, 1.0}

    def test_residuals_random_degree_six(self):
        rng = np.random.default_rng(13)
        c = rng.uniform(-1, 1, 7) + 1j * rng.uniform(-1, 1, 7)
        roots = univariate_roots(c)
        norm = np.abs(c).max()
        for r in roots:
            assert abs(np.polyval(c[::-1], r)) <= 1e-10 * norm

    @pytest.mark.parametrize("degree", [2, 5, 8, 12])
    def test_product_formula(self, degree):
        rng = np.random.default_rng(100 + degree)
        c = rng.uniform(-1, 1, degree + 1) + 1j * rng.uniform(-1, 1, degree + 1)
        roots = univariate_roots(c)
        rebuilt = np.array([c[-1]], dtype=complex)
        for r in roots:
            rebuilt = np.convolve(rebuilt, np.array([1.0, -r]))
        rebuilt = rebuilt[::-1]  # back to low-first
        assert np.abs(rebuilt - c).max() <= 1e-9 * np.abs(c).max()

    def test_vanishing_leading_coefficient_raises(self):
        with pytest.raises(LeadingCoefficientError):
            univariate_roots([1.0, 2.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan), -np.inf])
    @pytest.mark.parametrize("degree,position", [(m, i) for m in (1, 2, 3) for i in range(m + 1)])
    def test_non_finite_coefficients_raise_one_error(self, degree, position, bad):
        """Finiteness is tested first, at every degree: a nan never comes
        back as a root, and an inf is not mistaken for a vanishing leading
        coefficient."""
        c = [1.0] * (degree + 1)
        c[position] = bad
        with pytest.raises(np.linalg.LinAlgError, match="coefficients must be finite"):
            univariate_roots(c)

    def test_sorted_by_modulus(self):
        roots = univariate_roots([6, -5, -2, 1])  # (t-1)(t+2)(t-3)
        assert np.all(np.diff(np.abs(roots)) >= -1e-12)

    @pytest.mark.parametrize("degree", range(2, 9))
    def test_bitwise_the_sorted_numpy_eigenvalues(self, degree):
        """The roots are `np.linalg.eigvals`'s byte for byte: both run
        numpy's own zgeev kernel on the same companion matrix, so the
        equality holds by construction on any build."""
        rng = np.random.default_rng(400 + degree)
        for trial in range(40):
            c = rng.uniform(-1, 1, degree + 1) + 1j * rng.uniform(-1, 1, degree + 1)
            if trial % 2:  # wide-range coefficients
                c *= 10.0 ** rng.uniform(-6, 6, degree + 1)
                c[-1] = max(abs(c[-1]), 1e-6 * np.abs(c).max())
            if trial % 4 == 3:
                c = c.real.astype(complex)
            assert univariate_roots(c).tobytes() == companion_eigvals(c).tobytes()

    def test_unconverged_eigensolve_raises(self, monkeypatch):
        """numpy's zgeev kernel reports a failure as nan eigenvalues with
        the invalid flag raised; `_lapack.eigvals` turns it into an error."""
        class FailingKernel:
            @staticmethod
            def eigvals(a, signature):
                return np.sqrt(np.full(len(a), -1.0)).astype(complex)

        monkeypatch.setattr(_lapack, "_umath_linalg", FailingKernel)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            univariate_roots([6, -5, -2, 1])


class TestApplySubstitution:
    def test_identity(self):
        out = CUBIC.substitute(AffineSubstitution(np.eye(2), np.zeros(2)))
        assert np.allclose(out.coeffs, CUBIC.coeffs)

    def test_cubic_shift_reference_coefficients(self):
        # x = x' + s y' + t with s a real zero of 7s^3+8s^2+9s+10 and t
        # chosen so the y'^2 coefficient vanishes
        s = univariate_roots([10, 9, 8, 7])[-1]
        assert s == pytest.approx(-1.1269, abs=2e-4)
        t = -(4 * s * s + 5 * s + 6) / (21 * s * s + 16 * s + 9)
        assert t == pytest.approx(-0.30873, abs=2e-5)
        out = CUBIC.substitute(AffineSubstitution.shear_x(s, t))
        expected = {
            (0, 0): 0.55782, (1, 0): 1.5317, (0, 1): 0.49276,
            (2, 0): -2.4833, (1, 1): 5.6571,
            (3, 0): 7.0, (2, 1): -15.665, (1, 2): 17.637,
        }
        for (j, k), val in expected.items():
            assert out.coeffs[j, k].real == pytest.approx(val, rel=2e-4)
            assert abs(out.coeffs[j, k].imag) < 1e-12
        # the shift kills the pure-y cubic and quadratic terms
        assert abs(out.coeffs[0, 3]) <= 1e-10 * out.coeff_norm()
        assert abs(out.coeffs[0, 2]) <= 1e-10 * out.coeff_norm()

    def test_round_trip_through_inverse(self):
        rng = np.random.default_rng(14)
        p = random_polynomial(rng, 6, True)
        sub = AffineSubstitution(
            rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2)),
            rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2),
        )
        back = p.substitute(sub).substitute(sub.inverse())
        assert np.abs(back._padded(p.degree + 1) - p.coeffs).max() <= 1e-12 * p.coeff_norm()

    def test_evaluation_homomorphism(self):
        rng = np.random.default_rng(15)
        p = random_polynomial(rng, 5, True)
        sub = AffineSubstitution(
            rng.uniform(-1, 1, (2, 2)), rng.uniform(-1, 1, 2)
        )
        out = p.substitute(sub)
        for _ in range(20):
            u = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            v = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            x, y = sub.linear @ (u, v) + sub.shift
            assert out(u, v) == pytest.approx(p(x, y), rel=1e-11)

    def test_degree_preserved(self):
        rng = np.random.default_rng(16)
        p = random_polynomial(rng, 4)
        out = p.substitute(AffineSubstitution.shear_x(0.7, -0.3))
        assert out.degree == 4

    def test_singular_map_rejected(self):
        with pytest.raises(ValueError):
            AffineSubstitution([[1.0, 2.0], [2.0, 4.0]], [0.0, 0.0])

    @pytest.mark.parametrize(
        "linear,shift",
        [([[np.nan, 0.0], [0.0, 1.0]], [0.0, 0.0]), (np.eye(2), [np.inf, 0.0])],
    )
    def test_non_finite_map_rejected(self, linear, shift):
        with pytest.raises(ValueError, match="substitution must be finite"):
            AffineSubstitution(linear, shift)


class TestPartialDerivatives:
    def test_constant(self):
        c = BivariatePolynomial([[3.0]])
        dx, dy = partial_derivatives(c)
        assert dx.is_zero and dy.is_zero

    def test_cubic_monomial(self):
        p = BivariatePolynomial.from_terms({(3, 0): 1.0})
        dx, _ = partial_derivatives(p)
        assert dx.degree == 2
        assert dx.coeffs[2, 0] == 3.0

    def test_finite_differences(self):
        rng = np.random.default_rng(17)
        p = random_polynomial(rng, 6)
        dx, dy = partial_derivatives(p)
        for _ in range(5):
            x, y = rng.uniform(-1, 1), rng.uniform(-1, 1)
            fx, fy = central_difference(p, x, y)
            assert dx(x, y) == pytest.approx(fx, rel=1e-5)
            assert dy(x, y) == pytest.approx(fy, rel=1e-5)


class TestTableHygiene:
    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            BivariatePolynomial([[np.nan, 0.0], [0.0, 0.0]])

    def test_tiny_top_band_trimmed(self):
        table = np.zeros((4, 4))
        table[0, 0] = 1.0
        table[1, 0] = 0.5
        table[3, 0] = 1e-16
        p = BivariatePolynomial(table)
        assert p.degree == 1

    def test_zero_polynomial(self):
        p = BivariatePolynomial.zero()
        assert p.is_zero and p.degree == 0

    def test_from_rows_shape_checked(self):
        """A polynomial read from triangular rows: row j of a degree-n table
        holds the n + 1 - j coefficients of x^j y^k."""
        with pytest.raises(ValueError, match="row 1 must have 1 entries"):
            serialize.polynomial_from_json({"degree": 1, "coeffs": [[1.0, 2.0], [3.0, 4.0]]})


# -- properties of the coefficient-table arithmetic ----------------------------

unit = st.floats(-1.0, 1.0)
complex_unit = st.builds(complex, unit, unit)


@st.composite
def complex_polynomials(draw, min_degree=1, max_degree=10):
    n = draw(st.integers(min_degree, max_degree))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_polynomial(np.random.default_rng(seed), n, complex_coeffs=True)


@st.composite
def invertible_substitutions(draw):
    e = np.array([[draw(complex_unit) for _ in range(2)] for _ in range(2)])
    assume(abs(np.linalg.det(e)) > 1e-3)
    return AffineSubstitution(e, np.array([draw(complex_unit), draw(complex_unit)]))


def magnitude(p, x, y):
    """sum |c_jk| |x|^j |y|^k, the scale of the rounding in p(x, y)."""
    return sum(abs(c) * abs(x) ** j * abs(y) ** k for j, k, c in p.terms())


@settings(max_examples=60, deadline=None)
@given(complex_polynomials(), invertible_substitutions(), complex_unit, complex_unit)
def test_substitute_matches_pointwise_evaluation(p, sub, u, v):
    out = p.substitute(sub)
    x, y = sub.linear @ (u, v) + sub.shift
    scale = max(magnitude(p, x, y), magnitude(out, u, v))
    assert abs(out(u, v) - p(x, y)) <= 1e-10 * scale


@settings(max_examples=60, deadline=None)
@given(complex_polynomials(), invertible_substitutions())
def test_substituted_table_is_zero_outside_the_triangle(p, sub):
    out = p.substitute(sub)
    n = out.degree
    assert out.coeffs.shape == (n + 1, n + 1)
    band = np.add.outer(np.arange(n + 1), np.arange(n + 1))
    assert np.all(out.coeffs[band > n] == 0)


wide = st.floats(-10.0, 10.0)

# the affine steps of a representation tree, with |parameter| <= 1e3
parameter = st.builds(complex, st.floats(-707.0, 707.0), st.floats(-707.0, 707.0))
affine_steps = st.one_of(
    st.builds(AffineSubstitution.shear_x, parameter, parameter),
    st.builds(AffineSubstitution.shear_y, parameter, parameter),
    st.builds(lambda gamma: AffineSubstitution.shear_y(gamma, 0.0), parameter),
)


def affine_error_bound(sub) -> float:
    """Entrywise error bound, fixed from eps and the map's size, for the
    inverse of a product of unit-determinant steps: the determinant (1 in
    exact arithmetic) carries an error of a few eps * scale**2 relative,
    which reaches the linear part (entries up to scale) and, through it,
    the shift (entries up to scale**2); both inverses carry it."""
    scale = max(1.0, np.abs(sub.linear).max(), np.abs(sub.shift).max())
    return 64 * np.finfo(float).eps * scale**4


@settings(max_examples=300, deadline=None)
@given(st.lists(affine_steps, min_size=1, max_size=3))
# |u| < 1 < |Re u| + |Im u|: zgetrf swaps rows, so np.linalg.inv is not exact
@example([AffineSubstitution.shear_y(0.875 + 0.25j, 0.0)])
def test_closed_form_inverse_against_np_linalg_inv(steps):
    """`AffineSubstitution.inverse` is the adjugate times the reciprocal
    determinant.  A single step is the exact inverse: the step with its
    parameters negated, and the value of `np.linalg.inv` wherever that
    factors without a row swap: every shear_x, and a shear_y with
    |Re u| + |Im u| <= 1, as LAPACK's pivot search (izamax) measures
    complex entries by that sum, not by the modulus.
    A product agrees with the reference, and the inverse undoes the map,
    within `affine_error_bound`."""
    total = steps[0]
    for step in steps[1:]:
        total = total.compose(step)
    inv = total.inverse()
    ref_linear, ref_shift = affine_inverse(total)
    if len(steps) == 1:
        e, t = total.linear, total.shift
        assert np.array_equal(inv.linear, [[1.0, -e[0, 1]], [-e[1, 0], 1.0]])
        assert np.array_equal(inv.shift, -t)
        if abs(e[1, 0].real) + abs(e[1, 0].imag) <= 1.0:
            assert np.array_equal(inv.linear, ref_linear)
            assert np.array_equal(inv.shift, ref_shift)
    bound = affine_error_bound(total)
    assert np.abs(inv.linear - ref_linear).max() <= bound
    assert np.abs(inv.shift - ref_shift).max() <= bound
    round_trip = inv.compose(total)
    assert np.abs(round_trip.linear - np.eye(2)).max() <= bound
    assert np.abs(round_trip.shift).max() <= bound


@settings(max_examples=200, deadline=None)
@given(
    complex_polynomials(min_degree=2, max_degree=6),
    st.builds(complex, wide, wide),
    st.builds(complex, wide, wide),
    st.booleans(),
)
def test_shear_window_rounds_like_the_full_substitution(p, s, t, along_y):
    """The shear's correction entry, (0, n-1) after shear_x and (n-1, 0)
    after shear_y, from a Horner run on row 0 (column 0) alone is bitwise
    the entry of the full substitution, and so is the whole window."""
    n = p.degree
    if along_y:
        sub = AffineSubstitution.shear_y(s, t)
        window, (j, k) = substitute_table(p.coeffs, sub, cols=1), (n - 1, 0)
    else:
        sub = AffineSubstitution.shear_x(s, t)
        window, (j, k) = substitute_table(p.coeffs, sub, rows=1), (0, n - 1)
    full = p.substitute(sub)
    assert full.degree == n
    assert window[j, k] == full.coeffs[j, k]
    rows, cols = window.shape
    assert np.array_equal(window, substitute_table(p.coeffs, sub)[:rows, :cols])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 6),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.sampled_from(["shear_x", "shear_y", "rotate_y"]),
    st.builds(complex, wide, wide),
    st.builds(complex, wide, wide),
    st.sampled_from([(None, None), (1, None), (None, 1)]),
)
def test_one_pass_per_moved_variable_rounds_like_two_passes(
    n, seed, complex_coeffs, kind, a, b, window
):
    """Skipping the Horner pass of the variable a shear leaves alone changes
    no entry of the table or of its row 0 and column 0 windows."""
    p = random_polynomial(np.random.default_rng(seed), n, complex_coeffs)
    if kind == "shear_x":
        sub = AffineSubstitution.shear_x(a, b)
    else:
        sub = AffineSubstitution.shear_y(a, b if kind == "shear_y" else 0.0)
    got = substitute_table(p.coeffs, sub, *window)
    assert np.array_equal(got, substitute_table_two_pass(p.coeffs, sub, *window))


@settings(max_examples=60, deadline=None)
@given(complex_polynomials(min_degree=0), st.booleans())
def test_derivative_is_the_termwise_formula(p, zero):
    if zero:
        p = BivariatePolynomial.zero()
    size = max(p.degree, 1)
    dx = np.zeros((size, size), dtype=complex)
    dy = np.zeros((size, size), dtype=complex)
    for j, k, c in p.terms():
        if j > 0:
            dx[j - 1, k] = j * c
        if k > 0:
            dy[j, k - 1] = k * c
    for got, want in zip(partial_derivatives(p), (dx, dy)):
        assert np.array_equal(got.coeffs, BivariatePolynomial(want).coeffs)


def trim_table_loop(table, mags):
    """The element loop `_trim_table` replaced, kept as its reference."""
    size = table.shape[0]
    top = mags.max() if size else 0.0
    if top == 0.0:
        return np.zeros((1, 1) + table.shape[2:], dtype=complex)
    threshold = DEGREE_TRIM_REL * top
    degree = 0
    for j in range(size):
        for k in range(size - j):
            if mags[j, k] > threshold:
                degree = max(degree, j + k)
    out = np.zeros((degree + 1, degree + 1) + table.shape[2:], dtype=complex)
    for j in range(degree + 1):
        for k in range(degree + 1 - j):
            if mags[j, k] > 0.0:
                out[j, k] = table[j, k]
    return out


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 11),
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from([0.0, 0.5, 1.0 - 1e-15, 1.0, 1.0 + 1e-15, 2.0]), max_size=12),
    st.sampled_from([(), (2, 2)]),
)
def test_trim_table_matches_the_element_loop(size, seed, planted, block):
    """Entries planted at multiples of DEGREE_TRIM_REL times the top, on and
    off the triangle, decide the degree exactly as the loop does."""
    rng = np.random.default_rng(seed)
    table = np.zeros((size, size) + block, dtype=complex)
    table[0, 0] = 1.0
    for factor in planted:
        j, k = rng.integers(0, size, 2)
        table[j, k] = factor * DEGREE_TRIM_REL * np.exp(2j * np.pi * rng.uniform())
    mags = np.abs(table) if not block else np.abs(table).max(axis=(2, 3))
    want = trim_table_loop(table, mags)
    got = _trim_table(table, mags)
    assert got.shape == want.shape and np.array_equal(got, want)
