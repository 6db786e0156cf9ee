"""The stage after the eigensolve works on all candidates at once: array
evaluation of p, q and their derivatives, batched Newton, the residual
filter and the accuracy rule.  These tests hold it to the one-root-at-a-time
reference in `oracles` and to extended-precision evaluation."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detrep import BivariatePolynomial, SolveOptions, partial_derivatives, solve_system, twopar
from detrep import solver
from detrep.polynomials import evaluate_tables
from detrep.solver import SolveDiagnostics

from oracles import naive_eval, scalar_condition_and_accuracy, scalar_horner, scalar_newton
from test_polynomials import random_polynomial


def integer_table(rng, n):
    """Dense degree-n table of small complex integers, so that evaluation at
    quarter-integer points is exact in floating point."""
    table = np.zeros((n + 1, n + 1), dtype=complex)
    for j in range(n + 1):
        for k in range(n + 1 - j):
            table[j, k] = complex(*rng.integers(-4, 5, size=2))
    return table


def through(table, x0, y0):
    """The polynomial of `table` with its constant term moved so that it
    vanishes exactly at (x0, y0)."""
    table = table.copy()
    table[0, 0] = 0
    table[0, 0] = -scalar_horner(table, x0, y0)
    return BivariatePolynomial(table)


# zero often: a common root at the origin has the exactly singular Jacobian
quarter = st.just(0j) | st.builds(
    lambda a, b: complex(a, b) / 4, st.integers(-6, 6), st.integers(-6, 6)
)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 6), st.integers(1, 6), st.booleans(), quarter, quarter,
    st.integers(0, 3), st.integers(0, 2**32 - 1),
)
def test_batch_polish_matches_scalar_reference(dp, dq, swap, x0, y0, steps, seed):
    rng = np.random.default_rng(seed)
    p_table = integer_table(rng, dp)
    # no linear terms: the gradient of p vanishes at the origin, so the
    # Jacobian there is exactly singular
    p_table[1, 0] = p_table[0, 1] = 0
    p, q = through(p_table, x0, y0), through(integer_table(rng, dq), x0, y0)
    if swap:
        p, q = q, p
    # points near the common root (x0, y0), the root itself and the origin
    near = [
        (x0 + d * max(1.0, abs(x0)), y0 + e * max(1.0, abs(y0)))
        for d, e in (rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))
        * 10.0 ** rng.uniform(-4, -1, size=(3, 1))
    ]
    points = [(x0, y0), (0j, 0j)] + near
    order = rng.permutation(len(points))
    xs = np.array([points[i][0] for i in order], dtype=complex)
    ys = np.array([points[i][1] for i in order], dtype=complex)

    tables = solver._stack_tables(p, q)
    scale = max(p.coeff_norm(), q.coeff_norm(), 1.0)
    x, y, refined, absf, sv = solver._polish(tables, scale, xs, ys, steps)
    accuracy = solver._measure(absf, sv)[2]

    pd, qd = partial_derivatives(p), partial_derivatives(q)
    for i in range(xs.size):
        rx, ry, rref = scalar_newton(p, q, pd, qd, xs[i], ys[i], steps)
        residual = max(abs(scalar_horner(p.coeffs, rx, ry)), abs(scalar_horner(q.coeffs, rx, ry)))
        racc = scalar_condition_and_accuracy(pd, qd, rx, ry, residual)[1]
        assert refined[i] == rref
        assert max(abs(x[i] - rx), abs(y[i] - ry)) <= 1e-12 * max(1.0, abs(rx), abs(ry))
        if np.isinf(racc):
            assert np.isinf(accuracy[i])
        else:
            assert abs(accuracy[i] - racc) <= 1e-6 * max(accuracy[i], racc)
    # the exact root stays put with a zero residual; Newton stops at the origin
    at_root, origin = list(order).index(0), list(order).index(1)
    assert (x[at_root], y[at_root]) == (x0, y0) and accuracy[at_root] in (0.0, np.inf)
    assert (x[origin], y[origin]) == (0, 0) and (steps == 0 or not refined[origin])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 8), min_size=1, max_size=4), st.integers(0, 2**32 - 1))
def test_array_evaluation_matches_mpmath(degrees, seed):
    rng = np.random.default_rng(seed)
    size = max(degrees) + 1
    tables = np.zeros((len(degrees), size, size), dtype=complex)
    for t, n in enumerate(degrees):
        for j in range(n + 1):
            for k in range(n + 1 - j):
                tables[t, j, k] = complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-3, 3)
    points = (rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))) * 10.0 ** rng.uniform(
        -2, 1, size=(2, 5)
    )
    values = evaluate_tables(tables, *points)
    j, k = np.indices((size, size))
    for t in range(len(degrees)):
        for i, (x, y) in enumerate(points.T):
            bound = np.sum(np.abs(tables[t]) * np.abs(x) ** j * np.abs(y) ** k)
            assert abs(values[t, i] - naive_eval(tables[t], x, y)) <= 1e-13 * bound


def test_scalar_call_is_the_array_evaluation():
    rng = np.random.default_rng(40)
    p = random_polynomial(rng, 5, complex_coeffs=True)
    for x, y in rng.normal(size=(10, 2)) + 1j * rng.normal(size=(10, 2)):
        assert p(x, y) == scalar_horner(p.coeffs, x, y)


@pytest.mark.parametrize("method", ["auto", "lin1"])
def test_exact_singular_root_raises_no_warning(method):
    p = BivariatePolynomial.from_terms({(2, 0): 1.0})
    q = BivariatePolynomial.from_terms({(0, 2): 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (rec,) = solve_system(p, q, SolveOptions(linearization=method))
    assert rec.accuracy == rec.condition == float("inf")


def test_no_per_root_svd_or_scalar_evaluation(monkeypatch):
    """A dense cubic on the regular path whose candidates all stop at
    Newton's step 0 (residuals at machine scale): one rank test, one SVD
    stack that serves Newton and the accuracy together, and no scalar
    evaluation."""
    counts = {"svd": 0, "call": 0}
    svd, call = np.linalg.svd, BivariatePolynomial.__call__

    def counting_svd(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    def counting_call(self, x, y):
        counts["call"] += 1
        return call(self, x, y)

    rng = np.random.default_rng(51)
    p, q = random_polynomial(rng, 3), random_polynomial(rng, 3)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(BivariatePolynomial, "__call__", counting_call)
    diag = SolveDiagnostics()
    records = solve_system(p, q, diagnostics=diag)
    assert sum(r.multiplicity for r in records) == 9
    assert diag.result.deltas.shape[0] == diag.result.reduced.shape[0] == 9
    assert diag.result.staircase is None
    assert not diag.swapped
    assert counts["svd"] == 2
    assert counts["call"] <= 3


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 6), st.integers(1, 6), quarter, quarter, st.integers(0, 3),
    st.integers(0, 2**32 - 1),
)
def test_polish_returns_the_evaluation_at_its_points(dp, dq, x0, y0, steps, seed):
    """|p|, |q| and the Jacobian's singular values that `_polish` returns
    are, bit for bit, a fresh evaluation of all returned points at once,
    although it evaluated each point only when it had moved: the root and
    the singular origin stop at once, the other points move."""
    rng = np.random.default_rng(seed)
    p_table = integer_table(rng, dp)
    p_table[1, 0] = p_table[0, 1] = 0
    p, q = through(p_table, x0, y0), through(integer_table(rng, dq), x0, y0)
    near = rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))
    xs = np.concatenate([[x0, 0j], x0 + near[0] * 10.0 ** rng.uniform(-4, 0, size=6)])
    ys = np.concatenate([[y0, 0j], y0 + near[1] * 10.0 ** rng.uniform(-4, 0, size=6)])

    tables = solver._stack_tables(p, q)
    scale = max(p.coeff_norm(), q.coeff_norm(), 1.0)
    x, y, _, absf, sv = solver._polish(tables, scale, xs, ys, steps)
    _, fresh_absf, _, fresh_sv = solver._evaluate(tables, x, y)
    assert np.array_equal(absf, fresh_absf)
    assert np.array_equal(sv, fresh_sv)


def test_non_finite_candidates_are_counted_as_rejected(monkeypatch):
    rng = np.random.default_rng(42)
    p, q = random_polynomial(rng, 3), random_polynomial(rng, 3)
    base_diag = SolveDiagnostics()
    base = solve_system(p, q, diagnostics=base_diag)

    solve_full = twopar.solve_full

    def with_non_finite(*args, **kwargs):
        result = solve_full(*args, **kwargs)
        result.solutions.insert(1, twopar.EigenSolution(complex("nan"), 0.5j))
        result.solutions.insert(4, twopar.EigenSolution(1.0, complex("inf")))
        return result

    monkeypatch.setattr(twopar, "solve_full", with_non_finite)
    diag = SolveDiagnostics()
    records = solve_system(p, q, diagnostics=diag)
    assert diag.candidates == base_diag.candidates + 2
    assert diag.rejected == base_diag.rejected + 2
    assert records == base
