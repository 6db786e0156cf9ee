import itertools
import logging
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from detrep import (
    BivariatePolynomial,
    DeltaTriple,
    MatrixBivariatePolynomial,
    Pencil,
    assemble_pencil_from_monomial_tree,
    extract_regular_part,
    generic_tree,
    linearize,
    operator_determinants,
    solve_regular,
    solve_system,
    sparse_tree_heuristic,
)
from detrep import _lapack, solver, twopar
from detrep._lapack import eig as _eig
from detrep.twopar import (
    StaircaseLog,
    _decide_rank,
    _default_rank_tol,
    is_delta0_nonsingular,
    solve_full,
)

from oracles import naive_kron, resultant_roots
from test_polynomials import random_polynomial

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


def pencil_pair(a1, b1, c1, a2, b2, c2):
    """The two scalar pencils A1 + x B1 + y C1 and A2 + x B2 + y C2."""
    return Pencil(len(a1), 1, a1, b1, c1), Pencil(len(a2), 1, a2, b2, c2)


def random_problem(rng, n1=2, n2=2):
    def mat(n):
        return rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))

    return pencil_pair(mat(n1), mat(n1), mat(n1), mat(n2), mat(n2), mat(n2))


def lin1_problem(p, q):
    tp = generic_tree(p.degree)
    tq = generic_tree(q.degree)
    return assemble_pencil_from_monomial_tree(p, tp), assemble_pencil_from_monomial_tree(q, tq)


class TestOperatorDeterminants:
    def test_scalar_case(self):
        prob = pencil_pair([[0.0]], [[1.0]], [[0.0]], [[0.0]], [[0.0]], [[1.0]])
        deltas = operator_determinants(*prob)
        assert deltas.delta0[0, 0] == 1.0

    def test_zero_a_matrices(self):
        rng = np.random.default_rng(0)
        prob = pencil_pair(
            np.zeros((2, 2)), rng.uniform(-1, 1, (2, 2)), rng.uniform(-1, 1, (2, 2)),
            np.zeros((3, 3)), rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, (3, 3)),
        )
        deltas = operator_determinants(*prob)
        assert np.all(deltas.delta1 == 0)
        assert np.all(deltas.delta2 == 0)

    def test_against_index_loop_kronecker(self):
        rng = np.random.default_rng(1)
        first, second = random_problem(rng, 2, 3)
        deltas = operator_determinants(first, second)
        want0 = naive_kron(first.B, second.C) - naive_kron(first.C, second.B)
        want1 = naive_kron(first.C, second.A) - naive_kron(first.A, second.C)
        want2 = naive_kron(first.A, second.B) - naive_kron(first.B, second.A)
        assert np.allclose(deltas.delta0, want0)
        assert np.allclose(deltas.delta1, want1)
        assert np.allclose(deltas.delta2, want2)

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_bitwise_equal_to_numpy_kron(self, complex_entries):
        rng = np.random.default_rng(5)
        for n1 in range(1, 6):
            for n2 in range(1, 6):
                a1, b1, c1, a2, b2, c2 = mats = [
                    rng.uniform(-1, 1, (n, n)) + complex_entries * 1j * rng.uniform(-1, 1, (n, n))
                    for n in (n1, n1, n1, n2, n2, n2)
                ]
                deltas = operator_determinants(*pencil_pair(*mats))
                assert np.array_equal(deltas.delta0, np.kron(b1, c2) - np.kron(c1, b2))
                assert np.array_equal(deltas.delta1, np.kron(c1, a2) - np.kron(a1, c2))
                assert np.array_equal(deltas.delta2, np.kron(a1, b2) - np.kron(b1, a2))

    def test_block_pencils_use_the_matrix_dimension(self):
        """Monomial-tree pencils of 2x2 matrix polynomials have `size` tree
        nodes of 2x2 blocks, so N is the product of the `dim`s, not of the
        `size`s."""
        rng = np.random.default_rng(13)

        def block_pencil(n):
            blocks = {(j, k): rng.uniform(-1, 1, (2, 2)) for j in range(n + 1) for k in range(n + 1 - j)}
            P = MatrixBivariatePolynomial.from_blocks(blocks, 2)
            return assemble_pencil_from_monomial_tree(P, generic_tree(n))

        first, second = block_pencil(2), block_pencil(3)
        assert (first.size, first.dim, second.size, second.dim) == (3, 6, 5, 10)
        deltas = operator_determinants(first, second)
        assert deltas.shape == (60, 60)
        assert np.array_equal(deltas.delta0, np.kron(first.B, second.C) - np.kron(first.C, second.B))
        assert np.array_equal(deltas.delta1, np.kron(first.C, second.A) - np.kron(first.A, second.C))
        assert np.array_equal(deltas.delta2, np.kron(first.A, second.B) - np.kron(first.B, second.A))

    def test_dimension(self):
        rng = np.random.default_rng(2)
        prob = random_problem(rng, 3, 4)
        assert operator_determinants(*prob).shape == (12, 12)


class TestSolveRegular:
    def test_decoupled_linear_system(self):
        prob = pencil_pair([[-1.0]], [[1.0]], [[0.0]], [[-2.0]], [[0.0]], [[1.0]])
        sols = solve_full(*prob).solutions
        assert len(sols) == 1
        assert sols[0].x == pytest.approx(1.0)
        assert sols[0].y == pytest.approx(2.0)

    def test_eigenvalue_count_and_residuals(self):
        rng = np.random.default_rng(3)
        prob = random_problem(rng, 3, 3)
        deltas = operator_determinants(*prob)
        sols = solve_regular(deltas)
        assert len(sols) == 9
        for s in sols:
            r1 = np.linalg.norm((deltas.delta1 - s.x * deltas.delta0) @ s.w)
            r2 = np.linalg.norm((deltas.delta2 - s.y * deltas.delta0) @ s.w)
            bound1 = 1e-8 * (np.linalg.norm(deltas.delta1, 2) + abs(s.x) * np.linalg.norm(deltas.delta0, 2))
            bound2 = 1e-8 * (np.linalg.norm(deltas.delta2, 2) + abs(s.y) * np.linalg.norm(deltas.delta0, 2))
            assert r1 <= bound1 and r2 <= bound2

    def test_coupled_operators_commute(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            prob = random_problem(rng, 2, 3)
            deltas = operator_determinants(*prob)
            if not is_delta0_nonsingular(deltas):
                continue
            inv = np.linalg.inv(deltas.delta0)
            g1 = inv @ deltas.delta1
            g2 = inv @ deltas.delta2
            comm = g1 @ g2 - g2 @ g1
            scale = np.linalg.norm(g1, 2) * np.linalg.norm(g2, 2)
            assert np.linalg.norm(comm, 2) <= 1e-8 * max(scale, 1.0)

    def test_repeated_x_cluster(self):
        """x^2 = 1, y^2 = x has two roots sharing x = 1; the cluster path
        must recover both y values."""
        p = np.zeros((3, 3)); p[0, 0] = -1.0; p[2, 0] = 1.0
        q = np.zeros((3, 3)); q[1, 0] = -1.0; q[0, 2] = 1.0
        from detrep import BivariatePolynomial

        result = solve_full(linearize(BivariatePolynomial(p)), linearize(BivariatePolynomial(q)))
        sols = result.solutions
        got = sorted(
            [(round(s.x.real, 6), round(s.x.imag, 6), round(s.y.real, 6), round(s.y.imag, 6)) for s in sols]
        )
        want = sorted(
            [(1.0, 0.0, 1.0, 0.0), (1.0, 0.0, -1.0, 0.0), (-1.0, 0.0, 0.0, 1.0), (-1.0, 0.0, 0.0, -1.0)]
        )
        assert got == want

    def test_singletons_after_a_cluster(self):
        """Rows x = 0 and x - y - 3 = 0 against y = 1 and y = 2: the double
        eigenvalue x = 0 sorts first, the singletons (4, 1) and (5, 2) follow."""
        prob = pencil_pair(
            np.diag([0.0, -3.0]), np.eye(2), np.diag([0.0, -1.0]),
            np.diag([-1.0, -2.0]), np.zeros((2, 2)), np.eye(2),
        )
        sols = solve_regular(operator_determinants(*prob))
        got = sorted((round(s.x.real, 9), round(s.y.real, 9)) for s in sols)
        assert got == [(0.0, 1.0), (0.0, 2.0), (4.0, 1.0), (5.0, 2.0)]
        assert max(abs(s.x.imag) + abs(s.y.imag) for s in sols) <= 1e-9

    def test_singleton_y_is_the_quotient_against_delta0(self):
        deltas = operator_determinants(*random_problem(np.random.default_rng(6), 3, 4))
        sols = solve_regular(deltas)
        assert len(sols) == 12
        for s in sols:
            d0w = deltas.delta0 @ s.w
            want = np.vdot(d0w, deltas.delta2 @ s.w) / np.vdot(d0w, d0w)
            assert abs(s.y - want) <= 1e-12 * max(1.0, abs(want))

    def test_non_square_block_raises(self):
        deltas = DeltaTriple(*np.ones((3, 3, 2)))
        with pytest.raises(ValueError, match="3x2"):
            solve_regular(deltas)

    @pytest.mark.parametrize("shape", [(0, 0), (3, 0), (0, 3)])
    def test_empty_block_has_no_solutions(self, shape):
        assert solve_regular(DeltaTriple(*np.zeros((3, *shape)))) == []


class TestEig:
    """The regular eigensolve's direct LAPACK ggev call against scipy's eig."""

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 16])
    def test_matches_scipy_with_unit_vectors(self, n):
        rng = np.random.default_rng(40 + n)
        for _ in range(3):
            a, b = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
            w, v = _eig(a, b)
            want = scipy.linalg.eig(a, b, right=False)
            assert np.all(np.abs(w - want) <= 1e-13 * np.abs(want))
            assert np.allclose(np.linalg.norm(v, axis=0), 1.0, rtol=0.0, atol=1e-14)
            residual = np.linalg.norm(a @ v - b @ v * w, axis=0)
            scale = np.linalg.norm(a, 2) + np.abs(w) * np.linalg.norm(b, 2)
            assert np.all(residual <= 1e-12 * scale)

    def test_infinite_and_indeterminate_eigenvalues(self):
        """beta = 0 with alpha != 0 is inf; alpha = beta = 0 is nan."""
        w, _ = _eig(np.diag([1.0, 0.0]).astype(complex), np.zeros((2, 2), dtype=complex))
        want = scipy.linalg.eig(np.diag([1.0, 0.0]), np.zeros((2, 2)), right=False)
        assert np.array_equal(np.isinf(w), np.isinf(want)) and np.isinf(w).sum() == 1
        assert np.array_equal(np.isnan(w), np.isnan(want)) and np.isnan(w).sum() == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises(self, bad):
        a = np.eye(3, dtype=complex)
        a[1, 2] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            _eig(a, np.eye(3, dtype=complex))
        with pytest.raises(ValueError, match="infs or NaNs"):
            _eig(np.eye(3, dtype=complex), a)

    @pytest.mark.parametrize("a, b", [
        (np.diag([1.0, 2.0, 3.0]), np.ones(3)),  # numpy would broadcast b into the buffer
        (np.ones((2, 3)), np.ones((2, 3))),
    ], ids=["vector-b", "non-square"])
    def test_mis_shaped_pencil_raises(self, a, b):
        with pytest.raises(ValueError, match="square matrices of one shape"):
            _eig(a, b)

    def test_lapack_failure_raises(self, monkeypatch):
        def failing_ggev(a, b):
            n = len(a)
            return np.ones(n, dtype=complex), np.ones(n, dtype=complex), np.eye(n, dtype=complex), 1

        monkeypatch.setattr(_lapack, "_ggev", failing_ggev)
        with pytest.raises(np.linalg.LinAlgError, match="info 1"):
            _eig(np.eye(2, dtype=complex), np.eye(2, dtype=complex))

    def test_cubic_solve_leaves_scipy_eig_alone(self, monkeypatch):
        calls = []
        eig = scipy.linalg.eig

        def counting_eig(*args, **kwargs):
            calls.append(1)
            return eig(*args, **kwargs)

        rng = np.random.default_rng(41)
        p, q = random_polynomial(rng, 3), random_polynomial(rng, 3)
        monkeypatch.setattr(scipy.linalg, "eig", counting_eig)
        records = solve_system(p, q)
        monkeypatch.undo()
        assert sum(r.multiplicity for r in records) == 9
        assert calls == []


class TestSvdFallback:
    """When numpy's gesdd fails to converge, `_svd` answers with gesvd."""

    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize("compute_uv", [False, True])
    def test_gesdd_failure_falls_back_to_gesvd(self, monkeypatch, complex_entries, compute_uv):
        rng = np.random.default_rng(42)
        mat = rng.standard_normal((6, 4))
        if complex_entries:
            mat = mat + 1j * rng.standard_normal((6, 4))
        calls = []
        svd = np.linalg.svd

        def failing_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", failing_once)
        got = twopar._svd(mat, compute_uv=compute_uv)
        monkeypatch.undo()
        assert calls == [1]
        want = scipy.linalg.svd(mat, compute_uv=compute_uv, lapack_driver="gesvd")
        got, want = (got, want) if compute_uv else ((got,), (want,))
        for got_part, want_part in zip(got, want, strict=True):
            assert got_part.dtype == want_part.dtype
            assert np.array_equal(got_part, want_part)


class TestExtractRegularPart:
    def test_nonsingular_input_untouched(self):
        rng = np.random.default_rng(5)
        prob = random_problem(rng, 2, 2)
        deltas = operator_determinants(*prob)
        assert is_delta0_nonsingular(deltas)
        reduced, log = extract_regular_part(deltas)
        assert len(log.steps) == 0
        assert np.allclose(reduced.delta0, deltas.delta0)

    def test_cubic_system_reduces_to_nine(self):
        rng = np.random.default_rng(6)
        p = random_polynomial(rng, 3)
        q = random_polynomial(rng, 3)
        deltas = operator_determinants(*lin1_problem(p, q))
        assert deltas.shape == (25, 25)
        assert not is_delta0_nonsingular(deltas)
        reduced, log = extract_regular_part(deltas)
        assert reduced.shape == (9, 9)
        sols = solve_regular(reduced)
        roots = resultant_roots(p.coeffs, q.coeffs)
        assert len(roots) == 9
        for s in sols:
            dist = min(max(abs(s.x - a), abs(s.y - b)) for a, b in roots)
            assert dist <= 1e-7

    def test_degree_five_reduces_to_twentyfive(self):
        rng = np.random.default_rng(7)
        p = random_polynomial(rng, 5)
        q = random_polynomial(rng, 5)
        deltas = operator_determinants(linearize(p), linearize(q))
        assert deltas.shape == (64, 64)
        reduced, _ = extract_regular_part(deltas)
        assert reduced.shape == (25, 25)
        sols = solve_regular(reduced)
        scale = max(p.coeff_norm(), q.coeff_norm())
        passing = [
            s for s in sols if max(abs(p(s.x, s.y)), abs(q(s.x, s.y))) <= 1e-6 * scale
        ]
        assert len(passing) == 25

    @pytest.mark.parametrize("method", ["lin1", "lin2"])
    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_transformations_stay_isometric(self, method, degree):
        rng = np.random.default_rng(8)
        p = random_polynomial(rng, degree)
        q = random_polynomial(rng, degree)
        pencils = lin1_problem(p, q) if method == "lin1" else (linearize(p), linearize(q))
        deltas = operator_determinants(*pencils)
        reduced, log = extract_regular_part(deltas)
        for mat in (log.left, log.right):
            gram = mat.conj().T @ mat
            assert np.abs(gram - np.eye(mat.shape[1])).max() <= 1e-12
        # the reduced triple is the two-sided compression of the original
        for name in ("delta0", "delta1", "delta2"):
            assert np.allclose(
                getattr(reduced, name),
                log.left.conj().T @ getattr(deltas, name) @ log.right,
                rtol=0, atol=1e-10,
            ), name

    def test_steps_record_the_slab_decision(self):
        """Each step keeps the kept and dropped singular values of its slab
        decision.  The first slab's singular values do not depend on the
        basis of delta0's null space, so they are recomputed here from the
        original triple: [delta1 V0, delta2 V0], V0 that null basis."""
        rng = np.random.default_rng(6)
        p = random_polynomial(rng, 3)
        q = random_polynomial(rng, 3)
        deltas = operator_determinants(*lin1_problem(p, q))
        _, log = extract_regular_part(deltas)
        assert [step.shape for step in log.steps] == [(25, 25), (17, 16), (12, 12)]
        first = log.steps[0]
        v0 = np.linalg.svd(deltas.delta0)[2].conj().T[:, first.rank:]
        slab = np.hstack([deltas.delta1 @ v0, deltas.delta2 @ v0])
        sv = np.linalg.svd(slab, compute_uv=False)
        rho = 25 - 17  # the slab's rank: the rows the first step removes
        assert first.slab_kept_sv == pytest.approx(sv[rho - 1], rel=1e-10)
        assert first.slab_dropped_sv == pytest.approx(sv[rho], rel=0, abs=1e-12)
        # on a generic cubic every slab decision has a decisive gap
        for step in log.steps:
            assert step.slab_kept_sv > 1e6 * step.slab_dropped_sv

    def test_determinant_compatibility(self):
        """Every recovered eigenvalue annihilates both original pencils."""
        rng = np.random.default_rng(9)
        p = random_polynomial(rng, 3)
        q = random_polynomial(rng, 3)
        first, second = lin1_problem(p, q)
        result = solve_full(first, second)
        for s in result.solutions:
            d1 = abs(np.linalg.det(first(s.x, s.y)))
            d2 = abs(np.linalg.det(second(s.x, s.y)))
            assert d1 <= 1e-7 and d2 <= 1e-7

    def test_ambiguous_gap_warning(self, caplog):
        rng = np.random.default_rng(10)
        u = np.linalg.qr(rng.uniform(-1, 1, (10, 10)))[0]
        v = np.linalg.qr(rng.uniform(-1, 1, (10, 10)))[0]
        # a gently sloping spectrum with no decisive gap anywhere near the
        # cutoff, ending in a kept/discarded pair within a factor ten
        spectrum = [1, 3e-2, 1e-3, 3e-5, 1e-6, 3e-8, 1e-9, 6e-11, 3e-12, 8e-13]
        d0 = u @ np.diag(spectrum) @ v.T
        d1 = np.linalg.qr(rng.uniform(-1, 1, (10, 10)))[0]
        d2 = np.linalg.qr(rng.uniform(-1, 1, (10, 10)))[0]
        deltas = DeltaTriple(d0, d1, d2)
        # the log carries each ambiguity to the caller, so the logger reports
        # it at INFO only, once per entry
        with caplog.at_level(logging.WARNING, logger="detrep.twopar"):
            _, log = extract_regular_part(deltas)
        assert log.warnings and not caplog.records
        with caplog.at_level(logging.INFO, logger="detrep.twopar"):
            _, log = extract_regular_part(deltas)
        logged = [r for r in caplog.records if r.name == "detrep.twopar"]
        assert [(r.levelno, r.getMessage()) for r in logged] == [
            (logging.INFO, w) for w in log.warnings
        ]

    def test_noise_below_the_cutoff_is_never_rank(self, caplog):
        # a slab of two noise values far below the cutoff, 140x apart
        log, sv = StaircaseLog(), np.array([4.6e-15, 3.3e-17])
        with caplog.at_level(logging.INFO, logger="detrep.twopar"):
            rank, kept, _, ambiguous = _decide_rank(sv, 1.5e-12, log, "slab")
        assert (rank, kept, ambiguous) == (0, 0.0, False)
        assert not log.warnings and not caplog.records


def tall_triple(seed):
    """A random k x k triple with e extra rows that combine its rows, mixed
    by a random unitary: delta0 has full column rank k and k + e rows, and
    the regular part is the k x k pencil.  Returns the triple and the
    eigenvalues x of that pencil."""
    rng = np.random.default_rng(seed)
    k, e = 1 + seed % 5, 1 + (seed // 5) % 3

    def cmat(rows, cols):
        return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))

    square = [cmat(k, k) for _ in range(3)]
    combine = cmat(e, k)
    mix = np.linalg.qr(cmat(k + e, k + e))[0]
    triple = DeltaTriple(*[mix @ np.vstack([t, combine @ t]) for t in square])
    return triple, scipy.linalg.eigvals(square[1], square[0])


def max_matched_gap(got, want):
    """Largest |got - want| / max(1, |want|) over the best one-to-one pairing."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    cost = np.abs(got[:, None] - want[None, :]) / np.maximum(1.0, np.abs(want))[None, :]
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].max()


class TestRowsStep:
    """A tall triple with full-column-rank delta0 takes the rows step, which
    is the columns step of the conjugate-transposed triple."""

    @pytest.mark.parametrize("seed", range(15))
    def test_tall_triple_reduces_to_its_square_pencil(self, seed):
        triple, eigenvalues = tall_triple(seed)
        k = triple.shape[1]
        reduced, log = extract_regular_part(triple)
        assert [step.kind for step in log.steps] == ["rows"]
        assert log.steps[0].shape == triple.shape
        assert log.steps[0].rank == k
        assert reduced.shape == (k, k)
        xs = [s.x for s in solve_regular(reduced)]
        assert max_matched_gap(xs, eigenvalues) <= 1e-10
        for name in ("delta0", "delta1", "delta2"):
            assert np.allclose(
                log.left.conj().T @ getattr(triple, name) @ log.right,
                getattr(reduced, name), rtol=0, atol=1e-12,
            ), name

    @pytest.mark.parametrize("seed", range(15))
    def test_conjugate_transpose_takes_the_columns_step(self, seed):
        triple, eigenvalues = tall_triple(seed)
        k = triple.shape[1]
        transposed = DeltaTriple(*[d.conj().T for d in (triple.delta0, triple.delta1, triple.delta2)])
        reduced, log = extract_regular_part(transposed)
        assert [step.kind for step in log.steps] == ["columns"]
        assert reduced.shape == (k, k)
        xs = [s.x for s in solve_regular(reduced)]
        assert max_matched_gap(xs, eigenvalues.conj()) <= 1e-10


class TestSolveFull:
    def test_regular_path(self):
        rng = np.random.default_rng(11)
        prob = random_problem(rng, 2, 2)
        result = solve_full(*prob)
        assert result.staircase is None
        assert len(result.solutions) == 4

    def test_singular_path_records_log(self):
        rng = np.random.default_rng(12)
        p = random_polynomial(rng, 3)
        q = random_polynomial(rng, 3)
        result = solve_full(*lin1_problem(p, q))
        assert result.staircase is not None
        assert len(result.staircase.steps) >= 1
        assert len(result.solutions) == 9

    def test_cubic_auto_153_keeps_the_relative_test(self):
        """cubic-auto seed-0 system 153 (also small-auto 459): delta0's
        singular values fall in three groups, 2e3-4e3, 3-5 and 4e-5-7e-5.
        The relative test calls it nonsingular and all 9 roots come back;
        the staircase's absolute rule, at its own cutoff, keeps rank 6, and
        the staircase run on it ends in a 6 x 6 block.  So the first
        decision stays relative."""
        stream = workloads.systems(workloads.WORKLOADS["cubic-auto"], 0)
        p, q = (BivariatePolynomial(t) for t in next(itertools.islice(stream, 153, None)))
        result = solve_full(linearize(p), linearize(q))
        assert result.staircase is None and len(result.solutions) == 9
        assert sum(r.multiplicity for r in solve_system(p, q)) == 9
        deltas = result.deltas
        sv = np.linalg.svd(deltas.delta0, compute_uv=False)
        scale = max(np.linalg.norm(d, 2) for d in (deltas.delta0, deltas.delta1, deltas.delta2))
        cutoff = _default_rank_tol(deltas.shape) * scale
        assert _decide_rank(sv, cutoff, StaircaseLog(), "delta0")[0] == 6


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["lin1", "lin2", "tall"]), st.integers(2, 5), st.integers(2, 5),
    st.sampled_from([None, 1e-10]), st.integers(0, 2**32 - 1),
)
def test_every_regular_block_passes_the_relative_test(kind, n1, n2, rank_tol, seed):
    """The staircase stops only at a square block whose singular values all
    exceed rank_tol times the original scale, so the block passes the
    relative test that `solve_full` applies to the original delta0, and
    `solve_regular` need not test it again."""
    if kind == "tall":
        deltas = tall_triple(seed % 15)[0]
    else:
        rng = np.random.default_rng(seed)
        p, q = random_polynomial(rng, n1), random_polynomial(rng, n2)
        deltas = operator_determinants(*(lin1_problem(p, q) if kind == "lin1"
                                         else (linearize(p), linearize(q))))
    reduced, _ = extract_regular_part(deltas, rank_tol=rank_tol)
    if reduced.delta0.size:
        assert reduced.shape[0] == reduced.shape[1]
        assert is_delta0_nonsingular(reduced, rank_tol)


def sparse_polynomial(rng, n, complex_coeffs, density):
    """1, x^n and y^n plus each other monomial of degree <= n with
    probability `density`, uniform(0, 1) coefficients (and imaginary parts)."""
    table = random_polynomial(rng, n, complex_coeffs).coeffs
    j, k = np.indices(table.shape)
    keep = (rng.uniform(size=table.shape) <= density) | (j + k == 0) | (j == n) | (k == n)
    table[~keep] = 0
    return BivariatePolynomial(table)


def pencils_for(kind, p, q):
    if kind == "lin1":
        return lin1_problem(p, q)
    if kind == "lin2":
        return linearize(p), linearize(q)
    return tuple(assemble_pencil_from_monomial_tree(f, sparse_tree_heuristic(f)) for f in (p, q))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["lin1", "lin2", "sparse"]), st.integers(1, 5), st.integers(1, 5),
    st.booleans(), st.booleans(), st.floats(0.2, 1.0), st.integers(0, 2**32 - 1),
)
def test_deltas_beyond_the_bezout_bound_are_singular(kind, n1, n2, complex_coeffs, swap,
                                                    density, seed):
    """A nonsingular N x N delta0 would give N common roots, and Bezout
    allows deg p * deg q, so the rank test never calls a larger delta0
    nonsingular; `solve_full(..., max_roots=...)` skips it there."""
    rng = np.random.default_rng(seed)
    p, q = (sparse_polynomial(rng, n, complex_coeffs, density) for n in (n1, n2))
    if swap:
        p, q = (BivariatePolynomial(f.coeffs.T) for f in (p, q))
    deltas = operator_determinants(*pencils_for(kind, p, q))
    if deltas.shape[0] > p.degree * q.degree:
        assert not is_delta0_nonsingular(deltas)


def low_rank_triple(rng, m, k, ranks, complex_entries):
    """An m x k triple whose matrices have the given ranks (rank 0 gives a
    zero matrix)."""
    def mat(rows, cols):
        real = rng.normal(size=(rows, cols))
        return real + 1j * rng.normal(size=(rows, cols)) if complex_entries else real

    return DeltaTriple(*(mat(m, r) @ mat(r, k) for r in ranks))


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["triple", "lin1", "lin2", "sparse"]), st.integers(1, 12),
    st.integers(1, 12), st.integers(0, 12), st.integers(0, 12), st.booleans(),
    st.floats(0.2, 1.0), st.integers(0, 2**32 - 1),
)
def test_every_staircase_step_shrinks_the_block(kind, m, k, r1, r2, complex_entries, density,
                                                seed):
    """A columns step turns an m x k block into (m - rho) x rank with
    rank < k, a rows step (rank k < m) into k x (k - rho), so rows plus
    columns fall with every step and the staircase ends within m + k - 1
    steps.  Checked on random triples with a rank-deficient delta0 and
    zero, low-rank or full delta1 and delta2, and on the pencils of random
    sparse systems."""
    rng = np.random.default_rng(seed)
    if kind == "triple":
        d0_rank = int(rng.integers(0, min(m, k)))
        deltas = low_rank_triple(rng, m, k, (d0_rank, min(r1, m, k), min(r2, m, k)),
                                 complex_entries)
    else:  # m and k pick the degrees, 1 to 4
        p, q = (sparse_polynomial(rng, 1 + n % 4, complex_entries, density) for n in (m, k))
        deltas = operator_determinants(*pencils_for(kind, p, q))
    reduced, log = extract_regular_part(deltas)
    shapes = [step.shape for step in log.steps] + [reduced.shape]
    assert all(sum(before) > sum(after) for before, after in zip(shapes, shapes[1:]))
    assert len(log.steps) <= sum(deltas.shape) - 1


@pytest.mark.parametrize("name, method, rank_tests", [
    ("quadric-lin1", "lin1", 0),  # 9 x 9 deltas, at most 4 roots
    ("cubic-lin1", "lin1", 0),  # 25 x 25 deltas, at most 9 roots
    ("cubic-auto", "lin2", 1),  # 9 x 9 deltas, at the bound of 9
])
def test_bezout_bound_decides_before_the_rank_test(name, method, rank_tests, monkeypatch):
    calls = []
    test = twopar.is_delta0_nonsingular

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return test(*args, **kwargs)

    monkeypatch.setattr(twopar, "is_delta0_nonsingular", counting)
    stream = workloads.systems(workloads.WORKLOADS[name], 0)
    for tables in itertools.islice(stream, 5):
        p, q = (BivariatePolynomial(t) for t in tables)
        pencils = lin1_problem(p, q) if method == "lin1" else (linearize(p), linearize(q))
        result = solve_full(*pencils, max_roots=p.degree * q.degree)
        assert len(result.solutions) == p.degree * q.degree
        assert (result.staircase is None) == (rank_tests == 1)
    assert len(calls) == 5 * rank_tests
    # without the bound every solve makes the test
    solve_full(*pencils)
    assert len(calls) == 5 * rank_tests + 1


class TestRealArithmetic:
    def test_real_lin1_problem_stays_real(self, monkeypatch):
        rng = np.random.default_rng(6)
        p, q = random_polynomial(rng, 3), random_polynomial(rng, 3)
        dtypes = []
        svd = twopar._svd

        def recording_svd(mat, *args, **kwargs):
            dtypes.append(mat.dtype)
            return svd(mat, *args, **kwargs)

        monkeypatch.setattr(twopar, "_svd", recording_svd)
        result = solve_full(*lin1_problem(p, q), max_roots=9)
        log = result.staircase
        assert len(log.steps) == 3 and len(dtypes) == 2 * 3 + 1
        assert set(dtypes) == {np.dtype(float)}
        for mat in (result.deltas.delta0, result.deltas.delta1, result.deltas.delta2,
                    result.reduced.delta0, result.reduced.delta1, result.reduced.delta2,
                    log.left, log.right):
            assert mat.dtype == np.float64
        assert len(result.solutions) == 9

    @pytest.mark.parametrize("kind", ["complex lin1", "lin2"])
    def test_complex_input_stays_complex(self, kind):
        rng = np.random.default_rng(6)
        p, q = (random_polynomial(rng, 3, complex_coeffs=kind == "complex lin1") for _ in range(2))
        pencils = lin1_problem(p, q) if kind == "complex lin1" else (linearize(p), linearize(q))
        deltas = operator_determinants(*pencils)
        assert deltas.delta0.dtype == np.complex128
        reduced, log = extract_regular_part(deltas)
        for mat in (reduced.delta0, log.left, log.right):
            assert mat.dtype == np.complex128

    def test_delta_triple_dtype(self):
        real = np.eye(2)
        assert DeltaTriple(real, real, real).delta0.dtype == np.float64
        mixed = DeltaTriple(real, real * 1j, real)
        assert {d.dtype for d in (mixed.delta0, mixed.delta1, mixed.delta2)} == {
            np.dtype(complex)}
        assert DeltaTriple([[1]], [[2]], [[3]]).delta0.dtype == np.complex128


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 2**32 - 1))
def test_real_staircase_matches_the_complex_one(n1, n2, seed):
    """The staircase of a real lin1 triple and of the same triple cast to
    complex reach regular blocks of one size, whose eigenvalue pairs polish
    to the same roots and agree up to the accuracy the staircase delivers
    (its noise amplified by each eigenvalue's condition, which Newton's
    correction measures).  Over 300 seeded problems the pairs differ by
    2e-14 in the median, but degrees (2, 5), seed 229 has pairs 1e-7 from
    the roots in both arithmetics, and 2.3e-7 apart.  A staircase that
    collapses to an empty block (ROADMAP item 1) does so with the rounding,
    in either arithmetic: 3 of 1500 seeded problems, left out here."""
    rng = np.random.default_rng(seed)
    p, q = random_polynomial(rng, n1), random_polynomial(rng, n2)
    real = operator_determinants(*lin1_problem(p, q))
    cast = DeltaTriple(*(d.astype(complex) for d in (real.delta0, real.delta1, real.delta2)))
    assert real.delta0.dtype == np.float64 and cast.delta0.dtype == np.complex128
    blocks = [extract_regular_part(deltas)[0] for deltas in (real, cast)]
    if not all(block.delta0.size for block in blocks):
        return
    assert blocks[0].shape == blocks[1].shape
    got, want = (np.array([(s.x, s.y) for s in solve_regular(block)]) for block in blocks)
    tables = solver._stack_tables(p, q)

    def gap(a, b):  # relative distance of each pair of a to its partner in b
        return np.abs(a - b).max(axis=1) / np.maximum(1.0, np.abs(b).max(axis=1))

    def polished(pairs):  # three Newton steps
        return np.stack(solver._polish(tables, 1.0, pairs[:, 0], pairs[:, 1], 3)[:2], axis=1)

    # the best one-to-one pairing; both sides polish to the same roots, and
    # differ by no more than the Newton corrections show they are accurate
    cost = np.abs(got[:, None, :] - want[None, :, :]).max(axis=2)
    rows, cols = linear_sum_assignment(cost)
    got, want = got[rows], want[cols]
    assert (gap(polished(got), polished(want)) <= 1e-10).all()
    accuracy = np.maximum(gap(got, polished(got)), gap(want, polished(want)))
    assert (gap(got, want) <= 1e-12 + 10 * accuracy).all()
