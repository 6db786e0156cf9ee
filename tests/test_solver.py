import dataclasses
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from detrep import (
    BivariatePolynomial,
    DegenerateSystemError,
    SolveOptions,
    newton_refine,
    solve_system,
    sparse_tree_heuristic,
)
from detrep import serialize, solver, twopar
from detrep.solver import SolveDiagnostics

from oracles import resultant_roots, smallest_singular_value_2x2
from test_polynomials import CUBIC, random_polynomial

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def accuracy(p, q, x, y) -> float:
    """The solver's accuracy rule at one point: `_measure` on `_evaluate`'s
    |p|, |q| and Jacobian singular values."""
    point = np.array([complex(x)]), np.array([complex(y)])
    _, absf, _, sv = solver._evaluate(solver._stack_tables(p, q), *point)
    return float(solver._measure(absf, sv)[2][0])


# degree-4 system 294 (0-based) of the `detrep bench --seed 0` stream: p then
# q drawn from np.random.default_rng((0, 4)), uniform(0, 1) over j, then k.
# lin1 finds no root in the given orientation and all 16 after the swap.
RETRY_P = [
    [0.2432323125125727, 0.5673088457571467, 0.01808964150984116, 0.9680723106279814,
     0.6802848169316502],
    [0.17019717516215283, 0.9171731839995523, 0.8263894830522875, 0.15349783197252376],
    [0.4194747344396914, 0.5634335110908623, 0.9219411357714208],
    [0.44874159761252097, 0.968477996276551],
    [0.6365642201067231],
]
RETRY_Q = [
    [0.725554838261803, 0.8949051338382931, 0.07692677663308478, 0.5822515344926859,
     0.8440871259826613],
    [0.5759736852232071, 0.7659678905476337, 0.16745763439973194, 0.9871676315986369],
    [0.9631803735986786, 0.9748748602468081, 0.9292830454527347],
    [0.9499504881766803, 0.9631846030840707],
    [0.5688307278152768],
]


SHORTFALL_SOLVE = """
import itertools, json
import workloads
from detrep import BivariatePolynomial, SolveOptions, solve_system
from detrep.solver import SolveDiagnostics
stream = workloads.systems(workloads.WORKLOADS["sparse-auto"], 0)
p, q = (BivariatePolynomial(t) for t in next(itertools.islice(stream, 84, None)))
diag = SolveDiagnostics()
records = solve_system(p, q, SolveOptions(), diag)
print(json.dumps([diag.candidates, diag.rejected, diag.swapped,
                  sum(r.multiplicity for r in records), diag.warnings]))
"""


def retry_system():
    return tuple(
        serialize.polynomial_from_json({"degree": 4, "coeffs": rows}) for rows in (RETRY_P, RETRY_Q)
    )


def match_pairwise(records, reference, tol):
    """Greedy matching of computed roots against reference pairs."""
    remaining = list(reference)
    for rec in records:
        dists = [max(abs(rec.x - a), abs(rec.y - b)) for a, b in remaining]
        idx = int(np.argmin(dists))
        assert dists[idx] <= tol, f"root {(rec.x, rec.y)} unmatched (best {dists[idx]:.2e})"
        remaining.pop(idx)
    assert not remaining


class TestNewtonRefine:
    def test_exact_root_is_fixed_point(self):
        p = BivariatePolynomial.from_terms({(1, 0): 1.0, (0, 0): -1.0})
        q = BivariatePolynomial.from_terms({(0, 1): 1.0, (0, 0): -1.0})
        x, y, refined = newton_refine(p, q, 1.0, 1.0, steps=2)
        assert (x, y) == (1.0, 1.0)
        assert refined

    def test_quadratic_convergence(self):
        p = BivariatePolynomial.from_terms({(2, 0): 1.0, (0, 1): -1.0})  # x^2 - y
        q = BivariatePolynomial.from_terms({(0, 1): 1.0, (0, 0): -1.0})  # y - 1
        # direct-iteration oracle: y snaps to 1 immediately and x follows
        # the square-root recurrence x -> (x^2 + 1) / (2x)
        x, y, refined = newton_refine(p, q, 1.05, 1.02, steps=2)
        assert refined and y == pytest.approx(1.0)
        expect = 1.05
        for _ in range(2):
            expect = (expect * expect + 1.0) / (2.0 * expect)
        assert x == pytest.approx(expect, rel=1e-13)
        assert abs(x - 1.0) < abs(1.05 - 1.0) * 1e-3
        # two steps from a nearby start push the residual below 1e-8
        x, y, _ = newton_refine(p, q, 1.005, 1.002, steps=2)
        assert max(abs(p(x, y)), abs(q(x, y))) <= 1e-8

    def test_singular_jacobian_flags_unrefined(self):
        p = BivariatePolynomial.from_terms({(2, 0): 1.0})
        q = BivariatePolynomial.from_terms({(0, 2): 1.0})
        x, y, refined = newton_refine(p, q, 0.0, 0.0, steps=2)
        assert (x, y) == (0.0, 0.0)
        assert not refined


class TestAccuracyMeasure:
    def test_zero_at_exact_root(self):
        p = BivariatePolynomial.from_terms({(1, 0): 1.0, (0, 0): -1.0})
        q = BivariatePolynomial.from_terms({(0, 1): 1.0, (0, 0): -1.0})
        assert accuracy(p, q, 1.0, 1.0) == 0.0

    def test_identity_jacobian_returns_residual(self):
        p = BivariatePolynomial.from_terms({(1, 0): 1.0, (0, 0): -1.0})
        q = BivariatePolynomial.from_terms({(0, 1): 1.0, (0, 0): -1.0})
        r = accuracy(p, q, 1.25, 1.0)
        assert r == pytest.approx(0.25)

    def test_matches_two_by_two_svd_identity(self):
        rng = np.random.default_rng(30)
        p = random_polynomial(rng, 3)
        q = random_polynomial(rng, 3)
        from detrep import partial_derivatives

        (px, py), (qx, qy) = partial_derivatives(p), partial_derivatives(q)
        for _ in range(5):
            x, y = rng.uniform(-1, 1), rng.uniform(-1, 1)
            jac = np.array([[px(x, y), py(x, y)], [qx(x, y), qy(x, y)]])
            want = max(abs(p(x, y)), abs(q(x, y))) / smallest_singular_value_2x2(jac)
            assert accuracy(p, q, x, y) == pytest.approx(want, rel=1e-10)

    def test_singular_jacobian_is_infinite(self):
        p = BivariatePolynomial.from_terms({(2, 0): 1.0})
        q = BivariatePolynomial.from_terms({(0, 2): 1.0})
        assert accuracy(p, q, 0.0, 0.0) == float("inf")

    def test_rank_one_jacobian_is_infinite(self):
        # LAPACK returns about 1e-16, not 0, for the smallest singular value
        # of this rank-one Jacobian; Newton's test calls it singular, and so
        # must the accuracy rule
        p = BivariatePolynomial.from_terms({(2, 0): 1.0, (0, 2): 1.0})
        q = BivariatePolynomial.from_terms({(1, 0): 3 + 1j, (0, 1): 2 - 2j})
        assert accuracy(p, q, 0, 0) == float("inf")


class TestSolveSystem:
    def test_single_linear_root(self):
        p = BivariatePolynomial.from_terms({(1, 0): 1, (0, 1): 1, (0, 0): -1})
        q = BivariatePolynomial.from_terms({(1, 0): 1, (0, 1): -1})
        records = solve_system(p, q)
        assert len(records) == 1
        assert records[0].x == pytest.approx(0.5)
        assert records[0].y == pytest.approx(0.5)

    def test_cubic_pair_against_resultant_oracle(self):
        q = BivariatePolynomial.from_terms({(3, 0): 1, (0, 3): 1, (0, 0): -1})
        records = solve_system(CUBIC, q)
        assert len(records) == 9
        assert max(r.accuracy for r in records) <= 1e-8
        reference = resultant_roots(CUBIC.coeffs, q.coeffs)
        assert len(reference) == 9
        match_pairwise(records, reference, 1e-7)

    def test_derivatives_computed_once_per_attempt(self, monkeypatch):
        calls, attempts = [], []
        # _stack_tables differentiates p and q for every candidate of an attempt
        derivatives, solve_once = solver._stack_tables, solver._solve_once

        def counting_derivatives(p, q):
            calls.append((p, q))
            return derivatives(p, q)

        def counting_solve_once(*args):
            attempts.append(args)
            return solve_once(*args)

        monkeypatch.setattr(solver, "_stack_tables", counting_derivatives)
        monkeypatch.setattr(solver, "_solve_once", counting_solve_once)
        rng = np.random.default_rng(203)
        records = solve_system(random_polynomial(rng, 3), random_polynomial(rng, 3))
        assert len(records) == 9
        assert attempts and len(calls) <= len(attempts)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_bezout_count_random_dense(self, n):
        rng = np.random.default_rng(200 + n)
        p = random_polynomial(rng, n)
        q = random_polynomial(rng, n)
        records = solve_system(p, q)
        assert sum(r.multiplicity for r in records) == n * n
        assert max(r.accuracy for r in records) <= 1e-6

    def test_lin1_builds_the_smallest_trees(self):
        """lin1's pencils come from the sparse-tree search, here smaller
        than the generic trees (8 and 11 nodes)."""
        p = BivariatePolynomial.from_terms({(4, 0): 1, (0, 4): 1, (1, 1): 0.5, (0, 0): -1})
        q = BivariatePolynomial.from_terms({(5, 0): 1, (0, 5): 2, (2, 2): -0.7, (0, 0): -1})
        diag = SolveDiagnostics()
        records = solve_system(p, q, SolveOptions(linearization="lin1"), diag)
        tree_p, tree_q = sparse_tree_heuristic(p), sparse_tree_heuristic(q)
        assert (len(tree_p), len(tree_q)) == (7, 10)
        assert not diag.swapped
        assert diag.result.deltas.shape[0] == len(tree_p) * len(tree_q)
        assert sum(r.multiplicity for r in records) == 20

    def test_linearization_choices_agree(self):
        rng = np.random.default_rng(31)
        p = random_polynomial(rng, 4, complex_coeffs=True)
        q = random_polynomial(rng, 4, complex_coeffs=True)
        lin1 = solve_system(p, q, SolveOptions(linearization="lin1"))
        lin2 = solve_system(p, q, SolveOptions(linearization="lin2"))
        assert len(lin1) == len(lin2) == 16
        match_pairwise(lin1, [(r.x, r.y) for r in lin2], 1e-7)

    def test_conjugate_closure_for_real_systems(self):
        rng = np.random.default_rng(32)
        p = random_polynomial(rng, 4)
        q = random_polynomial(rng, 4)
        records = solve_system(p, q)
        pairs = [(r.x, r.y) for r in records]
        match_pairwise(records, [(np.conj(x), np.conj(y)) for x, y in pairs], 1e-7)

    def test_newton_contraction(self):
        """One step shrinks the residual at least tenfold near simple roots."""
        rng = np.random.default_rng(33)
        p = random_polynomial(rng, 3)
        q = random_polynomial(rng, 3)
        roots = solve_system(p, q)
        scale = max(p.coeff_norm(), q.coeff_norm())
        checked = 0
        for rec in roots[:5]:
            x0 = rec.x + 1e-4
            y0 = rec.y - 1e-4
            if accuracy(p, q, x0, y0) > 1e-2:
                continue
            before = max(abs(p(x0, y0)), abs(q(x0, y0)))
            x1, y1, _ = newton_refine(p, q, x0, y0, steps=1)
            after = max(abs(p(x1, y1)), abs(q(x1, y1)))
            assert after <= before / 10.0 or after <= 1e2 * np.finfo(float).eps * scale
            checked += 1
        assert checked > 0

    def test_sorted_by_accuracy(self):
        rng = np.random.default_rng(34)
        p = random_polynomial(rng, 3)
        q = random_polynomial(rng, 3)
        records = solve_system(p, q)
        accs = [r.accuracy for r in records]
        assert accs == sorted(accs)

    def test_empty_first_orientation_retries_swapped(self):
        p, q = retry_system()
        diag = SolveDiagnostics()
        records = solve_system(p, q, SolveOptions(linearization="lin1"), diag)
        assert diag.swapped
        assert diag.warnings == ["empty regular part: no candidates"]
        assert len(records) == 16
        assert sum(r.multiplicity for r in records) == 16
        scale = max(p.coeff_norm(), q.coeff_norm())
        assert all(max(abs(p(r.x, r.y)), abs(q(r.x, r.y))) <= 1e-12 * scale for r in records)
        # lin2 needs no retry here; the swapped lin1 roots must come back in
        # the caller's (x, y) order
        lin2_diag = SolveDiagnostics()
        lin2 = solve_system(p, q, SolveOptions(linearization="lin2"), lin2_diag)
        assert not lin2_diag.swapped
        match_pairwise(records, [(r.x, r.y) for r in lin2], 1e-8)

    def test_residual_filter_shortfall_is_reported(self):
        """sparse-auto seed-0 system 84: the regular part has all 64
        candidates, but two fail the residual filter (the shortfall itself
        is the staircase's accuracy, ROADMAP item 1); the solve says so.
        The rejected count follows the BLAS thread count, so the solve runs
        in a child process with two OpenBLAS threads."""
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
                   PYTHONPATH=os.pathsep.join(str(ROOT / d) for d in ("src", "perfbench")))
        child = subprocess.run([sys.executable, "-c", SHORTFALL_SOLVE], env=env,
                               capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        candidates, rejected, swapped, roots, warnings = json.loads(child.stdout)
        assert (candidates, rejected, swapped) == (64, 2, False)
        assert roots == 62
        assert warnings == ["2 of 64 candidates failed the residual filter"]

    @pytest.mark.parametrize("method", ["auto", "lin1"])
    def test_exact_singular_root_has_infinite_accuracy(self, method):
        p = BivariatePolynomial.from_terms({(2, 0): 1.0})
        q = BivariatePolynomial.from_terms({(0, 2): 1.0})
        (rec,) = solve_system(p, q, SolveOptions(linearization=method))
        assert (rec.x, rec.y, rec.multiplicity) == (0.0, 0.0, 4)
        assert rec.residual == 0.0
        assert rec.condition == rec.accuracy == float("inf")
        assert rec.accuracy == accuracy(p, q, rec.x, rec.y)

    def test_non_zero_dimensional_system_rejected(self):
        # the staircase ends in a k x 0 block, an empty regular part
        p = BivariatePolynomial.from_terms({(1, 0): 1, (0, 1): 1, (0, 0): -1})
        for method in ("lin1", "lin2"):
            diag = SolveDiagnostics()
            with pytest.raises(DegenerateSystemError):
                solve_system(p, p, SolveOptions(linearization=method), diag)
            assert diag.warnings == [
                "empty regular part: no candidates",
                "empty regular part: no candidates (swapped variables)",
            ], method

    def test_zero_polynomial_rejected(self):
        p = BivariatePolynomial.from_terms({(1, 0): 1})
        with pytest.raises(ValueError):
            solve_system(p, BivariatePolynomial.zero())

    def test_diagnostics_populated(self):
        rng = np.random.default_rng(35)
        p = random_polynomial(rng, 3)
        q = random_polynomial(rng, 3)
        diag = SolveDiagnostics()
        solve_system(p, q, SolveOptions(linearization="lin1"), diag)
        assert diag.result.deltas.shape[0] == 25
        assert diag.result.reduced.shape[0] == 9
        assert diag.candidates == 9

    def test_diagnostics_keep_the_latest_attempts_result(self, monkeypatch):
        assert [f.name for f in dataclasses.fields(SolveDiagnostics)] == [
            "warnings", "swapped", "rejected", "result"
        ]
        assert SolveDiagnostics().candidates == 0
        p, q = retry_system()
        diag = SolveDiagnostics()
        solve_system(p, q, SolveOptions(linearization="lin1"), diag)
        # the swapped attempt's, not the first attempt's empty regular part
        assert diag.swapped and diag.candidates >= 16

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("eigensolve failed")

        # a failure inside an attempt propagates, and the attempt leaves no result
        monkeypatch.setattr(twopar, "solve_full", failing)
        with pytest.raises(np.linalg.LinAlgError):
            solve_system(p, q, SolveOptions(), diag)
        assert diag.result is None and diag.candidates == 0

    @pytest.mark.parametrize("method,p,q", [
        # common line x + y = 1: the 2x2 lin2 deltas look regular
        ("lin2", {(1, 0): 1, (0, 1): 1, (0, 0): -1},
         {(2, 0): 1, (1, 1): 2, (0, 2): 1, (0, 0): -1}),
        # the line x = 1 touches the circle at (1, 0)
        ("lin1", {(2, 0): 1, (0, 2): 1, (0, 0): -1}, {(1, 0): 1, (0, 0): -1}),
    ], ids=["curve-lin2", "tangent-lin1"])
    def test_singular_jacobian_roots_are_warned(self, method, p, q):
        p, q = BivariatePolynomial.from_terms(p), BivariatePolynomial.from_terms(q)
        diag = SolveDiagnostics()
        records = solve_system(p, q, SolveOptions(linearization=method), diag)
        singular = sum(r.accuracy == float("inf") for r in records)
        assert singular >= 1
        assert diag.warnings == [
            f"{singular} of {len(records)} roots have a singular Jacobian (accuracy inf): "
            "a multiple root or a curve of common zeros"
        ]


# (p scale, q scale): powers of two, decimal, and one polynomial scaled alone
COEFFICIENT_SCALES = [(2.0**40, 2.0**40), (2.0**-40, 2.0**-40), (1e8, 1e8), (1e-8, 1e-8),
                      (1e8, 1.0), (1.0, 1e-8)]


@pytest.mark.parametrize("name", ["quadric-lin1", "cubic-auto"])
def test_roots_do_not_depend_on_the_coefficient_scale(name):
    """Scaling p or q scales only the coefficient entries of its pencil, not
    the structural ones, so the solve runs at a power-of-two scale of each
    polynomial.  The first 20 systems of each gated benchmark workload give
    the unscaled roots at every scale, to 1e-11 relative to max(1, |x|, |y|)."""
    workload = workloads.WORKLOADS[name]
    opts = SolveOptions(linearization=workload.linearization)
    for tables in itertools.islice(workloads.systems(workload, 0), 20):
        p, q = (BivariatePolynomial(t) for t in tables)
        reference = solve_system(p, q, opts)
        ref = np.array([(r.x, r.y) for r in reference])
        for sp, sq in COEFFICIENT_SCALES:
            records = solve_system(BivariatePolynomial(sp * p.coeffs),
                                   BivariatePolynomial(sq * q.coeffs), opts)
            assert sum(r.multiplicity for r in records) == sum(r.multiplicity for r in reference)
            got = np.array([(r.x, r.y) for r in records])
            dist = np.abs(got[:, None, :] - ref[None, :, :]).max(axis=2)
            rel = dist / np.maximum(1.0, np.abs(ref).max(axis=1))[None, :]
            rows, cols = linear_sum_assignment(rel)
            assert len(rows) == len(ref) and rel[rows, cols].max() <= 1e-11, (sp, sq)
