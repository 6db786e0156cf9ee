"""Tests of the benchmark's own parts: the seeded generator, the independent
root-set check, the span bookkeeping and the tail percentile."""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402


def take(workload, seed, count):
    stream = workloads.systems(workload, seed)
    return [next(stream) for _ in range(count)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_and_follows_the_seed(name):
    workload = workloads.WORKLOADS[name]
    first = take(workload, 3, 4)
    again = take(workload, 3, 4)
    other = take(workload, 4, 4)
    assert workloads.tables_digest(first) == workloads.tables_digest(again)
    assert workloads.tables_digest(first) != workloads.tables_digest(other)
    for (p, q), (p2, q2) in zip(first, again):
        assert np.array_equal(p, p2) and np.array_equal(q, q2)


def test_benchmark_spec_names_defined_workloads():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_small_rotation_visits_each_degree_in_turn():
    pairs = take(workloads.WORKLOADS["small-auto"], 0, 6)
    assert [verify.table_degree(p) for p, _ in pairs] == [3, 4, 5, 3, 4, 5]


def test_cubic_workloads_draw_the_same_systems():
    lin1 = take(workloads.WORKLOADS["cubic-lin1"], 5, 3)
    auto = take(workloads.WORKLOADS["cubic-auto"], 5, 3)
    assert workloads.tables_digest(lin1) == workloads.tables_digest(auto)


def test_sparse_tables_hold_pure_powers_constant_and_three_more_terms():
    for p, q in take(workloads.WORKLOADS["sparse-auto"], 0, 5):
        for table in (p, q):
            n = table.shape[0] - 1
            assert np.count_nonzero(table) == 3 + workloads.SPARSE_EXTRA_TERMS
            assert table[n, 0] and table[0, n] and table[0, 0]


# p = (x - 1)(x - 2), q = (y - 3)(y + 1)(y - 1/2): six simple roots
P = np.zeros((4, 4))
P[0, 0], P[1, 0], P[2, 0] = 2.0, -3.0, 1.0
Q = np.zeros((4, 4))
Q[0, 0], Q[0, 1], Q[0, 2], Q[0, 3] = 1.5, -2.0, -2.5, 1.0
ROOTS = [(complex(x), complex(y), 1) for x in (1, 2) for y in (3, -1, 0.5)]


def test_check_accepts_the_exact_root_set():
    assert verify.root_set_problems(P, Q, ROOTS) == []


def test_check_rejects_a_dropped_root():
    assert verify.root_set_problems(P, Q, ROOTS[:-1]) == [("missing", "5 of 6 roots")]


def test_check_rejects_a_duplicated_root():
    kinds = [kind for kind, _ in verify.root_set_problems(P, Q, ROOTS + [ROOTS[2]])]
    assert kinds == ["excess", "coincident"]


def test_check_rejects_a_root_perturbed_by_1e_3():
    x, y, m = ROOTS[4]
    problems = verify.root_set_problems(P, Q, ROOTS[:4] + [(x + 1e-3, y, m)] + ROOTS[5:])
    assert [kind for kind, _ in problems] == ["residual"]


def test_horner_matches_direct_sum():
    rng = np.random.default_rng(1)
    table = workloads.dense_table(4, rng)
    x, y = 0.3 - 0.2j, -1.1 + 0.4j
    direct = sum(table[j, k] * x**j * y**k for j in range(5) for k in range(5 - j))
    assert abs(verify.horner(table, np.array(x), np.array(y)) - direct) < 1e-12


def test_solver_roots_pass_the_check():
    detrep = pytest.importorskip("detrep")
    p, q = take(workloads.WORKLOADS["small-auto"], 0, 1)[0]
    roots = detrep.solve_system(detrep.BivariatePolynomial(p), detrep.BivariatePolynomial(q))
    assert verify.root_set_problems(p, q, [(r.x, r.y, r.multiplicity) for r in roots]) == []


def test_tracer_nests_spans_and_restores_the_originals():
    module = types.SimpleNamespace()
    module.inner = lambda: 1

    def outer():
        return module.inner() + module.inner()

    module.outer = outer
    tracer = spans.Tracer(((module, "outer", "outer", None),
                           (module, "inner", "inner", lambda res, args: {"value": res})))
    with tracer.installed():
        assert module.outer() == 2
    assert module.outer is outer
    assert [s.name for s in tracer.spans] == ["outer", "inner", "inner"]
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    assert tracer.spans[1].info == {"value": 1}
    own = spans.self_times(tracer.spans)
    assert sum(own) == pytest.approx(tracer.spans[0].duration)
    assert own[0] == pytest.approx(
        tracer.spans[0].duration - tracer.spans[1].duration - tracer.spans[2].duration
    )


def test_tracer_restores_the_originals_after_an_error():
    module = types.SimpleNamespace(fail=lambda: 1 / 0)
    original = module.fail
    tracer = spans.Tracer(((module, "fail", "fail", None),))
    with pytest.raises(ZeroDivisionError), tracer.installed():
        module.fail()
    assert module.fail is original
    assert tracer.spans[0].end >= tracer.spans[0].start


@pytest.mark.parametrize("count,percentile", [(100, 90), (400, 90), (60, 83), (25, 60), (15, 50)])
def test_tail_percentile_leaves_ten_samples_beyond(count, percentile):
    assert run.tail_percentile(count) == percentile
    samples = list(range(count))
    if percentile > 50:
        assert count - 1 - run.nearest_rank(samples, percentile) >= run.TAIL_BEYOND
