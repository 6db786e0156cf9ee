"""The traced benchmark still fits the code.

`perfbench/spans.py` wraps solver and twopar functions by name and reads
fields of their results; a rename would otherwise show only when the
traced benchmark runs.  This runs the traced benchmark over the counted
systems of three workloads (about 2.5 s) and checks its exact counts."""

import sys
from pathlib import Path

import pytest

import detrep

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402

EXACT_COUNTS = {
    # lin1 conics: the 9 x 9 deltas exceed the Bezout bound of 4, so no
    # rank test, and a 2-step staircase to the 4 roots; dense input, so the
    # sparse tree is the generic one
    "quadric-lin1": {
        "twopar.staircase_steps": 2.0,
        "twopar.rank_test_calls": 0.0,
        "twopar.reduced_dim": 4.0,
        "pencils.size.generic": 3.0,
        "pencils.size.sparse": 3.0,
        "pencils.size.representation": 2.0,
    },
    # lin1 cubics: no rank test (25 > 9), then a 3-step staircase from the
    # 25 x 25 deltas to the 9 roots, in the first orientation; a step that
    # flips a rank decision on any counted system changes these
    "cubic-lin1": {
        "twopar.staircase_steps": 3.0,
        "twopar.rank_test_calls": 0.0,
        "twopar.delta_dim": 25.0,
        "twopar.reduced_dim": 9.0,
        "solver.attempts": 1.0,
        "pencils.size.generic": 5.0,
        "pencils.size.sparse": 5.0,
        "pencils.size.representation": 3.0,
    },
    # lin2 cubics: the regular path, one rank test (the 9 x 9 deltas are at
    # the Bezout bound) and no staircase; the size-3 special representation
    # tree
    "cubic-auto": {
        "twopar.staircase_steps": 0.0,
        "twopar.rank_test_calls": 1.0,
        "pencils.size.generic": 5.0,
        "pencils.size.sparse": 5.0,
        "pencils.size.representation": 3.0,
    },
}


@pytest.mark.parametrize("name", sorted(EXACT_COUNTS))
def test_traced_run_is_sound_and_counts_hold(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    bench = run.Bench(workloads.WORKLOADS[name], 0, detrep)
    metrics, outcomes, notes, sound = run.run_traced(bench, 0.0, detrep)
    assert sound, notes
    assert set(outcomes) == {"ok"}
    assert notes["traced_systems"] == notes["counted_systems"]
    for metric, count in EXACT_COUNTS[name].items():
        assert metrics[metric] == (count, "count"), metric
