"""Span tracing from outside the program.

`Tracer.installed()` replaces the functions that `detrep.solver` and
`detrep.twopar` call through module attributes (the public layer entry
points, plus the solver's per-orientation `_solve_once`, which marks each
attempt) with wrappers that record a span per call; leaving the block puts
the originals back.  Spans live in memory until the benchmark writes them
out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    system: int
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _solve_full_info(result) -> dict:
    return {
        "delta_dim": result.deltas.shape[0],
        "reduced_dim": result.reduced.shape[0],
        "itemsize": result.deltas.delta0.itemsize,
    }


def _attempt_info(records, args) -> dict:
    # _solve_once(p, q, opts, diagnostics) fills diagnostics.candidates
    return {
        "candidates": args[3].candidates,
        "accepted": sum(r.multiplicity for r in records),
    }


def traced_calls(solver, twopar, monomial_tree, representation_tree):
    """(module, attribute, span name, info hook) for every wrapped call."""
    return (
        (solver, "solve_system", "solver.solve", None),
        (solver, "_solve_once", "solver.attempt", _attempt_info),
        (solver, "newton_refine", "solver.newton", None),
        (representation_tree, "linearize", "representation_tree.linearize", None),
        (monomial_tree, "generic_tree", "monomial_tree.generic_tree", None),
        (monomial_tree, "assemble_pencil_from_monomial_tree", "monomial_tree.assemble", None),
        (twopar, "solve_full", "twopar.solve_full", lambda res, args: _solve_full_info(res)),
        (twopar, "operator_determinants", "twopar.kron", None),
        (twopar, "is_delta0_nonsingular", "twopar.rank_test", None),
        (twopar, "extract_regular_part", "twopar.staircase",
         lambda res, args: {"steps": len(res[1].steps)}),
        (twopar, "solve_regular", "twopar.eig", None),
    )


class Tracer:
    def __init__(self, calls):
        self.calls = calls
        self.spans: list[Span] = []
        self.system = -1
        self._open: list[int] = []

    def _wrap(self, func, name, info_hook):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.system)
            self.spans.append(span)
            self._open.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if info_hook is not None:
                span.info = info_hook(result, args)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in self.calls]
        try:
            for (module, attr, name, hook), (_, _, func) in zip(self.calls, originals):
                setattr(module, attr, self._wrap(func, name, hook))
            yield self
        finally:
            for module, attr, func in originals:
                setattr(module, attr, func)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.
    Calls nest strictly in one thread, so children never overlap."""
    own = [s.duration for s in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own
