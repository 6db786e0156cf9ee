"""Seeded solve benchmark for detrep.

    python3 perfbench/run.py --workload small-auto --seed 0 --seconds 55 --trace 0

Run from the repository root; detrep is imported from ./src.  The run
generates systems from the seed (see workloads.py) and solves them one
after another with `detrep.solve_system` for --seconds seconds, checking
every answer independently (see verify.py).

A system fails when solve_system raises or when its root set fails the
check.  Failures are counted, not fatal: they lower `systems_per_s` and
are listed in the `failed` field.  `correct` is false when a root set
claims more roots than the Bezout bound, which no tolerance excuses, or
when traced self times do not add up to the traced wall time.

--trace 0 prints the end-to-end metrics, measured untraced.  --trace 1
wraps the layer boundaries (see spans.py), solves every system traced and
untraced in alternating order, and prints per-layer metrics, the tracing
overhead among them.  The last stdout line is the result object; the line
before it is a JSON record of the environment and the inputs.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import logging
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import scipy

import spans
import verify
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
# a percentile is reported as the tail only with this many samples beyond it
TAIL_BEYOND = 10
TAIL_MAX_PERCENTILE = 90
# summed over the run, traced self times must cover the traced wall time
# within this share; one system's gap is no test, since a single preemption
# outside the outermost span is over 1% of a 3 ms solve
SELF_SUM_TOLERANCE = 0.01


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup() -> list[float]:
    """Import plus warm-up solve, each in a fresh interpreter."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(probe), str(SRC)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def git_commit():
    """Commit of the checkout read from .git, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def tail_percentile(n: int) -> int:
    """Highest whole percentile, at most TAIL_MAX_PERCENTILE, that leaves
    TAIL_BEYOND samples above it; the median when none does."""
    best = math.floor(100 * (n - TAIL_BEYOND) / n) if n else 0
    return max(50, min(TAIL_MAX_PERCENTILE, best))


def nearest_rank(values, percentile: int) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(percentile / 100 * len(ordered)) - 1, 0)]


class Bench:
    """The workload's system stream and the solve-and-check of one system."""

    def __init__(self, workload, seed, detrep):
        self.workload = workload
        self.seed = seed
        self.detrep = detrep
        self.options = detrep.SolveOptions(linearization=workload.linearization)
        self.stream = workloads.systems(workload, seed)
        self.systems = 0
        self.digest = hashlib.sha256()
        # only the leading systems are kept, for the exact counts; memory
        # does not grow with the run
        self.leading = []

    def next_system(self):
        pair = next(self.stream)
        self.systems += 1
        workloads.add_to_digest(self.digest, *pair)
        if len(self.leading) < self.workload.count_systems:
            self.leading.append(pair)
        return pair

    def solve(self, p, q):
        """(seconds, outcome, swapped); outcome is "ok", "raised:<type>" or
        "check:<kind of the first problem>"."""
        solver = self.detrep.solver
        P = self.detrep.BivariatePolynomial(p)
        Q = self.detrep.BivariatePolynomial(q)
        diagnostics = solver.SolveDiagnostics()
        start = time.perf_counter()
        try:
            records = solver.solve_system(P, Q, self.options, diagnostics)
        except Exception as exc:  # every failure of the program is an outcome
            return time.perf_counter() - start, f"raised:{type(exc).__name__}", False
        elapsed = time.perf_counter() - start
        problems = verify.root_set_problems(
            p, q, [(r.x, r.y, r.multiplicity) for r in records]
        )
        outcome = f"check:{problems[0][0]}" if problems else "ok"
        return elapsed, outcome, diagnostics.swapped

    def inputs_record(self) -> dict:
        return {
            "systems": self.systems,
            "sha256_all": self.digest.hexdigest(),
            f"sha256_first_{self.workload.count_systems}": workloads.tables_digest(self.leading),
        }


def outcome_record(outcomes, swapped) -> dict:
    counts = Counter(outcomes)
    # solve_system raises DegenerateSystemError only after the swapped retry
    retries = sum(swapped) + counts.get("raised:DegenerateSystemError", 0)
    return {"outcomes": dict(sorted(counts.items())), "swap_retries": retries}


def run_untraced(bench, seconds):
    times, outcomes, swapped = [], [], []
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        elapsed, outcome, swap = bench.solve(*bench.next_system())
        times.append(elapsed)
        outcomes.append(outcome)
        swapped.append(swap)
    good = outcomes.count("ok")
    pct = tail_percentile(len(times))
    metrics = {
        "solve_s.tail": (
            nearest_rank(times, pct) if pct > 50 else statistics.median(times), "s"
        ),
    }
    # printed but not in the result line: on a 2-vCPU host whose speed
    # switches between two states ~1.7x apart for minutes at a time, the
    # median and the mean move with the share of the run spent in each
    # state, while the tail stays in the slow state's range
    reported = {
        "solve_s.p50": (statistics.median(times), "s"),
        # closed loop: the workload's wall time is the time spent in
        # solve_system; generating and checking inputs is the benchmark's own
        "systems_per_s": (good / sum(times), "1/s"),
    }
    notes = {
        "samples": len(times),
        "tail_percentile": pct,
        "reported": {name: {"value": v, "unit": u} for name, (v, u) in reported.items()},
        **outcome_record(outcomes, swapped),
    }
    return metrics, reported, outcomes, notes, True


def pencil_sizes(bench, detrep):
    """Pencil sizes of the three constructions for every polynomial of the
    leading systems, the time of the sparse-tree search on each, and per
    system the time of the generic monomial-tree linearization of both."""
    mt = detrep.monomial_tree
    sizes = defaultdict(list)
    search, linearize = [], []
    for p, q in bench.leading:
        linearize.append(0.0)
        for table in (p, q):
            P = detrep.BivariatePolynomial(table)
            start = time.perf_counter()
            mt.assemble_pencil_from_monomial_tree(P, mt.generic_tree(P.degree))
            linearize[-1] += time.perf_counter() - start
            start = time.perf_counter()
            tree = mt.sparse_tree_heuristic(P)
            search.append(time.perf_counter() - start)
            sizes["generic"].append(mt.generic_tree_size(P.degree))
            sizes["sparse"].append(len(tree))
            sizes["representation"].append(detrep.representation_tree.linearize(P).size)
    return sizes, search, linearize


# span name -> (time metric, whether it takes the span's self time rather
# than its duration, call-count metric)
LAYERS = {
    "representation_tree.linearize": ("representation_tree.linearize_s", False, None),
    "monomial_tree.generic_tree": ("monomial_tree.linearize_s", False, None),
    "monomial_tree.assemble": ("monomial_tree.linearize_s", False, None),
    "twopar.kron": ("twopar.kron_s", False, None),
    "twopar.rank_test": ("twopar.rank_test_s", False, "twopar.rank_test_calls"),
    "twopar.staircase": ("twopar.staircase_s", False, None),
    # solve_regular minus the rank test nested in it
    "twopar.eig": ("twopar.eig_s", True, None),
    "solver.newton": ("solver.newton_s", False, "solver.newton_calls"),
    # filtering, condition SVD, dedupe and the retry loop
    "solver.solve": ("solver.self_s", True, None),
    "solver.attempt": ("solver.self_s", True, "solver.attempts"),
}


def mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer, traced_systems: int, counted_systems: int) -> dict:
    """Per-system means of layer times over all traced systems, and of exact
    counts over the leading `counted_systems`."""
    seconds = defaultdict(float)
    counts = defaultdict(float)
    full_calls, attempts = [], []
    for span, own in zip(tracer.spans, spans.self_times(tracer.spans)):
        counted = span.system < counted_systems
        if span.name in LAYERS:
            time_metric, use_self, count_metric = LAYERS[span.name]
            seconds[time_metric] += own if use_self else span.duration
            if count_metric and counted:
                counts[count_metric] += 1
        if not counted:
            continue
        if span.name == "twopar.staircase":
            counts["twopar.staircase_steps"] += span.info["steps"]
        elif span.name == "twopar.solve_full" and span.info:
            full_calls.append(span.info)
        elif span.name == "solver.attempt" and span.info:
            attempts.append(span.info)

    metrics = {}
    for time_metric, _, count_metric in LAYERS.values():
        metrics[time_metric] = (seconds[time_metric] / traced_systems, "s")
        if count_metric:
            metrics[count_metric] = (counts[count_metric] / counted_systems, "count")
    metrics["twopar.staircase_steps"] = (counts["twopar.staircase_steps"] / counted_systems, "count")
    metrics["twopar.delta_dim"] = (mean([c["delta_dim"] for c in full_calls]), "count")
    metrics["twopar.reduced_dim"] = (mean([c["reduced_dim"] for c in full_calls]), "count")
    # computed, not measured: three N x N delta matrices of the stored dtype
    metrics["twopar.delta_mb"] = (
        mean([3 * c["delta_dim"] ** 2 * c["itemsize"] / 1e6 for c in full_calls]),
        "MB-computed",
    )
    candidates = sum(a["candidates"] for a in attempts)
    accepted = sum(a["accepted"] for a in attempts)
    metrics["solver.accept_ratio"] = (accepted / candidates if candidates else 0.0, "ratio")
    return metrics


def run_traced(bench, seconds, detrep):
    tracer = spans.Tracer(spans.traced_calls(
        detrep.solver, detrep.twopar, detrep.monomial_tree, detrep.representation_tree
    ))
    count = bench.workload.count_systems
    traced_s, plain_s, outcomes, swapped = [], [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < count or time.perf_counter() < deadline:
        p, q = bench.next_system()
        tracer.system = i
        # alternate which run goes first, so neither always meets warm caches
        for traced in ((True, False) if i % 2 == 0 else (False, True)):
            if traced:
                with tracer.installed():
                    elapsed, outcome, swap = bench.solve(p, q)
                traced_s.append(elapsed)
                outcomes.append(outcome)
                swapped.append(swap)
            else:
                plain_s.append(bench.solve(p, q)[0])
        i += 1

    covered = defaultdict(float)
    for span, self_s in zip(tracer.spans, spans.self_times(tracer.spans)):
        covered[span.system] += self_s
    self_gap = abs(sum(traced_s) - sum(covered.values())) / sum(traced_s)
    worst_gap = max(abs(wall - covered[s]) / wall for s, wall in enumerate(traced_s))

    metrics = layer_metrics(tracer, i, count)
    sizes, search, linearize = pencil_sizes(bench, detrep)
    metrics["monomial_tree.sparse_tree_s"] = (mean(search), "s")
    if bench.workload.linearization != "lin1":
        # the solver does not build monomial trees here: time the layer
        # directly on the workload's inputs, as the sparse-tree search is
        metrics["monomial_tree.linearize_s"] = (mean(linearize), "s")
    for kind, values in sizes.items():
        metrics[f"pencils.size.{kind}"] = (mean(values), "count")
    metrics["trace.overhead_s"] = ((sum(traced_s) - sum(plain_s)) / i, "s")

    notes = {
        "traced_systems": i,
        "counted_systems": count,
        "traced_wall_s": sum(traced_s),
        "untraced_wall_s": sum(plain_s),
        "self_sum_gap": self_gap,
        "self_sum_gap_worst_system": worst_gap,
        "self_sum_tolerance": SELF_SUM_TOLERANCE,
        **outcome_record(outcomes, swapped),
    }
    write_spans(tracer, bench)
    return metrics, outcomes, notes, self_gap <= SELF_SUM_TOLERANCE


def write_spans(tracer, bench):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{bench.workload.name}-{bench.seed}.json"
    rows = [
        {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
         "system": s.system, **s.info}
        for s in tracer.spans
    ]
    path.write_text(json.dumps(rows))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "detrep" / "__init__.py").is_file():
        print(f"error: no detrep sources under {SRC}", file=sys.stderr)
        return 2
    setup = measure_setup()

    sys.path.insert(0, str(SRC))
    import detrep
    import detrep.monomial_tree
    import detrep.representation_tree
    import detrep.solver
    import detrep.twopar

    if Path(detrep.__file__).resolve().parent != (SRC / "detrep").resolve():
        print(f"error: detrep imported from {detrep.__file__}, not {SRC}", file=sys.stderr)
        return 2
    # rank-decision warnings of the solver are part of the workload, not output
    logging.getLogger("detrep").addHandler(logging.NullHandler())
    logging.getLogger("detrep").propagate = False

    workload = workloads.WORKLOADS[args.workload]
    bench = Bench(workload, args.seed, detrep)
    reported = {}
    if args.trace:
        metrics, outcomes, notes, sound = run_traced(bench, args.seconds, detrep)
    else:
        metrics, reported, outcomes, notes, sound = run_untraced(bench, args.seconds)
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        )

    failed = sum(1 for o in outcomes if o != "ok")
    # more roots than the Bezout bound is wrong under any tolerance
    sound = sound and "check:excess" not in outcomes
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:12} {name:34} {value:14.6g} {unit}")
    reported["failed_ratio"] = (failed / len(outcomes), "ratio")
    for name, (value, unit) in reported.items():
        print(f"{args.workload:12} {name:34} {value:14.6g} {unit} (reported, not gated)")
    if "tail_percentile" in notes:
        print(f"{args.workload:12} solve_s.tail is p{notes['tail_percentile']} "
              f"of {notes['samples']} samples")
    record = {
        "workload": workload.name,
        "trace": args.trace,
        "environment": environment(args.seed),
        "inputs": bench.inputs_record(),
        "setup_samples_s": setup,
        **notes,
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": sound,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
