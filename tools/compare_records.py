"""Same-answers check between two source trees of detrep.

    python3 tools/compare_records.py dump --src SRC --workload W --seed S --systems K
        [--linearization {auto,lin1,lin2}] OUT
    python3 tools/compare_records.py compare A B --rtol R

`dump` imports detrep from SRC (the directory that holds the `detrep`
package, e.g. the `src` of a checkout), draws the first K systems of
workload W from `perfbench/workloads.py` with seed S, solves each with the
workload's linearization or the one --linearization names, and pickles the
linearization and one record per system to OUT: the outcome ("ok" or the
exception type), the swap flag, the warnings, `rejected`, every root
record, the Bezout number, and SHA-256 digests of the two pencils of the
first orientation (signed zeros folded to +0).
The dump also names the LAPACK that served it: the zggev symbol detrep
bound, or the scipy wrapper it fell back to, and the LAPACK numpy was built
with, since a build is a rounding source.  BLAS runs on one thread unless
OPENBLAS_NUM_THREADS says otherwise, so a dump repeats exactly.

`compare` sorts the systems of two dumps into identical records, records
that differ only in root values within relative tolerance R (pencil
digests and residual, condition and accuracy figures may differ there),
and changed ones.  It refuses two dumps of different inputs or made with
different linearizations.  It prints each side's LAPACK, noting when they
differ, each side's outcome table and every changed system, and exits 1
when any system changed: another outcome, swap flag, warning, `rejected`,
root count or multiplicity, or a root beyond R.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import os
import pickle
import sys
from collections import Counter
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def pencil_digest(pencil) -> str:
    digest = hashlib.sha256()
    for mat in (pencil.A, pencil.B, pencil.C):
        digest.update(np.ascontiguousarray(mat + 0.0).tobytes())
    return digest.hexdigest()


def lapack_record() -> str:
    """The zggev that the imported detrep calls and numpy's LAPACK build."""
    from detrep import _lapack

    # trees that predate the binding load zggev from scipy's _flapack
    zggev = getattr(_lapack, "GGEV_SYMBOL", "scipy _flapack")
    lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    return f"zggev {zggev}; numpy LAPACK {lapack.get('name')} {lapack.get('version')}"


def dump(src: str, workload: str, seed: int, systems: int, out: str,
         linearization: str | None = None) -> None:
    sys.path.insert(0, str(Path(src).resolve()))
    sys.path.insert(0, str(PERFBENCH))
    import workloads

    # the staircase's warnings are in each record; no need to log them too
    logging.getLogger("detrep").setLevel(logging.ERROR)
    from detrep import solver
    from detrep.polynomials import BivariatePolynomial

    spec = workloads.WORKLOADS[workload]
    method = linearization or spec.linearization
    options = solver.SolveOptions(linearization=method)
    stream = workloads.systems(spec, seed)
    records = []
    for _ in range(systems):
        p, q = (BivariatePolynomial(t) for t in next(stream))
        diagnostics = solver.SolveDiagnostics()
        try:
            roots = solver.solve_system(p, q, options, diagnostics)
            outcome = "ok"
        except Exception as exc:  # an exception is an outcome to compare
            roots, outcome = [], type(exc).__name__
        pencils = [pencil_digest(solver.linearize_polynomial(f, method)) for f in (p, q)]
        records.append({
            "outcome": outcome,
            "swapped": diagnostics.swapped,
            "warnings": list(diagnostics.warnings),
            "rejected": diagnostics.rejected,
            "bezout": p.degree * q.degree,
            "roots": [(r.x, r.y, r.residual, r.condition, r.accuracy, r.refined, r.multiplicity)
                      for r in roots],
            "pencils": pencils,
        })
    with open(out, "wb") as fh:
        pickle.dump({"workload": workload, "seed": seed, "linearization": method,
                     "lapack": lapack_record(), "records": records}, fh)


def outcome_label(rec) -> str:
    if rec["outcome"] != "ok":
        return "raise"
    if sum(r[6] for r in rec["roots"]) < rec["bezout"]:
        return "short"
    return "swap" if rec["swapped"] else "direct"


def root_distance(a, b) -> float:
    """Largest relative distance from a root of `a` to its nearest root of
    `b` and back: max(|dx|, |dy|) over the larger coordinate modulus."""
    worst = 0.0
    for one, other in ((a, b), (b, a)):
        for x, y, *_ in one:
            near = min(max(abs(x - u), abs(y - v)) for u, v, *_ in other)
            worst = max(worst, near / max(abs(x), abs(y), 1e-300))
    return worst


def classify(a, b, rtol: float):
    """("identical" | "within" | "changed", relative root distance, reason)."""
    if pickle.dumps(a) == pickle.dumps(b):
        return "identical", 0.0, ""
    for key in ("outcome", "swapped", "warnings", "rejected"):
        if a[key] != b[key]:
            return "changed", float("nan"), f"{key}: {a[key]!r} -> {b[key]!r}"
    mults = sorted(r[6] for r in a["roots"]), sorted(r[6] for r in b["roots"])
    if mults[0] != mults[1]:
        return "changed", float("nan"), f"roots: {sum(mults[0])} -> {sum(mults[1])}"
    refined = sorted(r[5] for r in a["roots"]), sorted(r[5] for r in b["roots"])
    if refined[0] != refined[1]:
        return "changed", float("nan"), "refined flags differ"
    dist = root_distance(a["roots"], b["roots"]) if a["roots"] else 0.0
    if dist > rtol:
        return "changed", dist, f"roots move by {dist:.2e} relative"
    return "within", dist, ""


def compare(path_a: str, path_b: str, rtol: float) -> int:
    with open(path_a, "rb") as fh:
        a = pickle.load(fh)
    with open(path_b, "rb") as fh:
        b = pickle.load(fh)
    if (a["workload"], a["seed"]) != (b["workload"], b["seed"]):
        print(f"different inputs: {a['workload']} seed {a['seed']} against "
              f"{b['workload']} seed {b['seed']}")
        return 1
    methods = [data.get("linearization", "not recorded") for data in (a, b)]
    if methods[0] != methods[1]:
        print(f"different pencils: {methods[0]} against {methods[1]}")
        return 1
    pairs = list(zip(a["records"], b["records"]))
    kinds, changed, worst = Counter(), [], 0.0
    for i, (ra, rb) in enumerate(pairs):
        kind, dist, reason = classify(ra, rb, rtol)
        kinds[kind] += 1
        if kind == "within":
            worst = max(worst, dist)
        if kind == "changed":
            changed.append((i, reason, outcome_label(ra), outcome_label(rb)))
    print(f"{a['workload']} seed {a['seed']}, {methods[0]}, {len(pairs)} systems")
    lapacks = [data.get("lapack", "not recorded") for data in (a, b)]
    for side, lapack in zip("AB", lapacks):
        print(f"  LAPACK {side}: {lapack}")
    if lapacks[0] != lapacks[1]:
        print("  note: the two dumps ran on different LAPACKs, a rounding source of its own")
    for side, recs in (("A", a["records"]), ("B", b["records"])):
        table = Counter(outcome_label(r) for r in recs[: len(pairs)])
        print(f"  outcomes {side}: " + ", ".join(f"{k} {table[k]}" for k in
                                               ("direct", "swap", "raise", "short")))
    print(f"  identical {kinds['identical']}, within rtol {rtol:g} {kinds['within']} "
          f"(largest relative root distance {worst:.2e}), changed {kinds['changed']}")
    for i, reason, la, lb in changed:
        print(f"  system {i}: {la} -> {lb}; {reason}")
    return 1 if changed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    d = sub.add_parser("dump", help="solve the leading systems of a workload and pickle them")
    d.add_argument("--src", required=True, help="directory holding the detrep package")
    d.add_argument("--workload", required=True)
    d.add_argument("--seed", type=int, required=True)
    d.add_argument("--systems", type=int, required=True)
    d.add_argument("--linearization", choices=("auto", "lin1", "lin2"),
                   help="the pencil to solve with (default: the workload's)")
    d.add_argument("out")
    c = sub.add_parser("compare", help="compare two dumps of the same inputs")
    c.add_argument("a")
    c.add_argument("b")
    c.add_argument("--rtol", type=float, required=True)
    args = parser.parse_args(argv)
    if args.command == "dump":
        dump(args.src, args.workload, args.seed, args.systems, args.out, args.linearization)
        return 0
    return compare(args.a, args.b, args.rtol)


if __name__ == "__main__":
    sys.exit(main())
