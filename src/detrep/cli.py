"""Command-line interface: linearize, solve, verify, bench.

File formats are the JSON schemas of `detrep.serialize`.  The environment
variable DETREP_LOG selects the log level.  Exit codes: 0 success, 2
completed with warnings, 1 failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import time

import numpy as np

from . import monomial_tree, representation_tree, serialize, solver
from .polynomials import BivariatePolynomial, MatrixBivariatePolynomial

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARTIAL = 2


def _configure_logging():
    level = os.environ.get("DETREP_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def _emit(payload, output: str | None):
    if output:
        serialize.dump(payload, output)
    else:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")


def cmd_linearize(args) -> int:
    try:
        poly = serialize.polynomial_from_json(serialize.load(args.input))
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read polynomial file {args.input!r}: {exc}", file=sys.stderr)
        return EXIT_FAILURE

    try:
        if args.method == "lin1":
            tree = monomial_tree.sparse_tree_heuristic(poly)
            pencil = monomial_tree.assemble_pencil_from_monomial_tree(poly, tree)
            tree_json = serialize.monomial_tree_to_json(tree)
        else:
            if isinstance(poly, MatrixBivariatePolynomial):
                print("error: method 'lin2' supports scalar polynomials only", file=sys.stderr)
                return EXIT_FAILURE
            tree = representation_tree.build_tree(poly)
            pencil = representation_tree.assemble_pencil_from_representation_tree(tree)
            tree_json = serialize.representation_tree_to_json(tree)
    except ValueError as exc:  # a constant or zero polynomial has no tree
        print(f"error: cannot linearize {args.input!r}: {exc}", file=sys.stderr)
        return EXIT_FAILURE

    payload = serialize.pencil_to_json(pencil)
    payload.update(method=args.method, tree=tree_json)
    _emit(payload, args.output)
    return EXIT_OK


def _solve_options(args, file_opts) -> solver.SolveOptions:
    """Options from the flags, overridden by the system file's "options";
    SolveOptions validates the combination once it is complete."""
    flags = {
        "linearization": args.method,
        "rank_tol": args.rank_tol,
        "newton_steps": args.newton_steps,
        "residual_accept": args.residual_accept,
    }
    overrides = {key: val for key, val in flags.items() if val is not None}
    file_opts = dict(file_opts)
    unknown = sorted(set(file_opts) - {f.name for f in dataclasses.fields(solver.SolveOptions)})
    if unknown:
        raise ValueError(f"unknown solve option(s): {', '.join(unknown)}")
    overrides.update(file_opts)
    return dataclasses.replace(solver.SolveOptions(), **overrides)


def cmd_solve(args) -> int:
    try:
        p, q, file_opts = serialize.system_from_json(serialize.load(args.input))
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read system file {args.input!r}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    try:
        opts = _solve_options(args, file_opts)
    except (TypeError, ValueError) as exc:
        print(f"error: invalid solve options: {exc}", file=sys.stderr)
        return EXIT_FAILURE

    diagnostics = solver.SolveDiagnostics()
    try:
        records = solver.solve_system(p, q, opts, diagnostics)
    except (solver.DegenerateSystemError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE

    _emit(serialize.roots_to_json(records), args.output)

    if args.dump_deltas:
        # the deltas and staircase of the orientation that gave the roots
        result = diagnostics.result
        steps = result.staircase.steps if result.staircase is not None else []
        dump = {
            "swapped": diagnostics.swapped,
            "arithmetic": "real" if np.isrealobj(result.deltas.delta0) else "complex",
            **{name: serialize._matrix_to_json(getattr(result.deltas, name))
               for name in ("delta0", "delta1", "delta2")},
            "staircase": [dataclasses.asdict(s) for s in steps],
            "warnings": diagnostics.warnings,
        }
        serialize.dump(dump, args.dump_deltas)

    unrefined = sum(1 for r in records if not r.refined)
    if diagnostics.warnings or unrefined:
        for w in diagnostics.warnings:
            print(f"warning: {w}", file=sys.stderr)
        if unrefined:
            print(f"warning: {unrefined} root(s) left unrefined", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.samples < 1:
        print(f"error: --samples must be at least 1, got {args.samples}", file=sys.stderr)
        return EXIT_FAILURE
    try:
        pencil = serialize.pencil_from_json(serialize.load(args.pencil))
        poly = serialize.polynomial_from_json(serialize.load(args.polynomial))
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    block = getattr(poly, "block_size", 1)
    if pencil.block_size != block:
        print(
            f"error: pencil block size {pencil.block_size} does not match "
            f"polynomial block size {block}",
            file=sys.stderr,
        )
        return EXIT_FAILURE

    rng = np.random.default_rng(args.seed)
    worst = 0.0
    matrix_case = isinstance(poly, MatrixBivariatePolynomial)
    for _ in range(args.samples):
        x = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        y = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        target = np.linalg.det(poly(x, y)) if matrix_case else poly(x, y)
        value = pencil.determinant(x, y)
        denom = max(abs(target), 1e-30)
        worst = max(worst, abs(value - target) / denom)
    print(f"max relative determinant error over {args.samples} samples: {worst:.3e}")
    return EXIT_OK if worst <= args.tolerance else EXIT_FAILURE


def _bench_row(n: int, seed: int, sizes_only: bool, opts: solver.SolveOptions,
               warnings: list[str]) -> dict:
    """One table row; a method that raises DegenerateSystemError gets 0
    roots and no accuracy, and its message goes to `warnings`."""
    rng = np.random.default_rng((seed, n))
    def rand_poly():
        table = np.zeros((n + 1, n + 1))
        for j in range(n + 1):
            for k in range(n + 1 - j):
                table[j, k] = rng.uniform(0.0, 1.0)
        return BivariatePolynomial(table)

    p, q = rand_poly(), rand_poly()
    lin1_size = len(monomial_tree.sparse_tree_heuristic(p))
    lin2_size = representation_tree.linearize(p).size
    row = {
        "degree": n,
        "lin1_size": lin1_size,
        "lin2_size": lin2_size,
        "lin1_delta_size": lin1_size * lin1_size,
        "lin2_delta_size": lin2_size * lin2_size,
    }
    if sizes_only:
        return row
    for method in ("lin1", "lin2"):
        start = time.perf_counter()
        try:
            records = solver.solve_system(p, q, dataclasses.replace(opts, linearization=method))
        except solver.DegenerateSystemError as exc:
            warnings.append(f"degree {n} {method}: {exc}")
            records = []
        elapsed = time.perf_counter() - start
        row[f"{method}_roots"] = sum(r.multiplicity for r in records)
        row[f"{method}_max_accuracy"] = max((r.accuracy for r in records), default=None)
        row[f"{method}_seconds"] = elapsed
    return row


def cmd_bench(args) -> int:
    lo, hi = args.degrees
    if not (3 <= lo <= hi <= 12):
        print("error: degree range must satisfy 3 <= a <= b <= 12", file=sys.stderr)
        return EXIT_FAILURE
    try:
        opts = solver.SolveOptions(newton_steps=args.newton_steps)
    except (TypeError, ValueError) as exc:
        print(f"error: invalid bench options: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    warnings: list[str] = []
    rows = [_bench_row(n, args.seed, args.sizes_only, opts, warnings) for n in range(lo, hi + 1)]

    headers = list(rows[0].keys())
    print("  ".join(f"{h:>18}" for h in headers))
    for row in rows:
        cells = ("-" if row.get(h) is None else row[h] for h in headers)  # None: the method raised
        print("  ".join(f"{v:>18.3e}" if isinstance(v, float) else f"{v:>18}" for v in cells))
    if args.output:
        serialize.dump(rows, args.output)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return EXIT_PARTIAL if warnings else EXIT_OK


def _parse_degree_range(text: str):
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    value = int(text)
    return value, value


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_FAILURE: argparse's own code 2 is
    EXIT_PARTIAL here.  Subcommand parsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_FAILURE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="detrep",
        description="Determinantal representations of bivariate polynomials and "
        "eigenvalue-based root finding for systems of two of them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lin = sub.add_parser("linearize", help="build a pencil A + xB + yC for a polynomial file")
    p_lin.add_argument("input", help="polynomial JSON file")
    p_lin.add_argument("--method", choices=("lin1", "lin2"), default="lin1")
    p_lin.add_argument("--output", help="write the pencil JSON here instead of stdout")
    p_lin.set_defaults(func=cmd_linearize)

    p_solve = sub.add_parser("solve", help="compute all roots of a two-polynomial system file")
    p_solve.add_argument("input", help="system JSON file with entries 'p' and 'q'")
    p_solve.add_argument("--method", choices=solver.LINEARIZATIONS, default="auto")
    p_solve.add_argument("--rank-tol", type=float, default=None)
    p_solve.add_argument("--newton-steps", type=int, default=None)
    p_solve.add_argument("--residual-accept", type=float, default=None)
    p_solve.add_argument("--dump-deltas", metavar="PATH",
                         help="dump the operator determinants of the orientation "
                         "that gave the roots, and their arithmetic, to a JSON file")
    p_solve.add_argument("--output", help="write the roots JSON here instead of stdout")
    p_solve.set_defaults(func=cmd_solve)

    p_ver = sub.add_parser("verify", help="check det(A + xB + yC) against a polynomial")
    p_ver.add_argument("pencil", help="pencil JSON file")
    p_ver.add_argument("polynomial", help="polynomial JSON file")
    p_ver.add_argument("--samples", type=int, default=20)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--tolerance", type=float, default=1e-8)
    p_ver.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="size table and solve statistics for random systems")
    p_bench.add_argument("--degrees", type=_parse_degree_range, default=(3, 10),
                         metavar="A..B", help="degree range, e.g. 3..10")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--sizes-only", action="store_true",
                         help="report only the deterministic size columns")
    p_bench.add_argument("--newton-steps", type=int, default=2)
    p_bench.add_argument("--output", help="also write rows as JSON here")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
