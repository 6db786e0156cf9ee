"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py --seeds 0-9 --seconds 55 --output perfbench/baseline.json

For every workload, runs run.py once per seed with tracing off, one after
another, and reports each end-to-end metric's median, quartiles and
quartile spread as a share of the median, for the reported-only metrics
too.  Then runs each workload once
traced (first seed) for the per-layer breakdown.  Outcome counts (swap
retries, raised and check failures) are summed over the untraced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 180


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True,
    )
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def summarise(workload: str, seeds: list[int], seconds: float) -> dict:
    values: dict[str, list[float]] = {}
    units = {}
    outcomes = Counter()
    retries = attempted = failed = 0
    correct = True
    for seed in seeds:
        record, result = run_once(workload, seed, seconds, 0)
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        outcomes.update(record["outcomes"])
        retries += record["swap_retries"]
        # the gated metrics, then those run.py reports without gating
        metrics = {**result["metrics"], **record.get("reported", {})}
        for name, metric in metrics.items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{n}={m['value']:.4g}" for n, m in metrics.items()), flush=True)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "outcomes": dict(sorted(outcomes.items())),
        "swap_retries": retries,
        "environment": record["environment"],
        "metrics": {n: {"unit": units[n], **spread(v)} for n, v in values.items()},
    }


def traced(workload: str, seed: int, seconds: float) -> dict:
    record, result = run_once(workload, seed, seconds, 1)
    record.pop("environment")
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "record": record,
            "metrics": {n: m["value"] for n, m in result["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    parser.add_argument("--output", help="write the summary JSON here")
    args = parser.parse_args(argv)

    output = Path(args.output) if args.output else None
    # workloads collected earlier into the same file are kept
    summary = json.loads(output.read_text()) if output and output.is_file() else {}
    summary.setdefault("workloads", {})
    for name in args.workloads.split(","):
        entry = summarise(name, args.seeds, args.seconds)
        if not args.no_trace:
            entry["traced"] = traced(name, args.seeds[0], args.seconds)
        summary["workloads"][name] = {"seconds": args.seconds, "seeds": args.seeds, **entry}
        for metric, stats in entry["metrics"].items():
            print(f"{name:12} {metric:16} median {stats['median']:.5g} {stats['unit']:6} "
                  f"spread {stats['spread'] if stats['spread'] is not None else float('nan'):.3f}",
                  flush=True)
        if output:
            output.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
