"""Smoke test of tools/compare_records.py on three quadric-lin1 systems."""

import pickle
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "compare_records.py"


def run(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, timeout=120)


def test_dump_and_compare(tmp_path):
    dumps = []
    for name in ("a.pkl", "b.pkl"):
        out = tmp_path / name
        done = run("dump", "--src", ROOT / "src", "--workload", "quadric-lin1",
                   "--seed", 0, "--systems", 3, out)
        assert done.returncode == 0, done.stderr
        dumps.append(out)
    data = pickle.loads(dumps[0].read_bytes())
    assert data["lapack"].startswith("zggev ") and "; numpy LAPACK " in data["lapack"]
    records = data["records"]
    assert len(records) == 3
    for rec in records:
        assert rec["outcome"] == "ok" and rec["bezout"] == 4
        assert len(rec["pencils"]) == 2 and all(len(d) == 64 for d in rec["pencils"])
        assert sum(r[6] for r in rec["roots"]) == 4

    same = run("compare", *dumps, "--rtol", 1e-12)
    assert same.returncode == 0, same.stdout
    assert "identical 3, within rtol 1e-12 0" in same.stdout
    assert "outcomes A: direct 3, swap 0, raise 0, short 0" in same.stdout
    assert f"LAPACK B: {data['lapack']}" in same.stdout and "note:" not in same.stdout

    # a root moved beyond the tolerance is a change, and the tool says so
    data = pickle.loads(dumps[1].read_bytes())
    x, y, *rest = data["records"][1]["roots"][0]
    data["records"][1]["roots"][0] = (x * (1 + 1e-9), y, *rest)
    data["lapack"] = "zggev elsewhere"
    dumps[1].write_bytes(pickle.dumps(data))
    moved = run("compare", *dumps, "--rtol", 1e-12)
    assert moved.returncode == 1
    assert "identical 2, within rtol 1e-12 0" in moved.stdout
    assert "system 1: direct -> direct; roots move by" in moved.stdout
    assert "LAPACK B: zggev elsewhere" in moved.stdout and "note: the two dumps" in moved.stdout
    assert run("compare", *dumps, "--rtol", 1e-6).returncode == 0
