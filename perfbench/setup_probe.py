"""One set-up sample: import detrep from the given source directory and
solve one degree-2 system; print the seconds both took.

Run in a fresh interpreter each time, so that the import is not cached:
    python3 perfbench/setup_probe.py src
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import detrep  # noqa: E402

p = detrep.BivariatePolynomial.from_terms(
    {(0, 0): 1.0, (1, 0): 2.0, (0, 1): 3.0, (2, 0): 4.0, (1, 1): 5.0, (0, 2): 6.0}
)
q = detrep.BivariatePolynomial.from_terms(
    {(0, 0): -1.0, (1, 0): 0.5, (0, 1): 1.5, (2, 0): 1.0, (1, 1): -2.0, (0, 2): 0.7}
)
roots = detrep.solve_system(p, q)
elapsed = time.perf_counter() - start
if sum(r.multiplicity for r in roots) != 4:
    sys.exit("warm-up solve did not return 4 roots")
print(elapsed)
