#!/usr/bin/env python3
"""Compare the exact solvers with the forbidden-set oracle on 20- to 24-vertex graphs.

Usage: python scripts/form_differential.py

On a connected graph tmv, gp, and mv at diameter at most 2, each forbid a
fixed family of vertex sets (``tests/oracles.forbidden_sets_oracle``).
A plain walk over the valid sets of that family gives the maximum and the
first smallest maximal set, which ``solve_max`` and ``solve_lower`` must
match, value and canonical witness.  The test suite runs 15- to
18-vertex graphs in three labellings (``tests/test_forms.py``); this
script runs the heavier rows: K4xK5 gp and mv, K4xK6 tmv and gp, and the
G(24, 0.5) draw s = 1 of ``scripts/bench_ladder.py`` tmv and gp.  It takes
about 20 s, prints each row and exits 1 on any mismatch.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from atlas import build, form_answers, solver_mismatches  # noqa: E402

# (instance, kinds); instances are ``atlas.build`` names
ROWS = (
    ("K4xK5", ("gp", "mv")),
    ("K4xK6", ("tmv", "gp")),
    ("G24-0.5-1", ("tmv", "gp")),
)


def main() -> int:
    start = time.perf_counter()
    failed = 0
    for name, kinds in ROWS:
        g = build(name)
        for kind in kinds:
            t0 = time.perf_counter()
            want = form_answers(g, (kind,))
            bad, _, _ = solver_mismatches(g, want, force=True)
            if not want:
                bad = [(kind, "the forbidden-set form does not apply")]
            failed += bool(bad)
            print(f"{name} {kind}: {bad or 'ok'} ({time.perf_counter() - t0:.1f}s)", flush=True)
    print(f"{failed} mismatching rows, {time.perf_counter() - start:.0f}s")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
