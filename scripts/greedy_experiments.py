#!/usr/bin/env python3
"""How close does seeded greedy get to the exact optima?

For a spread of small instances this prints, per visibility kind, the
exact minimum-maximal value, the min and max greedy sizes over a batch
of seeds, and the exact maximum.  The greedy column always lands inside
the exact envelope; the interesting part is how often it touches the
ends.
"""

import argparse

from vislab.families import (
    complete,
    complete_bipartite,
    cycle,
    gen_subdivided_complete,
    grid,
    hypercube,
    random_tree,
    star,
)
from vislab.graph_core import cartesian_product
from vislab.solvers import greedy_profile, solve_lower, solve_max
from vislab.visibility import KINDS


def instances():
    yield "C6", cycle(6)
    yield "K5", complete(5)
    yield "star-5", star(5)
    yield "K{3,3}", complete_bipartite(3, 3)
    yield "P3xP4", grid((3, 4))
    yield "Q3", hypercube(3)
    yield "K3xK4", cartesian_product(complete(3), complete(4))
    yield "K4xK4", cartesian_product(complete(4), complete(4))
    yield "S(K3)", gen_subdivided_complete(3)[0]
    yield "tree-12", random_tree(12, 7)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--runs", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ns = ap.parse_args()

    header = f"{'instance':<10} {'kind':<4} {'exact-min':>9} {'greedy-min':>10} {'greedy-max':>10} {'exact-max':>9}"
    print(header)
    print("-" * len(header))
    for label, g in instances():
        for kind in KINDS:
            lo = solve_lower(g, kind).value
            hi = solve_max(g, kind).value
            prof = greedy_profile(g, kind, runs=ns.runs, seed=ns.seed)
            marker = ""
            if prof.min_size > lo:
                marker = "  greedy never finds the floor"
            print(
                f"{label:<10} {kind:<4} {lo:>9} {prof.min_size:>10} "
                f"{prof.max_size:>10} {hi:>9}{marker}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
