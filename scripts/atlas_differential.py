#!/usr/bin/env python3
"""Compare the exact solvers with the brute-force oracles on the 7-vertex atlas graphs.

Usage: python scripts/atlas_differential.py

The test suite covers the 143 connected atlas graphs with at most 6
vertices (``tests/test_atlas_differential.py``); this script runs the
same comparison on the 853 with 7 vertices, and checks the
NP-completeness reduction's formula on each of them as a base graph, at
t = 3 and 4, and on every base with 2 to 5 vertices at t = 5.
It also solves each lower and max query again with every kind's
symmetry gate at 0, as ``tests/test_solvers.py`` does up to 6 vertices: the
lower search then checks every child for symmetry, and the max search
builds its convex paths before its first search, so that their bound
acts from the doll's first phase on.  It checks the join tests,
``visibility._joins`` and the ``can_add`` of the engine
``solvers._make_engine`` picks, against the whole-set predicate on every
valid set and outside vertex (``atlas.joins_mismatches``; 628,294
checks, and a mismatch names its test, ``joins`` or ``engine``), and
``visibility.is_maximal_set`` on every valid set against those same
answers (test ``maximal``; 145,540 sets), as ``tests/test_visibility.py``
does up to 6 vertices, and each kind's whole-set predicate
``is_valid_set`` (327,552 subsets) and each forbidden-set form (2,080
forms, 266,240 subsets) against the definitions on every subset, as
``tests/test_forms.py`` does up to 6 vertices.  It checks the three
whole-graph readings of ``graph_core.blocked_corner``
(``simplicial_vertices``, ``convex_p3_centers`` and
``neighborhood_lemma_scan``) and ``visibility.tmv_candidates`` against
their definitions on every vertex (``atlas.corner_mismatches``; 29,855
checks), as ``tests/test_visibility.py`` does up
to 6 vertices.  It prints the counts of join checks, of maximality
checks, of predicate subsets, of forms and their subsets, of corner
checks and of branches the convex-path bound cut, takes about 30 s,
prints each mismatch and exits 1 if there is any.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from atlas import (  # noqa: E402
    corner_mismatches,
    definition_mismatches,
    gate_off,
    joins_mismatches,
    load_atlas,
    oracle_answers,
    reduction_holds,
    solver_mismatches,
)
from vislab.visibility import KINDS  # noqa: E402


def main() -> int:
    start = time.perf_counter()
    graphs = load_atlas({7})
    failed = checks = maximal = cuts = forms = subsets = predicates = corners = 0
    for index, g in graphs:
        want = oracle_answers(g)
        bad, _, _ = solver_mismatches(g, want, fast_paths=(True, False))
        for t in (3, 4):
            if not reduction_holds(g, t):
                bad.append(("gadget", "reduction formula", t))
        with gate_off():
            gate_bad, _, pruned = solver_mismatches(g, want, fast_paths=(False,))
        bad += [(kind, "no gate", *rest) for kind, *rest in gate_bad]
        cuts += pruned
        joins_bad, count, sets = joins_mismatches(g)
        bad += joins_bad
        checks += count
        maximal += sets
        form_bad, count = definition_mismatches(g)
        bad += form_bad
        forms += count
        subsets += count << g.n
        predicates += len(KINDS) << g.n
        corner_bad, count = corner_mismatches(g)
        bad += corner_bad
        corners += count
        if bad:
            failed += 1
            print(f"atlas {index}: {list(g.edges())} {bad}")
    small = load_atlas(range(2, 6))
    for index, base in small:
        if not reduction_holds(base, 5):
            failed += 1
            print(f"atlas {index}: {list(base.edges())} [('gadget', 'reduction formula', 5)]")
    print(
        f"{len(graphs)} graphs and {len(small)} t = 5 bases, {failed} with mismatches, "
        f"{checks} join checks, {maximal} maximality checks, "
        f"{predicates} predicate subsets, {forms} forms over {subsets} subsets, "
        f"{corners} corner checks, "
        f"{cuts} convex-path cuts, "
        f"{time.perf_counter() - start:.0f}s"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
