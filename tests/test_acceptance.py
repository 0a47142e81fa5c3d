"""Acceptance gate: the eleven headline checks, one test each.

Every test prints a single PASS/FAIL line (visible with -s, and in the
failure report otherwise) and asserts both the exact values and the
stated time budget.  Budgets are wall-clock for the whole test body.
"""

import io
import time

import oracles
from conftest import bowtie
from vislab.cli import run as cli_run
from vislab.families import (
    complete,
    complete_bipartite,
    cycle,
    gen_gadget,
    gen_gstar,
    gen_subdivided_complete,
    grid,
    path,
    star,
)
from vislab.graph_core import (
    VertexSet,
    cartesian_product,
    chordal_cliques,
    simplicial_vertices,
)
from vislab.solvers import (
    greedy_profile,
    independent_domination,
    solve_lower,
    solve_max,
)
from vislab.theorems import (
    block_corpus,
    min_saturated_ones,
    mv_matrix_equivalence,
    run_characterization_suite,
)
from vislab.visibility import KINDS, is_maximal_set, is_valid_set


def _report(slug, ok, elapsed, budget):
    verdict = "PASS" if ok else "FAIL"
    print(f"acceptance {slug}: {verdict} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, slug
    assert elapsed < budget, f"{slug} blew the {budget}s budget: {elapsed:.2f}s"


def test_01_grid_minimum_maximal_visibility():
    budget, ok = 5.0, True
    start = time.perf_counter()
    for dims in ((2, 2), (3, 4), (4, 5)):
        t0 = time.perf_counter()
        got = solve_lower(grid(dims), "mv").value
        ok = ok and got == 3 and (time.perf_counter() - t0) < budget
    _report("grid-lower-mv", ok, time.perf_counter() - start, budget * 3)


def test_02_clique_product_values():
    start = time.perf_counter()
    checks = []
    for m, n, want in ((2, 3, 4), (3, 3, 5), (3, 4, 6)):
        g = cartesian_product(complete(m), complete(n))
        checks.append(solve_lower(g, "mv").value == want)
    for m, n, want in ((3, 3, 3), (3, 4, 3)):
        g = cartesian_product(complete(m), complete(n))
        checks.append(solve_lower(g, "tmv").value == want)
    g = cartesian_product(complete(3), complete(4))
    checks.append(solve_max(g, "tmv").value == 4)
    _report("clique-products", all(checks), time.perf_counter() - start, 30.0)


def test_03_grid_total_visibility_corners():
    start = time.perf_counter()
    ok = solve_lower(grid((3, 3)), "tmv").value == 4
    # 27 vertices, but only the 8 corners survive the candidate filter
    ok = ok and solve_lower(grid((3, 3, 3)), "tmv").value == 8
    _report("grid-lower-tmv", ok, time.perf_counter() - start, 10.0)


def test_04_complete_bipartite_values():
    start = time.perf_counter()
    checks = []
    for r, s in ((1, 1), (3, 2), (3, 3), (4, 2)):
        checks.append(solve_lower(complete_bipartite(r, s), "mv").value == s + 1)
    for r, s in ((3, 2), (3, 3)):
        checks.append(solve_lower(complete_bipartite(r, s), "gp").value == 2)
    _report("complete-bipartite", all(checks), time.perf_counter() - start, 10.0)


def test_05_subdivided_complete_values():
    start = time.perf_counter()
    checks = []
    for n, want in ((3, 3), (4, 4)):
        g, _ = gen_subdivided_complete(n)
        checks.append(solve_lower(g, "mv").value == want)
        checks.append(solve_lower(g, "tmv").value == 0)
    _report("subdivided-complete", all(checks), time.perf_counter() - start, 60.0)


def test_06_block_graph_structure_formulas():
    start = time.perf_counter()
    corpus = block_corpus()
    assert len(corpus) == 20
    ok = True
    for label, g in corpus:
        want_tmv = len(simplicial_vertices(g))
        want_mv = min(len(c) for c in chordal_cliques(g))
        ok = ok and solve_lower(g, "tmv").value == want_tmv
        ok = ok and solve_lower(g, "mv", fast_path=False).value == want_mv
    _report("block-graphs", ok, time.perf_counter() - start, 60.0)


def test_07_characterization_corpus():
    start = time.perf_counter()
    reports = run_characterization_suite()
    bad = [r for r in reports if r.status == "fail"]
    for r in bad:
        print(f"  mismatch: {r.name} {r.instance}: {r.computed}")
    _report("characterizations", not bad, time.perf_counter() - start, 60.0)


def test_08_gadget_reduction_formula():
    start = time.perf_counter()
    ok = True
    for base in (path(3), complete(3), star(4)):
        m = base.edge_count()
        t = 3
        g, _ = gen_gadget(base, t)
        want = t * (m + 1) + independent_domination(base).value
        ok = ok and solve_lower(g, "tmv").value == want
    _report("gadget-reduction", ok, time.perf_counter() - start, 120.0)


def test_09_matrix_bridge():
    start = time.perf_counter()
    checks = [
        mv_matrix_equivalence(m, n).status == "pass"
        for m, n in ((2, 2), (2, 3), (3, 3), (3, 4))
    ]
    checks.append(min_saturated_ones(3, 3) == 5)
    _report("matrix-bridge", all(checks), time.perf_counter() - start, 30.0)


def test_10_separation_instance():
    start = time.perf_counter()
    g, _ = gen_gstar(4, 4, 4, 4)
    assert g.n == 19
    low = solve_lower(g, "mv")
    ok = low.value == 3 and low.witness.members() == (0, 1, 2)
    gp = solve_lower(g, "gp")
    ok = ok and gp.value >= 4
    _report("separation-instance", ok, time.perf_counter() - start, 300.0)


def test_11_property_sweeps():
    start = time.perf_counter()
    ok = True
    small = [path(4), cycle(5), complete(4), star(3), bowtie(), grid((2, 3))]

    # downward closure and oracle equivalence, exhaustive at this size
    for g in small:
        for kind in KINDS:
            for mask in range(1 << g.n):
                x = VertexSet(g.n, mask)
                valid = is_valid_set(g, x, kind)
                ok = ok and valid == oracles.valid_oracle(g, x.members(), kind)
                if valid:
                    maximal = is_maximal_set(g, x, kind)
                    ok = ok and maximal == oracles.maximal_oracle(g, x.members(), kind)
                    for v in x.members():
                        ok = ok and is_valid_set(g, VertexSet(g.n, mask & ~(1 << v)), kind)

    # greedy stays inside the exact envelope across 20 seeds
    for g in small:
        for kind in KINDS:
            lo = solve_lower(g, kind, fast_path=False).value
            hi = solve_max(g, kind).value
            prof = greedy_profile(g, kind, runs=20, seed=0)
            ok = ok and lo <= prof.min_size <= prof.max_size <= hi

    # two runs of the same command give identical bytes
    text = "\n".join(["6 7", "0 1", "1 2", "2 3", "3 4", "4 5", "0 5", "0 3"]) + "\n"
    outputs = []
    for _ in range(2):
        out = io.StringIO()
        rc = cli_run(
            ["solve", "--kind", "mv", "--variant", "max"],
            stdin=io.StringIO(text), stdout=out, stderr=io.StringIO(),
        )
        outputs.append((rc, out.getvalue()))
    ok = ok and outputs[0] == outputs[1] and outputs[0][0] == 0

    _report("property-sweeps", ok, time.perf_counter() - start, 120.0)
