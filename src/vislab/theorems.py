"""Verification harness: replay the known closed forms and structural
characterizations against the exact solvers.

Three suites, aggregated by ``run_suite``:

* closed-forms: named families with known exact values (grids, clique
  products, complete bipartite graphs, subdivided cliques, block graphs,
  trees, the reduction gadget, the separator construction), followed by
  the characterization rows;
* matrix: the bijection between vertex subsets of K_m x K_n and 0/1
  matrices, held as row masks like every other vertex set, with the
  C4-free / saturation equivalences checked exhaustively at small sizes;
* characterizations: iff-style structure results checked over a seeded
  random corpus plus named families, reported as mismatch counts.

Every CheckReport carries ``claim``: a self-contained statement of the
fact under test, so a failing row is auditable on its own.

Both row kinds are tables, so a new result is one entry: a closed form
in the table of ``run_closed_form_suite``, as ``(name, claim, kind,
variant, [(instance, graph, expected)])``, and a characterization claim
in ``CLAIMS``, as ``(name, claim, mismatch)``, where ``mismatch`` decides
one graph of ``solve_corpus``.  ``check_claims`` runs the claims over any
solved corpus; the verify rows use the 80-graph one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from .families import (
    complete,
    complete_bipartite,
    cycle,
    gen_gadget,
    gen_gstar,
    gen_subdivided_complete,
    grid,
    hypercube,
    path,
    random_block_graph,
    random_tree,
    star,
)
from .graph_core import (
    Graph,
    VertexSet,
    bridges,
    cartesian_product,
    chordal_cliques,
    is_connected,
    simplicial_vertices,
)
from .rng import SplitMix64
from .solvers import independent_domination, solve_lower, solve_max
from .visibility import (
    convex_p3_centers,
    is_maximal_set,
    is_valid_set,
    neighborhood_lemma_scan,
    tmv_candidates,
)

CORPUS_SEED = 1729
SUITES = ("closed-forms", "matrix", "characterizations", "all")


@dataclass(frozen=True)
class CheckReport:
    name: str
    instance: str
    expected: str
    computed: str
    status: str  # "pass" | "fail"
    claim: str
    runtime: float


def _row(name, instance, claim, expected, computed, start, ok=None):
    exp_s, comp_s = str(expected), str(computed)
    if ok is None:
        ok = exp_s == comp_s
    status = "pass" if ok else "fail"
    return CheckReport(name, instance, exp_s, comp_s, status, claim, time.perf_counter() - start)


# --- binary matrix bridge -------------------------------------------------
# An m x n 0/1 matrix is a list of m row masks, entry (i, j) being bit j of
# row i; it mirrors the subset of K_m x K_n holding vertex i*n + j exactly
# when that entry is 1.

def rows_of_set(m: int, n: int, x: VertexSet) -> list[int]:
    if x.n != m * n:
        raise ValueError(f"set lives on {x.n} vertices, matrix wants {m * n}")
    return [(x.mask >> (i * n)) & ((1 << n) - 1) for i in range(m)]


def set_of_rows(n: int, rows: list[int]) -> VertexSet:
    mask = 0
    for i, row in enumerate(rows):
        mask |= row << (i * n)
    return VertexSet(len(rows) * n, mask)


def has_constant_2x2(rows: list[int]) -> bool:
    """True iff some 2x2 submatrix is all ones (two rows sharing ones in
    two columns)."""
    return any((a & b).bit_count() >= 2 for a, b in combinations(rows, 2))


def is_22_saturated(rows: list[int], n: int) -> bool:
    """True iff flipping any single 0 of the n-column matrix to 1 creates
    an all-ones 2x2 block: every 0 of a row lies in a column where some
    other row sharing a 1 with it has a 1.

    Only defined on matrices without such a block already.
    """
    if has_constant_2x2(rows):
        raise ValueError("matrix already contains an all-ones 2x2 block")
    for i, row in enumerate(rows):
        covered = row
        for k, other in enumerate(rows):
            if k != i and other & row:
                covered |= other
        if covered != (1 << n) - 1:
            return False
    return True


def mv_matrix_equivalence(m: int, n: int) -> CheckReport:
    """Exhaustively check, over every subset of V(K_m x K_n), that
    mutual-visibility validity matches C4-freeness of the mirrored matrix
    and that maximality matches saturation."""
    start = time.perf_counter()
    cells = m * n
    claim = (
        "a subset of K_m x K_n is a mutual-visibility set iff its 0/1 matrix "
        "has no all-ones 2x2 submatrix, and maximal iff that matrix is "
        "additionally saturated"
    )
    if cells > 16:
        raise ValueError(f"exhaustive sweep capped at 16 cells, got {cells}")
    g = cartesian_product(complete(m), complete(n))
    mismatches = 0
    for mask in range(1 << cells):
        x = VertexSet(cells, mask)
        rows = rows_of_set(m, n, x)
        valid = is_valid_set(g, x, "mv")
        if valid != (not has_constant_2x2(rows)):
            mismatches += 1
            continue
        if valid and is_maximal_set(g, x, "mv") != is_22_saturated(rows, n):
            mismatches += 1
    return _row(
        "matrix-equivalence", f"{m}x{n}", claim,
        "0 mismatches", f"{mismatches} mismatches over {1 << cells} subsets",
        start, ok=mismatches == 0,
    )


def min_saturated_ones(m: int, n: int) -> int:
    """Minimum number of ones over all saturated C4-free m x n matrices,
    by exhaustive enumeration."""
    cells = m * n
    if cells > 16:
        raise ValueError(f"exhaustive sweep capped at 16 cells, got {cells}")
    best = None
    for mask in range(1 << cells):
        rows = rows_of_set(m, n, VertexSet(cells, mask))
        if has_constant_2x2(rows):
            continue
        count = mask.bit_count()
        if (best is None or count < best) and is_22_saturated(rows, n):
            best = count
    if best is None:
        raise RuntimeError("no saturated matrix found; the all-ones row is one")
    return best


# --- corpora --------------------------------------------------------------

def _draw_connected(rng: SplitMix64, n: int, p: float) -> Graph:
    for _ in range(100000):
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.unit() < p
        ]
        g = Graph.from_edges(n, edges)
        if is_connected(g):
            return g
    raise RuntimeError(f"no connected draw at n={n}, p={p}")


def random_corpus() -> list[tuple[str, Graph]]:
    """60 connected graphs: n in 4..9, five edge probabilities, two draws
    each, all from one documented stream so the corpus replays exactly."""
    rng = SplitMix64(CORPUS_SEED)
    out = []
    for n in range(4, 10):
        for p in (0.3, 0.45, 0.6, 0.75, 0.9):
            for rep in range(2):
                g = _draw_connected(rng, n, p)
                out.append((f"gnp-{n}-{int(p * 100)}-{rep}", g))
    return out


def block_corpus() -> list[tuple[str, Graph]]:
    out = []
    for idx in range(20):
        n = 5 + (idx % 10)
        g = random_block_graph(n, 4, CORPUS_SEED * 1000 + idx)
        out.append((f"block-{idx:02d}(n={n})", g))
    return out


def tree_corpus() -> list[tuple[str, Graph]]:
    out = []
    for idx in range(10):
        n = 5 + (idx % 10)
        g = random_tree(n, CORPUS_SEED * 2000 + idx)
        out.append((f"tree-{idx:02d}(n={n})", g))
    return out


# two triangles sharing vertex 2: a block graph and a named corpus graph
_BOWTIE = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def named_corpus() -> list[tuple[str, Graph]]:
    """Small named instances mixed into the characterization sweep."""
    return [
        ("K1", complete(1)),
        ("K2", complete(2)),
        ("K3", complete(3)),
        ("K5", complete(5)),
        ("P2", path(2)),
        ("P4", path(4)),
        ("P6", path(6)),
        ("C3", cycle(3)),
        ("C4", cycle(4)),
        ("C5", cycle(5)),
        ("C6", cycle(6)),
        ("star-4", star(4)),
        ("K{3,2}", complete_bipartite(3, 2)),
        ("K{3,3}", complete_bipartite(3, 3)),
        ("P2xP3", grid((2, 3))),
        ("P3xP3", grid((3, 3))),
        ("Q3", hypercube(3)),
        ("S(K3)", gen_subdivided_complete(3)[0]),
        ("S(K4)", gen_subdivided_complete(4)[0]),
        ("bowtie", _BOWTIE),
    ]


def gadget_instances() -> list[tuple[str, Graph, int]]:
    return [
        ("gadget(P3,t=3)", path(3), 3),
        ("gadget(K3,t=3)", complete(3), 3),
        ("gadget(star-4,t=3)", star(4), 3),
    ]


def _is_cograph(g: Graph) -> bool:
    # induced-P4-free; a 4-set induces P4 iff it spans 3 edges with
    # degree sequence 1,1,2,2
    for quad in combinations(range(g.n), 4):
        deg = {v: 0 for v in quad}
        count = 0
        for u, v in combinations(quad, 2):
            if g.has_edge(u, v):
                count += 1
                deg[u] += 1
                deg[v] += 1
        if count == 3 and sorted(deg.values()) == [1, 1, 2, 2]:
            return False
    return True


# --- closed-form suite ----------------------------------------------------

def _solved(g: Graph, kind: str, variant: str, fast_path=True):
    if variant == "max":
        return solve_max(g, kind).value
    return solve_lower(g, kind, fast_path=fast_path).value


def run_closed_form_suite() -> list[CheckReport]:
    """One row per instance of each closed form, then the separator rows
    and the characterization rows."""
    products = {(m, n): cartesian_product(complete(m), complete(n))
                for m, n in ((2, 3), (3, 3), (3, 4), (4, 4), (4, 5), (4, 6))}
    skn = [(n, gen_subdivided_complete(n)[0]) for n in (3, 4)]
    blocks = block_corpus() + [("bowtie", _BOWTIE)]
    # (name, claim, kind, variant, [(instance, graph, expected value)])
    table = [
        ("grid-mv-lower",
         "every grid P_m x P_n with m,n >= 2 has lower mutual-visibility number 3",
         "mv", "lower",
         [(f"P{m}xP{n}", grid((m, n)), 3) for m, n in ((2, 2), (3, 4), (4, 5))]),
        ("clique-mv-lower",
         "the lower mutual-visibility number of K_m x K_n equals m+n-1",
         "mv", "lower",
         [(f"K{m}xK{n}", g, m + n - 1) for (m, n), g in products.items()]),
        ("clique-tmv-lower",
         "the lower total mutual-visibility number of K_m x K_n with m,n >= 3 "
         "equals min(m,n)",
         "tmv", "lower",
         [(f"K{m}xK{n}", products[m, n], min(m, n)) for m, n in ((3, 3), (3, 4))]),
        ("clique-tmv-max",
         "the total mutual-visibility number of K_m x K_n equals max(m,n)",
         "tmv", "max",
         [("K3xK4", products[3, 4], 4)]),
        ("grid-tmv-lower",
         "a product of k >= 2 paths, each of length at least 2, has lower total "
         "mutual-visibility number 2^k (the corner vertices form the unique "
         "candidate pool)",
         "tmv", "lower",
         [("x".join(f"P{d}" for d in dims), grid(dims), 2 ** len(dims))
          for dims in ((3, 3), (3, 3, 3))]),
        ("bipartite-mv-lower",
         "the lower mutual-visibility number of K_{r,s} with r >= s >= 1 is s+1",
         "mv", "lower",
         [(f"K{{{r},{s}}}", complete_bipartite(r, s), s + 1)
          for r, s in ((1, 1), (3, 2), (3, 3), (4, 2))]),
        ("bipartite-gp-lower",
         "the lower general-position number of K_{r,s} with r >= s >= 2 is 2",
         "gp", "lower",
         [(f"K{{{r},{s}}}", complete_bipartite(r, s), 2) for r, s in ((3, 2), (3, 3))]),
        # K_{2,2} is the 4-cycle; the two lower numbers genuinely differ
        # there, so both are pinned by exhaustive search.
        ("bipartite-square-mv-lower",
         "the smallest maximal mutual-visibility set of the 4-cycle has size 3",
         "mv", "lower",
         [("C4", cycle(4), 3)]),
        ("bipartite-square-gp-lower",
         "the smallest maximal general-position set of the 4-cycle has size 2 "
         "(one diagonal pair)",
         "gp", "lower",
         [("C4", cycle(4), 2)]),
        ("skn-mv-lower",
         "subdividing every edge of K_n once (n >= 3) gives lower "
         "mutual-visibility number n",
         "mv", "lower",
         [(f"S(K{n})", g, n) for n, g in skn]),
        ("skn-tmv-lower",
         "subdividing every edge of K_n once (n >= 3) gives lower total "
         "mutual-visibility number 0: girth 6 and minimum degree 2 make the "
         "empty set maximal",
         "tmv", "lower",
         [(f"S(K{n})", g, 0) for n, g in skn]),
        ("block-tmv-lower",
         "in a block graph with at least 2 vertices the simplicial vertices "
         "form the unique maximal total mutual-visibility set",
         "tmv", "lower",
         [(label, g, len(simplicial_vertices(g))) for label, g in blocks]),
        ("block-mv-lower",
         "in a block graph with at least 2 vertices the lower mutual-visibility "
         "number is the smallest cardinality of a block",
         "mv", "lower",
         [(label, g, min(len(c) for c in chordal_cliques(g))) for label, g in blocks]),
        ("tree-tmv-lower",
         "in a tree with at least 2 vertices the lower total mutual-visibility "
         "number equals the number of leaves",
         "tmv", "lower",
         [(label, g, sum(1 for v in range(g.n) if g.degree(v) == 1))
          for label, g in tree_corpus()]),
        ("gadget-tmv-formula",
         "for the reduction graph built over a connected base graph g with "
         "n vertices and m edges and clique size t, the lower total "
         "mutual-visibility number is t*(m+1) plus the minimum size of an "
         "independent dominating set of g",
         "tmv", "lower",
         [(label, gen_gadget(base, t)[0],
           t * (base.edge_count() + 1) + independent_domination(base).value)
          for label, base, t in gadget_instances()]),
    ]
    reports: list[CheckReport] = []
    for name, claim, kind, variant, instances in table:
        for instance, g, expected in instances:
            start = time.perf_counter()
            reports.append(_row(name, instance, claim, expected, _solved(g, kind, variant), start))

    start = time.perf_counter()
    gstar, _ = gen_gstar(4, 4, 4, 4)
    res = solve_lower(gstar, "mv")
    got = f"{res.value} witness " + ",".join(str(v) for v in res.witness.members())
    reports.append(_row(
        "gstar-mv-lower", "Gstar(4,4,4,4)",
        "the two near-twins plus the hub (ids 0,1,2) form a smallest maximal "
        "mutual-visibility set of the separator construction",
        "3 witness 0,1,2", got, start,
    ))

    start = time.perf_counter()
    got = solve_lower(gstar, "gp").value
    reports.append(_row(
        "gstar-gp-lower", "Gstar(4,4,4,4)",
        "the separator construction with all four size parameters equal to 4 "
        "has lower general-position number at least min(t,t1,t2,|B|) = 4, "
        "strictly above its lower mutual-visibility number 3",
        ">= 4", got, start, ok=got >= 4,
    ))

    reports.extend(run_characterization_suite())
    return reports


# --- characterization suite -----------------------------------------------

class Solved(NamedTuple):
    """One corpus graph with the exact values the claims read."""

    label: str
    g: Graph
    mv_lower: int  # with the cut-edge shortcut off, so the search decides it
    tmv_lower: int
    mv_max: int
    tmv_max: int
    gp_max: int


def solve_corpus(corpus: list[tuple[str, Graph]]) -> list[Solved]:
    """The values the claims read, for each ``(label, graph)`` of ``corpus``."""
    return [
        Solved(label, g, _solved(g, "mv", "lower", fast_path=False), _solved(g, "tmv", "lower"),
               _solved(g, "mv", "max"), _solved(g, "tmv", "max"), _solved(g, "gp", "max"))
        for label, g in corpus
    ]


def _ball_mismatch(s: Solved):
    g = s.g
    for vertex, flag in neighborhood_lemma_scan(g):
        ball = VertexSet(g.n, g.adj_masks[vertex] | 1 << vertex)
        direct = is_valid_set(g, ball, "mv") and is_maximal_set(g, ball, "mv")
        if flag != direct or (flag and s.mv_lower > g.degree(vertex) + 1):
            return str(vertex)
    return False


# (name, claim, mismatch): ``mismatch`` takes one Solved graph and returns
# False when the claim holds there, else True or a note for the row, which
# prints it after the graph's label.
CLAIMS = (
    ("char-bridge-mv2",
     "a connected graph has lower mutual-visibility number 2 iff it has a "
     "cut-edge (checked with the cut-edge shortcut disabled)",
     lambda s: (s.mv_lower == 2) != bool(bridges(s.g))),
    ("char-k1-mv1",
     "lower mutual-visibility number 1 happens only on the one-vertex graph",
     lambda s: (s.mv_lower == 1) != (s.g.n == 1)),
    ("char-centers-tmv0",
     "the empty set is a maximal total mutual-visibility set iff every "
     "vertex is the center of a convex path on three vertices",
     lambda s: (s.tmv_lower == 0) != (len(convex_p3_centers(s.g)) == s.g.n)),
    ("char-tmv-zero-pair",
     "the total mutual-visibility number vanishes iff its lower variant does",
     lambda s: (s.tmv_max == 0) != (s.tmv_lower == 0)),
    ("char-tmv-candidates",
     "a single vertex is a total mutual-visibility set iff it is not the "
     "center of a convex path on three vertices",
     lambda s: set(tmv_candidates(s.g)) != set(range(s.g.n)) - set(convex_p3_centers(s.g))),
    ("char-chordal-bound",
     "in a chordal graph the lower mutual-visibility number is at most the "
     "clique number",
     lambda s: ((cliques := chordal_cliques(s.g)) is not None
                and s.mv_lower > max(len(c) for c in cliques))),
    ("char-cograph-bound",
     "in a non-trivial cograph the lower mutual-visibility number is at "
     "most the maximum degree plus one",
     lambda s: (s.g.n >= 2 and _is_cograph(s.g)
                and s.mv_lower > max(s.g.degree(u) for u in range(s.g.n)) + 1)),
    ("char-gp-below-mv",
     "every general-position set is a mutual-visibility set, so the maximum "
     "sizes are ordered",
     lambda s: s.mv_max < s.gp_max),
    ("char-tmv-below-mv",
     "every total mutual-visibility set is a mutual-visibility set, so the "
     "total mutual-visibility number is at most the mutual-visibility number",
     lambda s: s.mv_max < s.tmv_max),
    ("char-neighborhood-ball",
     "the closed neighborhood of x is a maximal mutual-visibility set iff "
     "every two neighbors of x are adjacent or share a neighbor outside "
     "the ball; when it is, it bounds the lower number by deg(x)+1",
     _ball_mismatch),
    ("char-fast-path",
     "on every bridged graph the cut-edge shortcut and the exhaustive "
     "search agree on the lower mutual-visibility number",
     lambda s: bool(bridges(s.g)) and solve_lower(s.g, "mv").value != s.mv_lower),
)


def check_claims(values: list[Solved]) -> list[CheckReport]:
    """One row per claim of ``CLAIMS``, counting the graphs it fails on."""
    reports = []
    for name, claim, mismatch in CLAIMS:
        start = time.perf_counter()
        bad = []
        for s in values:
            note = mismatch(s)
            if note:
                bad.append(f"{s.label}:{note}" if isinstance(note, str) else s.label)
        shown = f"{len(bad)} mismatches over {len(values)} graphs"
        if bad:
            shown += f"; first: {', '.join(bad[:3])}"
        reports.append(_row(name, "corpus", claim, "0 mismatches", shown, start, ok=not bad))
    return reports


def run_characterization_suite() -> list[CheckReport]:
    return check_claims(solve_corpus(random_corpus() + named_corpus()))


# --- matrix suite ---------------------------------------------------------

def run_matrix_suite() -> list[CheckReport]:
    reports = [mv_matrix_equivalence(m, n) for m, n in ((2, 2), (2, 3), (3, 3), (3, 4))]

    start = time.perf_counter()
    bad = 0
    for mask in range(1 << 9):
        x = VertexSet(9, mask)
        if set_of_rows(3, rows_of_set(3, 3, x)) != x:
            bad += 1
    reports.append(_row(
        "matrix-bijection", "3x3",
        "a set's row masks and the set of those row masks are mutually inverse",
        "0 mismatches", f"{bad} mismatches over 512 subsets", start, ok=bad == 0,
    ))

    claim = (
        "the minimum number of ones in a saturated C4-free m x n matrix is "
        "m+n-1, witnessed by the first-row-plus-first-column cross"
    )
    for m, n in ((3, 3), (3, 4)):
        start = time.perf_counter()
        got = min_saturated_ones(m, n)
        reports.append(_row("matrix-min-saturated", f"{m}x{n}", claim, m + n - 1, got, start))

    for m, n in ((3, 4), (4, 5)):
        start = time.perf_counter()
        cross = [(1 << n) - 1] + [1] * (m - 1)  # ones on the first row and column
        ok = (
            not has_constant_2x2(cross)
            and is_22_saturated(cross, n)
            and sum(row.bit_count() for row in cross) == m + n - 1
        )
        reports.append(_row(
            "matrix-cross", f"{m}x{n}", claim,
            "C4-free saturated cross",
            "C4-free saturated cross" if ok else "cross fails a check",
            start, ok=ok,
        ))

    start = time.perf_counter()
    g = cartesian_product(complete(3), complete(4))
    x = set_of_rows(4, [0b1111, 1, 1])  # the 3x4 cross
    ok = is_valid_set(g, x, "mv") and is_maximal_set(g, x, "mv")
    reports.append(_row(
        "matrix-cross-maximal", "K3xK4",
        "the cross pattern is a maximal mutual-visibility set of K_3 x K_4 "
        "of size 3+4-1",
        "valid maximal", "valid maximal" if ok else "not maximal", start, ok=ok,
    ))
    return reports


def run_suite(suite: str) -> list[CheckReport]:
    """The rows of ``suite``, sorted by name, then instance."""
    if suite == "closed-forms":
        reports = run_closed_form_suite()
    elif suite == "matrix":
        reports = run_matrix_suite()
    elif suite == "characterizations":
        reports = run_characterization_suite()
    elif suite == "all":
        # the closed-form suite already carries the characterization rows
        reports = run_closed_form_suite() + run_matrix_suite()
    else:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")
    reports.sort(key=lambda r: (r.name, r.instance))
    return reports


def format_reports(reports: list[CheckReport]) -> str:
    """Fixed-width table, runtime omitted so output is byte-stable."""
    headers = ("name", "instance", "expected", "computed", "status")
    rows = [
        (r.name, r.instance, r.expected, r.computed, r.status) for r in reports
    ]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
        for i in range(5)
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * widths[i] for i in range(5)),
    ]
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(5)).rstrip())
    return "\n".join(lines) + "\n"


def format_reports_machine(reports: list[CheckReport]) -> str:
    lines = [
        "\t".join((r.name, r.instance, r.expected, r.computed, r.status))
        for r in reports
    ]
    return "\n".join(lines) + ("\n" if lines else "")
