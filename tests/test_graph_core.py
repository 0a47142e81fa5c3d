import time
import tracemalloc
from itertools import permutations

import pytest
from hypothesis import given, settings

import oracles
from atlas import load_atlas
from conftest import bowtie, graphs, labelled_graphs
from vislab.families import complete, cycle, grid, hypercube, path, random_tree
from vislab.graph_core import (
    PRODUCT_VERTEX_LIMIT,
    UNREACHABLE,
    Graph,
    InstanceTooLargeError,
    ParseError,
    VertexSet,
    bridges,
    cartesian_product,
    cell_of,
    chordal_cliques,
    convex_paths,
    distance_matrix,
    distance_two_pairs,
    export_dot,
    find_automorphism,
    format_edge_list,
    is_connected,
    parse_graph,
    refine,
    simplicial_vertices,
)


def metric_mismatches(g):
    """Where ``layers``, ``between`` and ``thru`` disagree with the
    brute-force oracles; layers see only the source's component."""
    dmat = distance_matrix(g)
    rows = oracles.bfs_rows(g)
    bad = []
    for u in range(g.n):
        ecc = max(d for d in rows[u] if d is not oracles.INF)
        want = [sum(1 << v for v in range(g.n) if rows[u][v] == k) for k in range(ecc + 1)]
        if list(dmat.layers[u]) != want + [0]:
            bad.append(("layers", u))
        for v in range(g.n):
            inner = oracles.interval_oracle(g, u, v) - {u, v}
            if dmat.between[u][v] != sum(1 << w for w in inner):
                bad.append(("between", u, v))
            # thru[u][v]: the b with u inside the interval of v and b
            beyond = [
                b for b in range(g.n) if u not in (v, b) and u in oracles.interval_oracle(g, v, b)
            ]
            if dmat.thru[u][v] != sum(1 << b for b in beyond):
                bad.append(("thru", u, v))
    return bad


class TestGraph:
    def test_from_edges_basic(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert g.n == 3
        assert g.adj == ((1,), (0, 2), (1,))
        assert g.degree(1) == 2
        assert g.has_edge(0, 1) and not g.has_edge(0, 2)
        assert g.edge_count() == 2
        assert list(g.edges()) == [(0, 1), (1, 2)]

    def test_from_edges_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])

    def test_from_edges_rejects_duplicate(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 1), (1, 0)])

    def test_from_edges_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])

    def test_adj_masks(self):
        g = path(3)
        assert g.adj_masks == (0b010, 0b101, 0b010)


class TestVertexSet:
    def test_roundtrip(self):
        x = VertexSet.from_ids(5, [3, 0])
        assert x.members() == (0, 3)
        assert 0 in x and 3 in x and 1 not in x
        assert len(x) == 2
        assert list(x) == [0, 3]
        assert str(x) == "{0, 3}"

    def test_add(self):
        x = VertexSet.from_ids(4, [1])
        y = x.add(3)
        assert y.members() == (1, 3)
        assert x.members() == (1,)

    def test_range_check(self):
        with pytest.raises(ValueError):
            VertexSet.from_ids(3, [3])


class TestParsing:
    def test_roundtrip(self):
        g = bowtie()
        text = format_edge_list(g)
        assert parse_graph(text).adj == g.adj

    def test_comments_survive_parse(self):
        text = format_edge_list(path(2), ["dims 2"])
        assert text.startswith("# dims 2\n")
        assert parse_graph(text).n == 2

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_graph("")

    def test_malformed_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_graph("nonsense\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError, match="expected 2"):
            parse_graph("3 2\n0 1\n")

    def test_edge_out_of_range(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_graph("2 1\n0 5\n")

    def test_duplicate_edge(self):
        with pytest.raises(ParseError, match="line 3: duplicate edge 0 1"):
            parse_graph("2 2\n0 1\n1 0\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a 1\n", "line 1: malformed header"),
            ("-1 0\n", "line 1: malformed header"),
            # comments and blank lines count towards the line number
            ("# c\n\n2 1\n0 1\n1 0\n", "line 5: expected 1 edges, found extra line"),
            ("3 1\n0 1 2\n", "line 2: malformed edge"),
            ("2 1\n0 x\n", "line 2: malformed edge"),
            ("2 1\n1 1\n", "line 2: self-loop at vertex 1"),
        ],
    )
    def test_malformed_line_named(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_graph(text)

    def test_isolated_vertices_allocate_no_neighbour_sets(self):
        # ten bytes of input: a neighbour set per vertex peaked at 232 MiB
        tracemalloc.start()
        try:
            g = parse_graph(f"{PRODUCT_VERTEX_LIMIT} 0\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.n == PRODUCT_VERTEX_LIMIT and g.adj[-1] == ()
        assert peak < 32 << 20

    @given(graphs(max_n=7))
    def test_format_parse_identity(self, g):
        assert parse_graph(format_edge_list(g)).adj == g.adj


class TestMetric:
    def test_bfs_path(self):
        assert distance_matrix(path(4)).rows[0] == (0, 1, 2, 3)

    def test_disconnected_sentinel(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert distance_matrix(g).rows[0] == (0, 1, UNREACHABLE)

    def test_distance_matrix_symmetry(self):
        g = bowtie()
        dmat = distance_matrix(g)
        for u in range(g.n):
            for v in range(g.n):
                assert dmat.rows[u][v] == dmat.rows[v][u]

    @given(graphs(max_n=6))
    def test_distances_match_oracle(self, g):
        dmat = distance_matrix(g)
        rows = oracles.bfs_rows(g)
        for u in range(g.n):
            for v in range(g.n):
                assert dmat.rows[u][v] == rows[u][v]

    def test_between_c4(self):
        dmat = distance_matrix(cycle(4))
        assert dmat.layers[0] == (0b0001, 0b1010, 0b0100, 0)
        assert dmat.between[0][2] == dmat.between[2][0] == 0b1010
        assert dmat.between[0][1] == dmat.between[0][0] == 0

    @given(graphs(max_n=6))
    def test_metric_matches_oracle(self, g):
        assert not metric_mismatches(g)

    @given(graphs(max_n=7))
    def test_distance_two_pairs_match_oracle(self, g):
        # read from the adjacency alone, so exact on disconnected graphs too
        rows = oracles.bfs_rows(g)
        want = [
            (a, b, sum(1 << c for c in g.adj[a] if c in g.adj[b]))
            for a in range(g.n) for b in range(a + 1, g.n) if rows[a][b] == 2
        ]
        assert distance_two_pairs(g) == want

    def test_distance_two_pairs_skip_isolated_vertices(self):
        # a mask per isolated vertex makes this quadratic in n: tens of
        # seconds at this size
        g = Graph.from_edges(PRODUCT_VERTEX_LIMIT, [(0, 1), (1, 2)])
        start = time.perf_counter()
        assert distance_two_pairs(g) == [(0, 2, 0b10)]
        assert time.perf_counter() - start < 2

    def test_metric_atlas_up_to_six_vertices(self):
        graphs = load_atlas(range(1, 7))
        assert len(graphs) == 143
        for index, g in graphs:
            assert not metric_mismatches(g), (index, metric_mismatches(g))


def convex_paths_oracle(g):
    """The greedy partition of ``convex_paths`` from the geodesics
    themselves: every pair a < b with exactly one geodesic, of 3 or more
    vertices, longest first and then by (a, b), each taken when it shares
    no vertex with those taken before."""
    unique = []
    for a in range(g.n):
        for b in range(a + 1, g.n):
            found = oracles.all_geodesics(g, a, b)
            if len(found) == 1 and len(found[0]) >= 3:
                unique.append((-len(found[0]), a, b, found[0]))
    out = []
    used = set()
    for _, _, _, geodesic in sorted(unique):
        if used.isdisjoint(geodesic):
            used.update(geodesic)
            out.append(geodesic)
    return out


class TestConvexPaths:
    GRAPHS = (
        [g for _, g in load_atlas(range(1, 7))]
        + [grid((3, 5)), cycle(9)]
        + [random_tree(n, seed) for n in (5, 8, 12, 16) for seed in range(3)]
    )

    def test_match_oracle(self):
        for g in self.GRAPHS:
            got = convex_paths(g.metric)
            assert got == convex_paths_oracle(g), list(g.edges())
            seen = set()
            for p in got:
                assert len(p) >= 3 and seen.isdisjoint(p)
                seen.update(p)
                # every pair on the path has the subpath as its one geodesic
                for i in range(len(p)):
                    for j in range(i + 1, len(p)):
                        assert oracles.all_geodesics(g, p[i], p[j]) == (p[i : j + 1],)

    def test_examples(self):
        # the rows of a grid; the odd cycle's two halves; none where every
        # distance-2 pair has two common neighbours
        assert convex_paths(grid((3, 5)).metric) == [
            (0, 1, 2, 3, 4), (5, 6, 7, 8, 9), (10, 11, 12, 13, 14)
        ]
        assert convex_paths(cycle(9).metric) == [(0, 1, 2, 3, 4), (5, 6, 7, 8)]
        assert convex_paths(hypercube(4).metric) == []
        assert convex_paths(cartesian_product(complete(3), complete(4)).metric) == []
        assert convex_paths(path(2).metric) == []


def automorphisms(g):
    """Every automorphism of g by brute force over all permutations."""
    edges = set(g.edges())
    return [
        p for p in permutations(range(g.n))
        if all((min(p[u], p[v]), max(p[u], p[v])) in edges for u, v in edges)
    ]


def keeps(p, mask):
    """Whether the permutation p maps the vertex mask onto itself."""
    return all((mask >> p[v]) & 1 for v in range(len(p)) if (mask >> v) & 1)


class TestAutomorphism:
    def test_atlas_up_to_six_vertices(self):
        # with no budget the finder is exact: it returns an automorphism
        # fixing the mask and mapping src to dst exactly when one exists
        for index, g in load_atlas(range(1, 7)):
            dmat = distance_matrix(g)
            auts = automorphisms(g)
            for fixed in range(1 << g.n):
                moves = {(s, p[s]) for p in auts for s in range(g.n)
                         if all(p[x] == x for x in range(g.n) if (fixed >> x) & 1)}
                for src in range(g.n):
                    for dst in range(g.n):
                        got = find_automorphism(dmat, fixed, src, dst, 1 << 30)
                        assert (got is not None) == ((src, dst) in moves), (index, fixed, src, dst)
                        if got is not None:
                            assert got in auts and got[src] == dst, (index, fixed, src, dst)

    def test_setwise_atlas_up_to_six_vertices(self):
        # from the cells of refine(dmat, x), with no budget, the finder
        # returns an automorphism mapping x onto itself and src to dst
        # exactly when one exists
        for index, g in load_atlas(range(1, 7)):
            dmat = distance_matrix(g)
            auts = automorphisms(g)
            for x in range(1 << g.n):
                cells = cell_of(refine(dmat, x), g.n)
                moves = {(s, p[s]) for p in auts if keeps(p, x) for s in range(g.n)}
                for src in range(g.n):
                    for dst in range(g.n):
                        got = find_automorphism(dmat, 0, src, dst, 1 << 30, cells)
                        assert (got is not None) == ((src, dst) in moves), (index, x, src, dst)
                        if got is not None:
                            assert got in auts and got[src] == dst and keeps(got, x)

    def test_refine_never_splits_an_orbit(self):
        # an automorphism that maps the individualised set onto itself maps
        # every cell, in its place in the order, onto itself
        for index, g in load_atlas(range(1, 7)):
            dmat = distance_matrix(g)
            auts = automorphisms(g)
            assert dmat.alike == cell_of(refine(dmat), g.n)
            for x in range(1 << g.n):
                cells = refine(dmat, x)
                union = 0
                for cell in cells:  # a partition of the vertices
                    assert cell and not cell & union
                    union |= cell
                assert union == (1 << g.n) - 1
                for p in auts:
                    if keeps(p, x):
                        assert all(keeps(p, cell) for cell in cells), (index, x, p)

    def test_refine_cells_keep_distances_to_the_set(self):
        # the first round splits the vertices outside the individualised set
        # by how many of its members lie at each distance, so two of them in
        # one cell have the same sorted distances to the set (the lower
        # search's setwise skip takes its candidate images from these cells)
        for index, g in load_atlas(range(1, 7)):
            dmat = distance_matrix(g)
            for x in range(1 << g.n):
                members = [a for a in range(g.n) if (x >> a) & 1]
                for cell in refine(dmat, x):
                    if cell & x:
                        continue
                    profiles = {
                        tuple(sorted(dmat.rows[v][a] for a in members))
                        for v in range(g.n)
                        if (cell >> v) & 1
                    }
                    assert len(profiles) == 1, (index, x, cell)

    @pytest.mark.parametrize(
        "g",
        [cycle(n) for n in range(3, 10)]
        + [cartesian_product(complete(a), complete(b)) for a in range(2, 6) for b in range(a, 7)]
        + [hypercube(3), hypercube(4)],
    )
    def test_vertex_transitive_within_budget(self, g):
        # the budget solve_lower gives the finder
        dmat = distance_matrix(g)
        edges = set(g.edges())
        for v in range(g.n):
            p = find_automorphism(dmat, 0, v, 0, 2 * g.n)
            assert p is not None and p[v] == 0 and sorted(p) == list(range(g.n))
            assert all((min(p[a], p[b]), max(p[a], p[b])) in edges for a, b in edges)

    def test_budget_gives_up(self):
        # K3□K4 has an automorphism mapping 0 to 4, but the finder meets a
        # dead end before it, so one failed image exhausts the budget
        dmat = distance_matrix(cartesian_product(complete(3), complete(4)))
        assert find_automorphism(dmat, 0, 0, 4, 1) is None
        p = find_automorphism(dmat, 0, 0, 4, 1 << 30)
        assert p is not None and p[0] == 4

    def test_invariants_differ(self):
        g = path(4)
        dmat = distance_matrix(g)
        assert dmat.alike == (0b1001, 0b0110, 0b0110, 0b1001)
        assert find_automorphism(dmat, 0, 0, 1, 1 << 30) is None
        assert find_automorphism(dmat, 0, 1, 2, 1 << 30) is not None
        # distances to a fixed vertex differ: 0 and 3 are alike, but not fixing 1
        assert find_automorphism(dmat, 0b0010, 0, 3, 1 << 30) is None


class TestStructure:
    def test_connected(self):
        assert is_connected(path(5))
        assert not is_connected(Graph.from_edges(2, []))
        assert is_connected(Graph.from_edges(0, []))
        assert is_connected(Graph.from_edges(1, []))

    @given(graphs(max_n=6))
    def test_connected_matches_oracle(self, g):
        assert is_connected(g) == oracles.connected_oracle(g)

    def test_bridges_path(self):
        assert bridges(path(4)) == [(0, 1), (1, 2), (2, 3)]
        assert bridges(cycle(5)) == []

    @given(graphs(max_n=7))
    @settings(max_examples=60)
    def test_bridges_match_oracle(self, g):
        assert bridges(g) == oracles.bridges_oracle(g)

    def test_maximal_cliques_bowtie(self):
        got = [c.members() for c in chordal_cliques(bowtie())]
        assert got == [(0, 1, 2), (2, 3, 4)]
        assert chordal_cliques(cycle(4)) is None

    @staticmethod
    def clique_corpus():
        """Every connected graph with n <= 7 and every labelled graph with
        n <= 5, the disconnected ones included."""
        return [g for _, g in load_atlas(range(1, 8))] + list(labelled_graphs(5))

    def test_cliques_match_oracle(self):
        chordal = 0
        for g in self.clique_corpus():
            got = chordal_cliques(g)
            if got is not None:
                chordal += 1
                assert [c.members() for c in got] == oracles.maximal_cliques_oracle(g), list(g.edges())
        assert chordal == 1248

    def test_chordal_matches_oracle(self):
        corpus = self.clique_corpus()
        assert len(corpus) == 2095
        for g in corpus:
            assert (chordal_cliques(g) is not None) == oracles.chordal_oracle(g), list(g.edges())

    def test_simplicial(self):
        assert simplicial_vertices(bowtie()).members() == (0, 1, 3, 4)
        assert simplicial_vertices(cycle(4)).members() == ()
        assert simplicial_vertices(complete(3)).members() == (0, 1, 2)


class TestProduct:
    def test_hypercube_counts(self):
        q3 = cartesian_product(
            cartesian_product(path(2), path(2)), path(2)
        )
        assert q3.n == 8
        assert q3.edge_count() == 12
        assert all(q3.degree(v) == 3 for v in range(8))

    def test_row_major_layout(self):
        g = cartesian_product(path(2), path(3))
        # (i, j) -> 3i + j; (0,0)-(1,0) and (0,0)-(0,1) are edges
        assert g.has_edge(0, 3) and g.has_edge(0, 1)
        assert not g.has_edge(0, 4)

    def test_product_size_guard(self):
        big = Graph.from_edges(2000, [])
        with pytest.raises(InstanceTooLargeError):
            cartesian_product(big, big)

    def test_grid_is_product_of_paths(self):
        g = grid((3, 4))
        assert g.n == 12 and g.edge_count() == 3 * 3 + 4 * 2


class TestDot:
    def test_plain(self):
        out = export_dot(path(2))
        assert out == "graph {\n  0;\n  1;\n  0 -- 1;\n}\n"

    def test_highlight(self):
        out = export_dot(path(2), [1])
        assert '1 [style=filled, fillcolor="gray80"];' in out

    def test_highlight_range_checked(self):
        with pytest.raises(ValueError):
            export_dot(path(2), [5])
