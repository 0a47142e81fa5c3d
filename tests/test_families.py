import tracemalloc
from itertools import combinations

import pytest

import oracles
from vislab.families import (
    FAMILIES,
    FamilySpec,
    complete,
    complete_bipartite,
    cycle,
    gen_gadget,
    gen_gstar,
    gen_subdivided_complete,
    generate,
    grid,
    hypercube,
    path,
    random_block_graph,
    random_tree,
    star,
)
from vislab.graph_core import PRODUCT_VERTEX_LIMIT, InstanceTooLargeError, is_connected
from vislab.solvers import solve_max
from vislab.visibility import tmv_candidates


class TestBasicFamilies:
    def test_path(self):
        g = path(6)
        assert g.n == 6 and g.edge_count() == 5
        assert g.degree(0) == g.degree(5) == 1
        assert all(g.degree(v) == 2 for v in range(1, 5))

    def test_single_vertex_path(self):
        assert path(1).n == 1

    def test_cycle(self):
        g = cycle(7)
        assert g.n == 7 and g.edge_count() == 7
        assert all(g.degree(v) == 2 for v in range(7))

    def test_complete(self):
        g = complete(6)
        assert g.edge_count() == 15
        assert all(g.degree(v) == 5 for v in range(6))

    def test_complete_bipartite_layout(self):
        g = complete_bipartite(3, 2)
        assert g.n == 5 and g.edge_count() == 6
        assert all(g.degree(v) == 2 for v in range(3))
        assert all(g.degree(v) == 3 for v in range(3, 5))
        assert not g.has_edge(0, 1) and not g.has_edge(3, 4)

    def test_star_center(self):
        g = star(4)
        assert g.n == 5 and g.degree(0) == 4

    def test_grid_layout_row_major(self):
        g = grid((3, 4))
        assert g.n == 12 and g.edge_count() == 3 * 3 + 4 * 2
        # vertex (i, j) sits at 4*i + j
        assert g.has_edge(0, 1) and g.has_edge(0, 4)
        assert not g.has_edge(3, 4)

    def test_grid_corner_count(self):
        g = grid((3, 4, 5))
        corners = sum(1 for v in range(g.n) if g.degree(v) == 3)
        assert corners == 8

    def test_hypercube(self):
        g = hypercube(3)
        assert g.n == 8 and g.edge_count() == 12
        assert all(g.degree(v) == 3 for v in range(8))
        # neighbors differ in exactly one bit
        for u, v in g.edges():
            assert bin(u ^ v).count("1") == 1

    def test_hypercube_zero(self):
        assert hypercube(0).n == 1

    @pytest.mark.parametrize(
        "builder,bad",
        [
            (path, 0),
            (cycle, 2),
            (complete, 0),
            (star, 0),
            (hypercube, -1),
        ],
    )
    def test_size_validation(self, builder, bad):
        with pytest.raises(ValueError):
            builder(bad)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            grid(())
        with pytest.raises(ValueError):
            grid((3, 0))


class TestRandomFamilies:
    @pytest.mark.parametrize("n", [1, 2, 3, 9, 16])
    def test_tree_shape(self, n):
        for seed in range(4):
            g = random_tree(n, seed)
            assert g.n == n
            assert g.edge_count() == n - 1
            assert is_connected(g)

    def test_tree_deterministic(self):
        a = random_tree(12, 5)
        b = random_tree(12, 5)
        assert list(a.edges()) == list(b.edges())

    def test_tree_seed_sensitivity(self):
        distinct = {tuple(random_tree(10, s).edges()) for s in range(8)}
        assert len(distinct) > 1

    @pytest.mark.parametrize("n", [1, 2, 5, 11, 14])
    def test_block_graph_shape(self, n):
        for seed in range(3):
            g = random_block_graph(n, 4, seed)
            assert g.n == n
            assert is_connected(g)
            assert oracles.block_graph_oracle(g)

    def test_block_graph_deterministic(self):
        a = random_block_graph(14, 5, 9)
        b = random_block_graph(14, 5, 9)
        assert list(a.edges()) == list(b.edges())

    def test_block_graph_validation(self):
        with pytest.raises(ValueError):
            random_block_graph(0, 4, 0)
        with pytest.raises(ValueError):
            random_block_graph(5, 1, 0)

    def test_block_graph_refused_before_building(self):
        # about 2.1M edges: every block is drawn and counted before any
        # edge is built, so the refusal allocates almost nothing
        tracemalloc.start()
        try:
            with pytest.raises(InstanceTooLargeError, match=rf"\(limit {PRODUCT_VERTEX_LIMIT}\)"):
                random_block_graph(3000, 3000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestSubdividedComplete:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_shape(self, n):
        g, roles = gen_subdivided_complete(n)
        pairs = n * (n - 1) // 2
        assert g.n == n + pairs
        assert len(roles) == g.n
        assert all(g.degree(v) == n - 1 for v in range(n))
        assert all(g.degree(v) == 2 for v in range(n, g.n))

    def test_roles(self):
        _, roles = gen_subdivided_complete(3)
        assert roles == (
            "original:0",
            "original:1",
            "original:2",
            "subdivided:0-1",
            "subdivided:0-2",
            "subdivided:1-2",
        )

    def test_three_is_a_hexagon(self):
        g, _ = gen_subdivided_complete(3)
        assert g.n == 6 and g.edge_count() == 6
        assert all(g.degree(v) == 2 for v in range(6))
        assert is_connected(g)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_girth_six(self, n):
        g, _ = gen_subdivided_complete(n)
        assert oracles.girth_oracle(g) == 6

    def test_total_visibility_collapses(self):
        for n in (3, 4):
            g, _ = gen_subdivided_complete(n)
            assert solve_max(g, "tmv").value == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_subdivided_complete(1)


class TestGstar:
    def test_shape_and_roles(self):
        g, roles = gen_gstar(4, 3, 2, 5)
        assert g.n == 3 + 4 + 3 + 2 + 5
        assert roles[:3] == ("a", "a-prime", "b-hub")
        assert sum(1 for r in roles if r.startswith("b:")) == 4
        assert sum(1 for r in roles if r.startswith("clique-t:")) == 3
        assert sum(1 for r in roles if r.startswith("clique-t1:")) == 2
        assert sum(1 for r in roles if r.startswith("clique-t2:")) == 5

    def test_adjacency(self):
        g, roles = gen_gstar(3, 2, 2, 2)
        by_role = {r: v for v, r in enumerate(roles)}
        a, ap, hub = 0, 1, 2
        assert g.has_edge(a, hub) and g.has_edge(ap, hub)
        assert not g.has_edge(a, ap)
        b_ids = [v for v, r in enumerate(roles) if r.startswith("b:")]
        for v in b_ids:
            assert g.has_edge(a, v) and g.has_edge(ap, v)
            assert not g.has_edge(hub, v)
        for u, v in combinations(b_ids, 2):
            assert not g.has_edge(u, v)
        t_ids = [v for v, r in enumerate(roles) if r.startswith("clique-t:")]
        t1_ids = [v for v, r in enumerate(roles) if r.startswith("clique-t1:")]
        t2_ids = [v for v, r in enumerate(roles) if r.startswith("clique-t2:")]
        for ids, anchors in ((t_ids, {a, hub}), (t1_ids, {hub}), (t2_ids, {ap, hub})):
            for u, v in combinations(ids, 2):
                assert g.has_edge(u, v)
            for v in ids:
                assert {w for w in (a, ap, hub) if g.has_edge(v, w)} == anchors
        assert by_role["clique-t1:0"] in t1_ids

    def test_connected_even_when_degenerate(self):
        g, _ = gen_gstar(1, 1, 1, 1)
        assert g.n == 7 and is_connected(g)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_gstar(0, 1, 1, 1)
        with pytest.raises(ValueError):
            gen_gstar(1, 1, 0, 1)


class TestGadget:
    def test_shape(self):
        base = path(3)
        g, roles = gen_gadget(base, 3)
        n, m, t = 3, 2, 3
        assert g.n == n + m + (t + 1) + t * m
        assert len(roles) == g.n
        assert roles.count("hub") == 1
        assert sum(1 for r in roles if r.startswith("original:")) == n
        assert sum(1 for r in roles if r.startswith("edge:")) == m
        assert sum(1 for r in roles if r.startswith("hub-clique:")) == t
        assert sum(1 for r in roles if r.startswith("leaf-clique:")) == t * m

    def test_base_edges_kept(self):
        base = cycle(4)
        g, _ = gen_gadget(base, 3)
        for u, v in base.edges():
            assert g.has_edge(u, v)

    def test_edge_vertices_form_clique(self):
        base = complete(3)
        g, roles = gen_gadget(base, 3)
        ev = [v for v, r in enumerate(roles) if r.startswith("edge:")]
        for u, v in combinations(ev, 2):
            assert g.has_edge(u, v)

    def test_simplicial_set(self):
        base = path(3)
        g, roles = gen_gadget(base, 3)
        expect = {
            v
            for v, r in enumerate(roles)
            if r.startswith("hub-clique:") or r.startswith("leaf-clique:")
        }
        got = {
            v
            for v in range(g.n)
            if all(g.has_edge(a, b) for a, b in combinations(g.adj[v], 2))
        }
        assert got == expect

    def test_hub_and_edge_vertices_cut(self):
        base = path(3)
        g, roles = gen_gadget(base, 3)
        cuts = oracles.articulation_oracle(g)
        hub = roles.index("hub")
        assert hub in cuts
        for v, r in enumerate(roles):
            if r.startswith("edge:"):
                assert v in cuts

    def test_candidate_thinning(self):
        # leaf cliques and the hub clique soak up blocked vertices, so the
        # search only ever branches on a fraction of the graph
        g, _ = gen_gadget(star(4), 3)
        assert g.n == 25
        assert len(tmv_candidates(g)) == 20

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_gadget(path(3), 2)
        from vislab.graph_core import Graph

        with pytest.raises(ValueError):
            gen_gadget(Graph.from_edges(2, []), 3)


class TestGenerate:
    @pytest.mark.parametrize(
        "spec,n,m",
        [
            (FamilySpec("path", (5,)), 5, 4),
            (FamilySpec("cycle", (5,)), 5, 5),
            (FamilySpec("complete", (4,)), 4, 6),
            (FamilySpec("complete_bipartite", (2, 3)), 5, 6),
            (FamilySpec("star", (3,)), 4, 3),
            (FamilySpec("grid", (2, 3)), 6, 7),
            (FamilySpec("grid", (2, 2, 2)), 8, 12),
            (FamilySpec("hypercube", (3,)), 8, 12),
            (FamilySpec("subdivided_complete", (3,)), 6, 6),
        ],
    )
    def test_dispatch(self, spec, n, m):
        g = generate(spec)
        assert g.n == n and g.edge_count() == m

    def test_random_dispatch_uses_seed(self):
        a = generate(FamilySpec("random_tree", (8,), seed=1))
        b = generate(FamilySpec("random_tree", (8,), seed=1))
        assert list(a.edges()) == list(b.edges())
        g = generate(FamilySpec("random_block_graph", (9, 4), seed=2))
        assert g.n == 9 and oracles.block_graph_oracle(g)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            generate(FamilySpec("petersen"))

    def test_wrong_arity(self):
        with pytest.raises(ValueError, match="size parameter"):
            generate(FamilySpec("path", (3, 4)))
        with pytest.raises(ValueError, match="size parameter"):
            generate(FamilySpec("complete_bipartite", (3,)))

    def test_grid_needs_dims(self):
        with pytest.raises(ValueError):
            generate(FamilySpec("grid", ()))

    def test_family_list_covers_dispatch(self):
        sample = {
            "path": (4,),
            "cycle": (4,),
            "complete": (4,),
            "complete_bipartite": (2, 2),
            "star": (3,),
            "grid": (2, 2),
            "hypercube": (2,),
            "random_tree": (5,),
            "random_block_graph": (5, 3),
            "subdivided_complete": (3,),
        }
        assert set(sample) == set(FAMILIES)
        for fam, sizes in sample.items():
            assert generate(FamilySpec(fam, sizes)).n >= 1
