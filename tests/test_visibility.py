from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from atlas import (
    corner_mismatches,
    definition_mismatches,
    join_mismatches,
    joins_mismatches,
    load_atlas,
)
from conftest import bowtie, connected_graphs, graphs, labelled_graphs
from vislab import solvers, visibility
from vislab.families import complete, cycle, grid, hypercube, path, random_tree, star
from vislab.graph_core import Graph, VertexSet, blocked_corner, cartesian_product
from vislab.rng import permutation
from vislab.visibility import (
    KINDS,
    _joins,
    check_kind,
    convex_p3_centers,
    greedy_maximal,
    is_maximal_set,
    is_tmv_set,
    is_valid_set,
    neighborhood_bound,
    neighborhood_lemma_scan,
    pair_visible,
    tmv_candidates,
    visible_mask,
)


def vset(g, *ids):
    return VertexSet.from_ids(g.n, ids)


class TestPairVisible:
    def test_blocked_unique_geodesic(self):
        g = path(3)
        assert not pair_visible(g, vset(g, 1), 0, 2)
        assert pair_visible(g, vset(g, 0, 2), 0, 2)

    def test_alternate_route(self):
        g = cycle(4)
        assert pair_visible(g, vset(g, 1), 0, 2)
        assert not pair_visible(g, vset(g, 1, 3), 0, 2)

    def test_adjacent_never_blocked(self):
        g = path(2)
        assert pair_visible(g, vset(g, 0, 1), 0, 1)

    def test_disconnected_pair(self):
        g = Graph.from_edges(2, [])
        assert not pair_visible(g, vset(g), 0, 1)
        assert pair_visible(g, vset(g), 0, 0)

    def test_foreign_universe(self):
        # a set over another vertex count is an error, as in is_mv_set
        g = path(3)
        x = VertexSet(5, 0b11010)
        with pytest.raises(ValueError, match="universe"):
            pair_visible(g, x, 0, 2)
        with pytest.raises(ValueError, match="universe"):
            is_valid_set(g, x, "mv")

    @given(connected_graphs(min_n=2, max_n=6), st.data())
    @settings(max_examples=80)
    def test_matches_oracle(self, g, data):
        mask = data.draw(st.integers(0, (1 << g.n) - 1))
        x = VertexSet(g.n, mask)
        a = data.draw(st.integers(0, g.n - 1))
        b = data.draw(st.integers(0, g.n - 1))
        assert pair_visible(g, x, a, b) == \
            oracles.visible_oracle(g, x.members(), a, b)

    @given(connected_graphs(min_n=2, max_n=6), st.data())
    @settings(max_examples=60)
    def test_symmetric(self, g, data):
        mask = data.draw(st.integers(0, (1 << g.n) - 1))
        x = VertexSet(g.n, mask)
        a = data.draw(st.integers(0, g.n - 1))
        b = data.draw(st.integers(0, g.n - 1))
        assert pair_visible(g, x, a, b) == pair_visible(g, x, b, a)

    @given(connected_graphs(min_n=2, max_n=6), st.data())
    @settings(max_examples=60)
    def test_smaller_blocker_keeps_visibility(self, g, data):
        mask = data.draw(st.integers(0, (1 << g.n) - 1))
        sub = mask & data.draw(st.integers(0, (1 << g.n) - 1))
        a = data.draw(st.integers(0, g.n - 1))
        b = data.draw(st.integers(0, g.n - 1))
        if pair_visible(g, VertexSet(g.n, mask), a, b):
            assert pair_visible(g, VertexSet(g.n, sub), a, b)


class TestVisibleMask:
    def test_source_row(self):
        g = cycle(5)
        mask = visible_mask(g, 0, 0, (1 << 5) - 1)
        assert mask == (1 << 5) - 1

    def test_blocked_vertex_still_reached(self):
        # a blocked vertex is visible itself but does not relay
        g = path(3)
        mask = visible_mask(g, 0, 1 << 1, 0b111)
        assert mask & (1 << 1)
        assert not mask & (1 << 2)

    @staticmethod
    def every_need(g, src, blocked):
        return range(1 << g.n)

    @staticmethod
    def each_vertex(g, src, blocked):
        return [1 << t for t in range(g.n)]

    @staticmethod
    def set_needs(g, src, blocked):
        """The blocked vertices above ``src`` (what the set predicates ask)
        and every vertex."""
        return [blocked & (-2 << src), (1 << g.n) - 1]

    @classmethod
    def some_needs(cls, g, src, blocked):
        return cls.each_vertex(g, src, blocked) + cls.set_needs(g, src, blocked)

    @staticmethod
    def mismatches(g, needs):
        """(source, blocked mask, need, visible_mask) wherever the reach breaks
        its contract against ``oracles.visible_oracle``, over every source
        and every blocked mask, the source's bit included: need is a subset
        of the result exactly when all of it is visible, and every vertex of
        the result is visible."""
        bad = []
        for blocked in range(1 << g.n):
            ids = VertexSet(g.n, blocked).members()
            for src in range(g.n):
                want = sum(
                    1 << b for b in range(g.n) if oracles.visible_oracle(g, ids, src, b)
                )
                for need in needs(g, src, blocked):
                    got = visible_mask(g, src, blocked, need)
                    if got & ~want or (need & ~got == 0) != (need & ~want == 0):
                        bad.append((src, blocked, need, got))
        return bad

    def test_exhaustive_against_oracle_on_atlas(self):
        # from six vertices on, a layer can hold an unseen vertex ahead of a
        # seen one, so a reach that stops at the first unseen vertex fails
        graphs = load_atlas(range(1, 7))
        assert len(graphs) == 143
        for index, g in graphs:
            bad = self.mismatches(g, self.each_vertex)
            assert not bad, (index, list(g.edges()), bad[:5])

    def test_need_contract_on_atlas(self):
        # every need up to five vertices; on six, the needs the set predicates ask
        for index, g in load_atlas(range(1, 6)):
            bad = self.mismatches(g, self.every_need)
            assert not bad, (index, list(g.edges()), bad[:5])
        for index, g in load_atlas([6]):
            bad = self.mismatches(g, self.set_needs)
            assert not bad, (index, list(g.edges()), bad[:5])

    def test_exhaustive_two_components(self):
        # P3 on 0..2 and C4 on 3..6: the other component is never visible
        g = Graph.from_edges(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 3)])
        assert not self.mismatches(g, self.some_needs)
        for blocked in range(1 << g.n):
            for src in range(g.n):
                other = 0b1111000 if src < 3 else 0b0000111
                assert not visible_mask(g, src, blocked, (1 << g.n) - 1) & other


class TestValidity:
    def test_kind_check(self):
        with pytest.raises(ValueError):
            check_kind("nope")
        for kind in KINDS:
            check_kind(kind)

    def test_mv_examples(self):
        g = cycle(4)
        assert is_valid_set(g, vset(g, 0, 1, 2), "mv")
        assert not is_valid_set(g, vset(g, 0, 1, 2, 3), "mv")

    def test_tmv_examples(self):
        g = cycle(4)
        assert is_valid_set(g, vset(g, 0, 1), "tmv")
        assert not is_valid_set(g, vset(g, 0, 2), "tmv")

    def test_gp_examples(self):
        g = path(4)
        assert is_valid_set(g, vset(g, 0, 1), "gp")
        assert not is_valid_set(g, vset(g, 0, 1, 2), "gp")

    def test_tmv_disconnected_nothing_valid(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert not is_valid_set(g, vset(g), "tmv")
        # no member has a blocked corner, yet the components see nothing
        g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)])
        assert not any(is_tmv_set(g, VertexSet(g.n, m)) for m in range(1 << g.n))

    def test_corner_matches_oracle_on_atlas(self):
        # blocked_corner(adj, y, blocked) holds exactly when some two
        # neighbours of y at distance 2 are not visible past the blocked
        # set, for every y of every atlas graph with n <= 6 and every
        # blocked set holding y
        for _, g in load_atlas(range(1, 7)):
            for y in range(g.n):
                pairs = [(u, w) for u, w in combinations(g.adj[y], 2) if not g.has_edge(u, w)]
                for blocked in range(1 << g.n):
                    if not blocked >> y & 1:
                        continue
                    ids = [v for v in range(g.n) if blocked >> v & 1]
                    want = any(not oracles.visible_oracle(g, ids, u, w) for u, w in pairs)
                    got = blocked_corner(g.adj_masks, y, blocked)
                    assert got == want, (list(g.edges()), y, ids)

    @staticmethod
    def all_pairs_tmv(g, mask):
        # every pair asked of visible_mask from both ends
        full = (1 << g.n) - 1
        return all(visible_mask(g, a, mask & ~(1 << a), full) == full for a in range(g.n))

    def test_tmv_matches_all_pairs_on_atlas(self):
        # the shadow pull decides every subset of every atlas graph with
        # n <= 6 as every pair asked from both ends does
        for index, g in load_atlas(range(1, 7)):
            for m in range(1 << g.n):
                assert is_tmv_set(g, VertexSet(g.n, m)) == self.all_pairs_tmv(g, m), (index, m)

    @pytest.mark.parametrize("corner", [True, False])
    def test_tmv_matches_all_pairs_on_long_graphs(self, corner, monkeypatch):
        # geodesics longer than the atlas's: every set kept along the tmv
        # greedy scans of TestJoins.test_long_shadows and each of its
        # one-vertex extensions, against all_pairs_tmv (pair_visible pair by
        # pair takes 6 s here); with the corner test off, _joins keeps the
        # sets by the whole-set pull alone
        if not corner:
            monkeypatch.setattr(visibility, "blocked_corner", lambda adj, y, blocked: False)
        graphs = (grid((6, 6)), grid((6, 12)), hypercube(5), path(12), random_tree(24, seed=24))
        for g in graphs:
            kept = {0}
            for seed in range(3):
                mask = 0
                for u in permutation(g.n, seed):
                    if _joins(g, mask, u, "tmv"):
                        mask |= 1 << u
                        kept.add(mask)
            for mask in kept:
                for m in [mask] + [mask | 1 << v for v in range(g.n) if not mask >> v & 1]:
                    assert is_tmv_set(g, VertexSet(g.n, m)) == self.all_pairs_tmv(g, m), (g.n, m)

    def test_disconnected_pair_semantics(self):
        # no geodesic at all: the pair fails mutual visibility, while the
        # general-position condition is vacuous
        g = Graph.from_edges(3, [(0, 1)])
        assert not is_valid_set(g, vset(g, 0, 2), "mv")
        assert is_valid_set(g, vset(g, 0, 2), "gp")

    @pytest.mark.parametrize("kind", KINDS)
    @given(g=graphs(min_n=1, max_n=5), data=st.data())
    @settings(max_examples=60)
    def test_matches_oracle(self, kind, g, data):
        mask = data.draw(st.integers(0, (1 << g.n) - 1))
        x = VertexSet(g.n, mask)
        assert is_valid_set(g, x, kind) == \
            oracles.valid_oracle(g, x.members(), kind)


class TestMaximality:
    @pytest.mark.parametrize("kind", KINDS)
    def test_invalid_input_raises(self, kind):
        # mv decides validity from its own reaches, not through is_valid_set
        g = path(3)
        with pytest.raises(ValueError, match="not valid"):
            is_maximal_set(g, vset(g, 0, 1, 2), kind)
        with pytest.raises(ValueError, match="universe"):
            is_maximal_set(g, VertexSet(g.n + 1, 0b1), kind)

    def test_examples(self):
        g = cycle(4)
        assert is_maximal_set(g, vset(g, 0, 1, 2), "mv")
        assert not is_maximal_set(g, vset(g, 0, 1), "mv")
        assert is_maximal_set(g, vset(g, 0, 2), "gp")

    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data())
    @settings(max_examples=40)
    def test_matches_superset_oracle(self, kind, data):
        # no set is tmv-valid on a disconnected graph
        g = data.draw(connected_graphs(1, 5) if kind == "tmv" else graphs(1, 5))
        mask = data.draw(st.integers(0, (1 << g.n) - 1))
        x = VertexSet(g.n, mask)
        if not is_valid_set(g, x, kind):
            return
        assert is_maximal_set(g, x, kind) == \
            oracles.maximal_oracle(g, x.members(), kind)

    def test_tmv_refusals_stop_at_the_corner(self, monkeypatch):
        # past a valid set every tmv refusal shows at the added vertex's
        # corner, so rechecking a maximal set never reaches the whole-set
        # pull: the 20 greedy tmv sets of the greedy-wide graphs and the tmv
        # lower witness of every atlas graph with n <= 6 (is_valid_set goes
        # through _CHECKS, so only _joins' calls are counted)
        maximal = []
        wide = (grid((6, 6)), cartesian_product(complete(5), complete(5)), hypercube(5), grid((8, 8)))
        for g in wide:
            maximal += [(g, solvers.greedy_maximal(g, "tmv", s)) for s in range(20)]
        for _, g in load_atlas(range(1, 7)):
            maximal.append((g, solvers.solve_lower(g, "tmv").witness))
        calls = []
        pull = visibility.is_tmv_set
        monkeypatch.setattr(visibility, "is_tmv_set", lambda g, x: calls.append(x) or pull(g, x))
        for g, x in maximal:
            assert is_maximal_set(g, x, "tmv"), (g.n, x.members())
            assert len(calls) == 0, (g.n, x.members(), len(calls))


class TestJoins:
    """``_joins`` retests only what a new vertex can break, and each
    search engine's ``can_add`` reads its own state: both must agree with
    the whole-set predicate on every valid set and vertex
    (``atlas.join_mismatches``; the engines on connected graphs only),
    and ``is_maximal_set``, which decides mv and gp from the set, must
    hold exactly when no vertex outside the set joins.
    On the labelled graphs with at most 5 vertices, the whole-set
    predicates and ``is_maximal_set`` meet the definitional oracles too."""

    def test_exhaustive_on_atlas(self):
        corpus = load_atlas(range(1, 7))
        assert len(corpus) == 143
        checks = maximal = 0
        for index, g in corpus:
            bad, count, sets = joins_mismatches(g)
            assert not bad, (index, list(g.edges()), bad[:5])
            checks += count
            maximal += sets
        assert checks == 46354
        assert maximal == 13064

    def test_exhaustive_on_labelled_graphs(self):
        # every labelled graph with n <= 5: _joins on all 1,099, the 327
        # disconnected ones included, and the engines on the 772 connected;
        # on the same graphs every kind's whole-set predicate on every subset
        # (and each form of a connected graph) against valid_oracle, and
        # is_maximal_set on every valid set against maximal_oracle (a
        # disconnected graph has no form and no tmv set)
        graphs = list(labelled_graphs(5))
        assert len(graphs) == 1099
        subsets = forms = maximal = 0
        for g in graphs:
            bad, _, _ = joins_mismatches(g)
            assert not bad, (list(g.edges()), bad[:5])
            bad, count = definition_mismatches(g)
            assert not bad, (list(g.edges()), bad[:5])
            subsets += len(KINDS) << g.n
            forms += count
            for kind in KINDS:
                for mask in range(1 << g.n):
                    x = VertexSet(g.n, mask)
                    if is_valid_set(g, x, kind):
                        want = oracles.maximal_oracle(g, x.members(), kind)
                        assert is_maximal_set(g, x, kind) == want, (list(g.edges()), kind, mask)
                        maximal += 1
        assert (subsets, forms, maximal) == (101598, 1944, 53386)

    def test_long_shadows(self):
        # geodesics longer than the atlas's diameter of at most 6, so the
        # shadow of v runs further out (on P6xP12 a member above a lies in
        # it 6 slices from v) and so do the lines of the gp scan: every set
        # kept along 3 greedy scans, against every vertex outside it, and
        # greedy_maximal over the same order keeps the scan's last set
        graphs = (grid((6, 6)), grid((6, 12)), hypercube(5), path(12), random_tree(24, seed=24))
        for g in graphs:
            for kind in KINDS:
                for seed in range(3):
                    order = permutation(g.n, seed)
                    kept = [0]
                    for u in order:
                        if _joins(g, kept[-1], u, kind):
                            kept.append(kept[-1] | 1 << u)
                    bad, _, _ = join_mismatches(g, kind, kept)
                    assert not bad, (g.n, kind, seed, bad[:5])
                    assert greedy_maximal(g, kind, order).mask == kept[-1], (g.n, kind, seed)


class TestCornerReadings:
    """``simplicial_vertices``, ``convex_p3_centers`` and
    ``neighborhood_lemma_scan`` each read ``graph_core.blocked_corner``
    with another set blocked; ``atlas.corner_mismatches`` checks each,
    and ``tmv_candidates``, against its definition, on every labelled
    graph with at most 5 vertices and every atlas graph with at most 6."""

    def test_labelled_graphs_up_to_five_vertices(self):
        graphs = list(labelled_graphs(5))
        assert len(graphs) == 1099
        for g in graphs:
            bad, _ = corner_mismatches(g)
            assert not bad, (g.n, list(g.edges()), bad)

    def test_atlas_up_to_six_vertices(self):
        graphs = load_atlas(range(1, 7))
        assert len(graphs) == 143
        for index, g in graphs:
            bad, _ = corner_mismatches(g)
            assert not bad, (index, bad)


class TestCenters:
    def test_path_center(self):
        assert convex_p3_centers(path(3)).members() == (1,)

    def test_cycle4_has_none(self):
        assert convex_p3_centers(cycle(4)).members() == ()

    def test_star_center(self):
        assert convex_p3_centers(star(3)).members() == (0,)

    def test_candidates_complement(self):
        for g in (path(4), cycle(5), star(3), bowtie(), grid((2, 3))):
            centers = set(convex_p3_centers(g).members())
            cand = set(tmv_candidates(g).members())
            assert cand == set(range(g.n)) - centers


class TestNeighborhoodScan:
    def test_disconnected_raises(self):
        with pytest.raises(ValueError):
            neighborhood_lemma_scan(Graph.from_edges(2, []))

    def test_grid_corner_flagged(self):
        g = grid((3, 4))
        flags = dict(neighborhood_lemma_scan(g))
        assert flags[0]

    def test_path_interior_not_flagged(self):
        flags = dict(neighborhood_lemma_scan(path(4)))
        assert not flags[1] and not flags[2]

    def test_simplicial_always_flagged(self):
        from vislab.graph_core import simplicial_vertices

        for g in (path(4), bowtie(), complete(4), star(3)):
            flags = dict(neighborhood_lemma_scan(g))
            for v in simplicial_vertices(g):
                assert flags[v]

    def test_bound(self):
        assert neighborhood_bound(grid((3, 4))) == 3
        assert neighborhood_bound(complete(4)) == 4


class TestGreedyScan:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            greedy_maximal(path(3), "mv", [0, 1])
        with pytest.raises(ValueError):
            greedy_maximal(path(3), "mv", [0, 1, 1])

    def test_identity_order_on_c4(self):
        got = greedy_maximal(cycle(4), "mv", [0, 1, 2, 3])
        assert got.members() == (0, 1, 2)

    def test_tmv_disconnected_raises(self):
        with pytest.raises(ValueError, match="connected"):
            greedy_maximal(Graph.from_edges(2, []), "tmv", [0, 1])

    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data())
    @settings(max_examples=40)
    def test_result_valid_and_maximal(self, kind, data):
        # tmv raises on a disconnected graph (test_tmv_disconnected_raises)
        g = data.draw(connected_graphs(1, 6) if kind == "tmv" else graphs(1, 6))
        order = data.draw(st.permutations(range(g.n)))
        got = greedy_maximal(g, kind, order)
        assert is_valid_set(g, got, kind)
        assert is_maximal_set(g, got, kind)
