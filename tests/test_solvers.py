import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from atlas import (
    build,
    form_answers,
    gate_off,
    load_atlas,
    oracle_answers,
    oracle_rows,
    relabelled,
    solver_mismatches,
)
from conftest import bowtie, connected_graphs
from vislab import graph_core, solvers, visibility
from vislab.families import (
    complete,
    complete_bipartite,
    cycle,
    gen_subdivided_complete,
    grid,
    hypercube,
    path,
    random_block_graph,
    random_tree,
    star,
)
from vislab.graph_core import (
    DistanceMatrix,
    Graph,
    InstanceTooLargeError,
    cartesian_product,
    distance_matrix,
    mcs_order,
)
from vislab.rng import permutation
from vislab.solvers import (
    DEFAULT_CAP,
    _make_engine,
    greedy_maximal,
    greedy_profile,
    independent_domination,
    solve_lower,
    solve_max,
)
from vislab.visibility import KINDS, is_maximal_set, is_valid_set


class TestSolveMaxOracle:
    @pytest.mark.parametrize("kind", KINDS)
    def test_battery(self, battery, kind):
        for label, g in battery:
            bad, _, _ = solver_mismatches(g, oracle_rows(g, "max", (kind,)))
            assert not bad, label

    @pytest.mark.parametrize("kind", KINDS)
    @given(g=connected_graphs(min_n=1, max_n=5))
    @settings(max_examples=40)
    def test_random(self, kind, g):
        bad, _, _ = solver_mismatches(g, oracle_rows(g, "max", (kind,)))
        assert not bad

    def test_k5_everything_visible(self):
        got = solve_max(complete(5), "mv")
        assert got.value == 5

    def test_wide_grid(self):
        assert solve_max(grid((4, 5)), "mv").value == 8

    def test_clique_product_tmv(self):
        g = cartesian_product(complete(3), complete(4))
        assert solve_max(g, "tmv").value == 4

    def test_outcome_fields(self):
        got = solve_max(path(4), "mv")
        assert got.kind == "mv" and got.variant == "max"
        assert got.value == len(got.witness)
        assert got.nodes > 0 and got.elapsed >= 0
        assert got.fast_path is None

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            solve_max(Graph.from_edges(2, []), "mv")

    def test_cap(self):
        g = grid((5, 5))
        with pytest.raises(InstanceTooLargeError, match="force"):
            solve_max(g, "mv")

    def test_tmv_cap_counts_candidates(self):
        # 27 vertices but only the 8 corners are singleton-valid
        g = grid((3, 3, 3))
        assert solve_max(g, "tmv").value == 8


class TestSolveLowerOracle:
    @pytest.mark.parametrize("kind", KINDS)
    def test_battery(self, battery, kind):
        for label, g in battery:
            bad, _, _ = solver_mismatches(g, oracle_rows(g, "lower", (kind,)), fast_paths=(False,))
            assert not bad, label

    @pytest.mark.parametrize("kind", KINDS)
    @given(g=connected_graphs(min_n=1, max_n=5))
    @settings(max_examples=40)
    def test_random(self, kind, g):
        bad, _, _ = solver_mismatches(g, oracle_rows(g, "lower", (kind,)), fast_paths=(False,))
        assert not bad

    def test_witness_revalidated(self, battery):
        for kind in KINDS:
            for label, g in battery:
                got = solve_lower(g, kind, fast_path=False)
                assert is_valid_set(g, got.witness, kind), (label, kind)
                assert is_maximal_set(g, got.witness, kind), (label, kind)

    def test_empty_witness_when_tmv_zero(self):
        g, _ = gen_subdivided_complete(3)
        got = solve_lower(g, "tmv")
        assert got.value == 0
        assert got.witness.members() == ()

    def test_known_small_values(self):
        g = cartesian_product(complete(3), complete(4))
        assert solve_lower(g, "mv").value == 6
        assert solve_lower(g, "tmv").value == 3
        assert solve_lower(complete_bipartite(3, 2), "mv").value == 3
        assert solve_lower(complete_bipartite(3, 2), "gp").value == 2


class TestFastPath:
    def test_bridge_shortcut(self):
        got = solve_lower(path(5), "mv")
        assert got.value == 2
        assert got.fast_path == "cut-edge shortcut"
        assert got.nodes == 0
        assert got.witness.members() == (0, 1)

    def test_disabled_matches(self):
        # path 0-2-1: both cut edges contain 2, but the canonical witness
        # is the non-edge {0, 1}; C6 has gp⁻ = 2 with no cut edge, and
        # K3□K3 and the bowtie have no maximal gp pair
        p3 = Graph.from_edges(3, [(0, 2), (1, 2)])
        for g in (path(5), star(4), random_tree(9, 3), bowtie(), p3, cycle(6), build("K3xK3")):
            for kind in ("mv", "gp"):
                fast = solve_lower(g, kind)
                slow = solve_lower(g, kind, fast_path=False)
                assert slow.fast_path is None
                assert fast.value == slow.value
                assert fast.witness == slow.witness

    def test_bridgeless_untagged(self):
        got = solve_lower(cycle(5), "mv")
        assert got.fast_path is None

    def test_only_for_mv_and_gp_lower(self):
        got = solve_lower(path(5), "gp")
        assert got.fast_path == solvers.FAST_PATH_GP_PAIR
        assert got.nodes == 0
        assert got.witness.members() == (0, 1)
        assert solve_lower(path(5), "tmv").fast_path is None
        for kind in KINDS:
            assert solve_max(path(5), kind).fast_path is None

    def test_witness_is_a_bridge(self):
        got = solve_lower(bowtie(), "mv")
        # bowtie has no bridge, so no shortcut applies
        assert got.fast_path is None
        assert got.value == 3


class TestGpFloor:
    """gp lower on sparse graphs, where the search with no starting bound
    walked down from a near-maximum maximal set: 26,180,738 tests on
    B120-10-1, 672,458 on K4chain10@1 and 619,043 on K3chain20@1."""

    @pytest.mark.parametrize("fast", [True, False])
    @pytest.mark.parametrize(
        "spec, witness",
        [
            ("B120-10-1", (28, 68)),
            ("B240-6-1", (0, 6)),
            ("K4chain10@1", (0, 11, 13, 16)),
            ("K3chain20@1", (0, 16, 32)),
        ],
    )
    def test_sparse_rows(self, spec, witness, fast):
        got = solve_lower(build(spec), "gp", force=True, fast_path=fast)
        assert got.witness.members() == witness
        paired = fast and len(witness) == 2
        assert got.fast_path == (solvers.FAST_PATH_GP_PAIR if paired else None)
        assert got.nodes < 20_000
        assert (got.nodes == 0) == paired

    def test_pair_builds_no_tables(self, monkeypatch):
        # a maximal pair answers from the distance rows alone
        def refuse(*args):
            raise AssertionError("between or thru built for a pair answer")

        monkeypatch.setattr(DistanceMatrix, "between", property(refuse))
        monkeypatch.setattr(DistanceMatrix, "thru", property(refuse))
        got = solve_lower(path(DEFAULT_CAP + 6), "gp", force=True)
        assert got.witness.members() == (0, 1)

    @pytest.mark.parametrize("spec", ["C5", "K3xK3", "Q3", "K4chain5@2", "P3xC5"])
    def test_greedy_bound_is_a_maximal_set(self, spec):
        # the bound is the size of the definitional greedy scan over the
        # engine's mcs order, whose set is maximal
        g = build(spec)
        engine = _make_engine(g, "gp", False)
        size, tests = solvers._greedy_bound(g, engine)
        assert engine.order == tuple(mcs_order(g, range(g.n)))
        scan = visibility.greedy_maximal(g, "gp", engine.order)
        assert is_maximal_set(g, scan, "gp")
        assert (size, tests) == (len(scan), g.n)
        assert solve_lower(g, "gp", fast_path=False).value <= size


def circulant(n, steps):
    return Graph.from_edges(
        n, sorted({tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps})
    )


class TestSymmetry:
    @pytest.mark.parametrize(
        "g, prunes",
        [
            (cycle(7), False),  # no child costs the n² tests that start a mirror search
            (cartesian_product(complete(3), complete(4)), True),
            (hypercube(3), True),
            (circulant(10, (1, 2, 3)), True),
        ],
    )
    def test_relabelled_matches_oracle(self, g, prunes):
        # in a non-identity labelling the automorphisms solve_lower mirrors
        # children with move vertices far from their ids
        skipped = 0
        for seed in (1, 2, 3):
            h = relabelled(g, seed)
            bad, count, _ = solver_mismatches(h, oracle_rows(h, "lower"))
            assert not bad, (seed, bad)
            skipped += count
        assert skipped > 0 or not prunes

    @pytest.mark.parametrize(
        "g",
        [
            cycle(7),
            cartesian_product(complete(3), complete(4)),
            hypercube(3),
            circulant(10, (1, 2, 3)),
        ],
    )
    def test_max_relabelled_matches_oracle(self, g):
        # solve_max searches in an order set by the graph; the witness must
        # still be the lexicographically first optimum of each labelling
        for seed in (1, 2, 3):
            h = relabelled(g, seed)
            bad, _, _ = solver_mismatches(h, oracle_rows(h, "max"))
            assert not bad, (seed, bad)

    @pytest.mark.parametrize(
        "g, prunes",
        [
            (cartesian_product(complete(2), complete(6)), True),
            (hypercube(3), False),  # no child costs the n² tests that start a mirror search
            (cartesian_product(complete(3), complete(4)), False),
        ],
    )
    def test_max_mirrors_match_oracle(self, g, prunes):
        # solve_max skips children mirrored onto a costly failed child and
        # answers witness members by automorphism once its doll was costly
        skipped = 0
        for seed in (0, 1, 3, 4):
            h = relabelled(g, seed) if seed else g
            bad, count, _ = solver_mismatches(h, oracle_rows(h, "max"))
            assert not bad, (seed, bad)
            skipped += count
        assert skipped > 0 or not prunes

    def test_max_mirrors_without_gate_match_oracle(self):
        # with no gate every failed child and refuted id is mirrored onto,
        # and every witness member is first looked for by automorphism
        skipped = family_mv = 0
        with gate_off():
            for _, g in load_atlas(range(5, 7)):
                for seed in (0, 1, 2):
                    h = relabelled(g, seed) if seed else g
                    for kind in KINDS:
                        bad, count, _ = solver_mismatches(h, oracle_rows(h, "max", (kind,)))
                        assert not bad, (seed, bad)
                        skipped += count
                        engine = _make_engine(h, kind, False)
                        if kind == "mv" and isinstance(engine, solvers._FamilyEngine):
                            family_mv += count
        assert skipped > 0
        # diameter-2 mv runs on the family engine, at mv's gate, zeroed too
        assert family_mv > 0

    def test_lower_setwise_without_gate_match_oracle(self):
        # with no gate every child of every set is checked for an
        # automorphism keeping the set and mapping the child lower down
        skipped = family_mv = 0
        with gate_off():
            for index, g in load_atlas(range(5, 7)):
                for seed in (0, 1, 2):
                    h = relabelled(g, seed) if seed else g
                    want = oracle_rows(h, "lower", KINDS + ("independence",))
                    bad, count, _ = solver_mismatches(h, want, fast_paths=(False,))
                    assert not bad, (index, seed, bad)
                    skipped += count
                    if isinstance(_make_engine(h, "mv", False), solvers._FamilyEngine):
                        family_mv += solve_lower(h, "mv", fast_path=False).skipped
        assert skipped > 0
        assert family_mv > 0

    def test_setwise_beyond_pointwise(self):
        # K2□K4, set {0, 1}: the swap of columns 0 and 1 keeps the set and
        # maps 5 onto 4, but it moves both members, and no automorphism
        # fixing 0 and 1 maps 5 below itself
        g = cartesian_product(complete(2), complete(4))
        mirrors = solvers._Mirrors(g.metric, 0)
        below = 0b11100  # the vertices under 5 outside the set
        assert mirrors.find(0b11, 5, below) is None
        assert solvers._Stabilizer(mirrors, 0b11).drops(5, below)
        # 4 is the least of its orbit {4, 5}: row 0 holds the set, so the
        # rows cannot swap
        assert not solvers._Stabilizer(mirrors, 0b11).drops(4, 0b1100)

    def test_max_witness_pinned_past_oracle(self):
        # the witness the ascending-id witness pass returned before the
        # completion in the doll's order replaced it
        h = relabelled(cartesian_product(complete(3), complete(8)), 1)
        got = solve_max(h, "mv")
        assert (got.value, got.witness.members()) == (11, (0, 1, 2, 3, 4, 5, 6, 8, 9, 11, 13))
        assert got.skipped > 0

    @pytest.mark.parametrize(
        "g",
        [
            circulant(11, (2, 5)),
            circulant(11, (1, 2, 3)),
            circulant(12, (1, 2, 5)),
            cartesian_product(complete(3), complete(5)),
        ],
    )
    def test_value_independent_of_labelling(self, g):
        # past the oracles' reach: every labelling must give the same value,
        # and the solver's own revalidation raises on a non-maximal witness
        want = {kind: solve_lower(g, kind).value for kind in KINDS}
        for seed in (1, 2, 3):
            h = relabelled(g, seed)
            for kind in KINDS:
                assert solve_lower(h, kind).value == want[kind], (seed, kind)


class TestConvexBound:
    """The convex-path cut of ``solve_max``: a branch goes once its
    candidates, at most two on each convex path less the members already
    there, are fewer than it needs.  Under ``gate_off`` the paths are built
    before the first search, so the cut meets every small case."""

    GRAPHS = [grid((3, 4)), grid((2, 6)), cycle(8)] + [
        random_tree(n, seed) for n in (7, 9, 12) for seed in range(3)
    ]

    def test_without_gate_matches_oracle(self):
        pruned = 0
        with gate_off():
            for g in [g for _, g in load_atlas(range(1, 7))] + self.GRAPHS:
                bad, _, cuts = solver_mismatches(g, oracle_rows(g, "max"))
                assert not bad, (list(g.edges()), bad)
                pruned += cuts
        assert pruned > 0

    def test_grid_forms_without_gate(self):
        # P4□P5 is past the subset oracle; its tmv and gp sets are a
        # forbidden-set family
        g = grid((4, 5))
        with gate_off():
            assert solve_max(g, "gp", force=True).pruned > 0
            want = form_answers(g, ("tmv", "gp"))
            bad, _, _ = solver_mismatches(g, want, force=True)
        assert len(want) == 4 and not bad

    @pytest.mark.parametrize(
        "seed, witness, tests",
        [
            (1, (0, 1, 3, 4, 6, 12, 15, 21), 1273),
            (3, (0, 1, 2, 3, 4, 5, 7, 17), 1164),
        ],
    )
    def test_grid_rows(self, seed, witness, tests):
        # the four rows of P4□P6 hold at most 8 members, which the search
        # otherwise proves in 16,448 and 13,430 tests; ``tests`` is what the
        # cut leaves, with no slack
        got = solve_max(relabelled(grid((4, 6)), seed), "mv")
        assert (got.value, got.witness.members()) == (8, witness)
        assert got.pruned > 0
        assert got.nodes <= tests


def spider() -> Graph:
    # legs of 1, 2 and 3 edges from the centre 0; the leaves 3 and 6 have
    # the least degree and the largest eccentricity (5)
    return Graph.from_edges(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])


class TestMcsOrder:
    GRAPHS = [
        spider(),
        relabelled(spider(), 4),
        grid((3, 4)),
        relabelled(hypercube(3), 2),
        circulant(10, (1, 2, 3)),
        cartesian_product(complete(3), complete(4)),
        relabelled(cartesian_product(cycle(4), path(3)), 1),
    ]

    @pytest.mark.parametrize("g", GRAPHS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_order(self, g, kind):
        universe = _make_engine(g, kind, force=True).universe
        order = mcs_order(g, universe)
        assert tuple(sorted(order)) == universe
        assert mcs_order(g, universe) == order
        if not order:
            return
        rows = oracles.bfs_rows(g)
        first = min(universe, key=lambda v: (g.degree(v), -max(rows[v]), v))
        assert order[0] == first
        # each later vertex has the most placed neighbours, ties to the lowest id
        for i in range(1, len(order)):
            placed = set(order[:i])
            rest = [v for v in universe if v not in placed]
            want = min(rest, key=lambda v: (-len(placed & set(g.adj[v])), v))
            assert order[i] == want

    def test_spider_starts_at_far_leaf(self):
        assert mcs_order(spider(), list(range(7)))[0] == 3


class TestEngineChoice:
    """mv runs on the family engine exactly on graphs of diameter at most 2,
    a choice ``_make_engine`` makes from the adjacency, after the cap and
    before the metric."""

    GRAPHS = [
        cartesian_product(complete(3), complete(4)),
        cartesian_product(complete(4), complete(5)),
        grid((3, 3)),
        cycle(5),
        cycle(6),
        hypercube(4),
    ]

    def test_family_exactly_at_diameter_two(self):
        chosen = []
        for g in [g for _, g in load_atlas(range(1, 7))] + self.GRAPHS:
            family = isinstance(_make_engine(g, "mv", force=True), solvers._FamilyEngine)
            assert family == all(max(row) <= 2 for row in g.metric.rows), list(g.edges())
            chosen.append(family)
        assert any(chosen) and not all(chosen)

    def test_diameter_two_over_cap_refused_before_metric(self):
        g = cartesian_product(complete(5), complete(5))
        for solve in (solve_max, solve_lower):
            with pytest.raises(InstanceTooLargeError):
                solve(g, "mv")
        with pytest.raises(InstanceTooLargeError):
            _make_engine(g, "mv", False)
        assert "metric" not in vars(g)
        assert isinstance(_make_engine(g, "mv", True), solvers._FamilyEngine)

    def test_disconnected_within_cap_rejected(self):
        # two triangles: every component has diameter 1, yet the graph has
        # pairs at no distance at all
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert isinstance(_make_engine(g, "mv", False), solvers._MvEngine)
        for solve in (solve_max, solve_lower):
            with pytest.raises(ValueError, match="disconnected"):
                solve(g, "mv")


class TestEngineReuse:
    """Each graph object builds one engine per kind (``Graph.engines``), and
    a kept engine answers as a new one: the six solves and tmv greedy give
    the same values, witnesses and counts whatever ran before them on the
    graph, in either order, as on fresh copies."""

    CALLS = [(kind, variant) for kind in KINDS for variant in ("max", "lower")] + [
        ("tmv", "greedy")
    ]

    @staticmethod
    def answer(g, kind, variant):
        if variant == "greedy":
            return greedy_maximal(g, kind, 0).members()
        got = (solve_max if variant == "max" else solve_lower)(g, kind)
        return got.value, got.witness.members(), got.nodes, got.skipped, got.pruned

    @pytest.fixture
    def builds(self, monkeypatch):
        """The engines built while the test runs, in order."""
        built = []
        for name in ("_MvEngine", "_FamilyEngine", "_GpEngine"):
            base = getattr(solvers, name)

            def init(self, *args, base=base):
                base.__init__(self, *args)
                built.append(self)

            monkeypatch.setattr(solvers, name, type(name, (base,), {"__slots__": (), "__init__": init}))
        return built

    def test_one_build_per_kind_same_answers(self, builds):
        graphs = [g for _, g in load_atlas(range(1, 7))]
        graphs += [build(spec) for spec in ("K3xK4", "P4xP4", "Q4")]
        assert len(graphs) == 146
        for g in graphs:
            fresh = [self.answer(Graph(g.n, g.adj), *call) for call in self.CALLS]
            shared = Graph(g.n, g.adj)
            del builds[:]
            forward = [self.answer(shared, *call) for call in self.CALLS]
            backward = [self.answer(shared, *call) for call in reversed(self.CALLS)]
            assert forward == backward[::-1] == fresh, list(g.edges())
            assert sorted(shared.engines) == sorted(KINDS)
            assert sorted(map(id, builds)) == sorted(map(id, shared.engines.values()))

    def test_greedy_runs_share_one_engine(self, builds):
        g = grid((3, 4))
        p = greedy_profile(g, "tmv", runs=6, seed=0)
        assert p.runs == 6 and builds == [g.engines["tmv"]]


class TestMaxEdgeCases:
    def test_empty_tmv_universe(self):
        # no pair at distance 2: every vertex is seeded and nothing is searched
        g = complete(5)
        assert _make_engine(g, "tmv", force=True).universe == ()
        assert mcs_order(g, []) == []
        got = solve_max(g, "tmv")
        assert (got.value, got.witness.members()) == (5, (0, 1, 2, 3, 4))

    @pytest.mark.parametrize("kind", KINDS)
    def test_single_vertex(self, kind):
        g = complete(1)
        bad, _, _ = solver_mismatches(g, oracle_rows(g, "max", (kind,)))
        assert not bad and oracle_answers(g)[kind, "max"][0] == 1


class TestCap:
    def test_force_overrides(self):
        g = grid((5, 5))
        got = solve_lower(g, "mv", force=True, fast_path=False)
        assert got.value == 3

    def test_over_cap_raises(self):
        with pytest.raises(InstanceTooLargeError):
            solve_lower(cycle(DEFAULT_CAP + 1), "mv")

    @pytest.mark.parametrize(
        "solve, g, kind",
        [
            (solve_max, path(DEFAULT_CAP + 1), "mv"),
            (solve_max, path(DEFAULT_CAP + 1), "gp"),
            (solve_lower, cycle(DEFAULT_CAP + 1), "gp"),
            (solve_lower, cycle(DEFAULT_CAP + 1), "mv"),
            # tmv's candidates come from the adjacency: 25 in K5□K5, and
            # in K25 none to branch on but 25 forced into every set
            (solve_max, cartesian_product(complete(5), complete(5)), "tmv"),
            (solve_lower, complete(DEFAULT_CAP + 1), "tmv"),
            (independent_domination, path(30), None),
        ],
    )
    def test_refused_before_tables(self, solve, g, kind, monkeypatch):
        # every engine knows its candidates before the metric, and every
        # solver builds its engine first
        def refuse(*args):
            raise AssertionError("metric built despite the cap")

        monkeypatch.setattr(DistanceMatrix, "between", property(refuse))
        monkeypatch.setattr(DistanceMatrix, "thru", property(refuse))
        monkeypatch.setattr(graph_core, "distance_matrix", refuse)
        with pytest.raises(InstanceTooLargeError):
            solve(g) if kind is None else solve(g, kind)

    def test_forced_engine_keeps_the_cap(self):
        # greedy builds Q5's tmv engine forced (32 candidates); the kept
        # engine does not let an unforced search through
        q5 = hypercube(5)
        greedy_maximal(q5, "tmv", 0)
        assert len(q5.engines["tmv"].universe) == 32
        with pytest.raises(InstanceTooLargeError):
            solve_max(q5, "tmv")
        g = cartesian_product(complete(5), complete(5))
        for kind in KINDS:
            _make_engine(g, kind, True)
            for solve in (solve_max, solve_lower):
                with pytest.raises(InstanceTooLargeError):
                    solve(g, kind)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("solve", [solve_max, solve_lower])
    def test_fresh_graph_refused_before_metric(self, solve, kind):
        # 25 vertices, all of them tmv candidates, and no cut edge
        g = cartesian_product(complete(5), complete(5))
        with pytest.raises(InstanceTooLargeError):
            solve(g, kind)
        assert "metric" not in vars(g) and not g.engines

    def test_fast_path_dodges_cap(self):
        # the shortcut answers without any search, so size is no obstacle
        g = path(30)
        got = solve_lower(g, "mv")
        assert got.value == 2


class TestGreedy:
    def test_k_n_takes_everything(self):
        for seed in range(5):
            got = greedy_maximal(complete(6), "mv", seed)
            assert got.members() == tuple(range(6))

    def test_tree_tmv_is_leaf_set(self):
        for seed in range(5):
            g = random_tree(9, seed=11)
            leaves = tuple(v for v in range(g.n) if g.degree(v) == 1)
            assert greedy_maximal(g, "tmv", seed).members() == leaves

    def test_p5_bridge_capture(self):
        # permutation(5, 4) starts 1,2; the scan then sticks at the bridge
        assert tuple(permutation(5, 4)[:2]) == (1, 2)
        got = greedy_maximal(path(5), "mv", 4)
        assert got.members() == (1, 2)

    def test_deterministic(self):
        a = greedy_maximal(grid((3, 3)), "gp", 7)
        b = greedy_maximal(grid((3, 3)), "gp", 7)
        assert a == b

    def test_tmv_scan_matches_definitional_scan(self):
        # the blocker-family scan keeps the set the definitional scan keeps
        # over the same permutation; the recheck alone would pass any other
        # maximal set, such as one scanned in ascending ids.  Trees and
        # block graphs bring convex-P3 centres and mandatory vertices.
        graphs = [g for _, g in load_atlas(range(1, 8))]
        for n in range(1, 30):
            graphs.append(random_tree(n, seed=n))
            graphs.extend(random_block_graph(n, b, seed=n) for b in (3, 5))
        bad = [
            (tuple(g.edges()), s)
            for g in graphs
            for s in range(8)
            if greedy_maximal(g, "tmv", s)
            != visibility.greedy_maximal(g, "tmv", permutation(g.n, s))
        ]
        assert bad == []

    @pytest.mark.parametrize("kind", KINDS)
    @given(g=connected_graphs(min_n=1, max_n=6), seed=st.integers(0, 1000))
    @settings(max_examples=40)
    def test_valid_and_maximal(self, kind, g, seed):
        got = greedy_maximal(g, kind, seed)
        assert is_valid_set(g, got, kind)
        assert is_maximal_set(g, got, kind)


class TestGreedyProfile:
    def test_runs_validated(self):
        with pytest.raises(ValueError):
            greedy_profile(path(3), "mv", runs=0, seed=0)

    def test_p3_tmv(self):
        p = greedy_profile(path(3), "tmv", runs=10, seed=0)
        assert p.min_size == p.max_size == 2
        assert p.best_min_witness.members() == (0, 2)

    def test_c4_always_three(self):
        p = greedy_profile(cycle(4), "mv", runs=50, seed=0)
        assert p.min_size == p.max_size == 3

    def test_clique_product_floor(self):
        g = cartesian_product(complete(4), complete(4))
        p = greedy_profile(g, "mv", runs=200, seed=0)
        assert p.min_size >= 7

    def test_sandwich(self, battery):
        for kind in KINDS:
            for label, g in battery:
                lo = solve_lower(g, kind, fast_path=False).value
                hi = solve_max(g, kind).value
                p = greedy_profile(g, kind, runs=20, seed=0)
                assert lo <= p.min_size <= p.max_size <= hi, (label, kind)

    def test_deterministic(self):
        a = greedy_profile(grid((3, 3)), "mv", runs=10, seed=3)
        b = greedy_profile(grid((3, 3)), "mv", runs=10, seed=3)
        assert a == b

    @pytest.mark.parametrize("kind", KINDS)
    def test_runs_share_one_metric(self, kind, monkeypatch):
        # one graph object builds one metric: the six solves, the greedy
        # runs and the maximality check all read g.metric
        singles = [greedy_maximal(grid((3, 4)), kind, s) for s in range(7, 12)]
        g = grid((3, 4))
        builds, sets = [], []

        def counted(graph):
            builds.append(graph)
            return distance_matrix(graph)

        def recorded(*args):
            x = greedy_maximal(*args)
            sets.append(x)
            return x

        monkeypatch.setattr(graph_core, "distance_matrix", counted)
        monkeypatch.setattr(solvers, "greedy_maximal", recorded)
        for solve_kind in KINDS:
            solve_max(g, solve_kind)
            solve_lower(g, solve_kind)
        p = greedy_profile(g, kind, runs=5, seed=7)
        assert is_maximal_set(g, p.best_min_witness, kind)
        assert len(builds) == 1 and builds[0] is g
        assert sets == singles
        sizes = [len(x) for x in singles]
        best = min(singles, key=lambda x: (len(x), x.members()))
        assert (p.min_size, p.max_size, p.best_min_witness) == (min(sizes), max(sizes), best)


class TestLookahead:
    """The refusal lookahead of the lower search, on the dense draws of
    ``scripts/bench_ladder.py`` (all of diameter 2).  Values and canonical
    witnesses are those of the search without it; ``tests`` is what the
    lookahead leaves, a bound with no slack, so that a weaker cut (one
    that also counts refused vertices as able to complete a forbidden
    set, say) fails here.  Without the lookahead the six rows take
    3,258,910 / 2,584,793 / 1,544,331 / 911,145 / 65,910 / 373,380 tests."""

    ROWS = [
        # (n, p, s, kind, value, witness, tests)
        (22, 0.6, 0, "tmv", 10, (2, 5, 6, 8, 10, 11, 14, 15, 16, 18), 15509),
        (22, 0.6, 0, "mv", 10, (2, 4, 5, 6, 7, 13, 16, 17, 18, 19), 2410),
        (22, 0.6, 1, "tmv", 11, (0, 1, 3, 4, 6, 10, 11, 12, 17, 20, 21), 7651),
        (22, 0.6, 1, "mv", 8, (3, 7, 9, 13, 15, 17, 19, 20), 1586),
        (24, 0.5, 1, "tmv", 11, (1, 3, 4, 6, 8, 9, 11, 13, 14, 17, 21), 1199),
        (24, 0.5, 1, "mv", 7, (0, 2, 3, 7, 8, 13, 15), 7901),
    ]

    @pytest.mark.parametrize("n, p, s, kind, value, witness, tests", ROWS)
    def test_dense_rows(self, n, p, s, kind, value, witness, tests):
        res = solve_lower(build(f"G{n}-{p}-{s}"), kind, force=True)
        assert (res.value, res.witness.members()) == (value, witness)
        assert res.pruned > 0
        assert res.nodes <= tests

    def test_only_forbidden_set_families(self):
        # gp (a family of collinear triples, but kept on its own engine
        # for speed) and mv on Q4 (diameter 4, no family) do not run on
        # the family engine: those searches cut nothing, nor does the max
        # search on K4□K4, which has no convex path of 3 vertices
        assert solve_lower(hypercube(4), "gp").pruned == 0
        assert solve_lower(hypercube(4), "mv").pruned == 0
        assert solve_lower(hypercube(4), "tmv").pruned > 0
        k44 = cartesian_product(complete(4), complete(4))
        assert solve_lower(k44, "mv").pruned > 0
        assert solve_max(k44, "mv").pruned == 0
        assert independent_domination(cycle(24)).pruned > 0


class TestIndependentDomination:
    def test_examples(self):
        assert independent_domination(path(3)).value == 1
        assert independent_domination(complete(7)).value == 1
        assert independent_domination(cycle(5)).value == 2
        assert independent_domination(star(4)).value == 1

    @given(g=connected_graphs(min_n=1, max_n=7))
    @settings(max_examples=50)
    def test_matches_oracle(self, g):
        want = {("independence", "lower"): oracles.independent_domination_oracle(g)}
        assert solver_mismatches(g, want)[0] == []

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_symmetry_skip_keeps_witness(self, seed):
        # the lower search's symmetry skip fires on C20 in every labelling
        g = relabelled(cycle(20), seed)
        want = {("independence", "lower"): oracles.independent_domination_oracle(g)}
        bad, skipped, _ = solver_mismatches(g, want)
        assert not bad and skipped > 0

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            independent_domination(Graph.from_edges(4, [(0, 1), (2, 3)]))

    def test_witness_is_independent_dominating(self):
        got = independent_domination(grid((3, 4)))
        ids = got.witness.members()
        g = grid((3, 4))
        assert not any(
            g.has_edge(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]
        )
        dominated = set(ids)
        for v in ids:
            dominated.update(g.adj[v])
        assert dominated == set(range(g.n))

    def test_cap(self):
        with pytest.raises(InstanceTooLargeError):
            independent_domination(Graph.from_edges(30, [(i, i + 1) for i in range(29)]))


class TestDeterminism:
    @pytest.mark.parametrize("kind", KINDS)
    def test_repeat_solves_identical(self, kind):
        # the counters are reproducible too, the symmetry skip's included
        def fields(res):
            return res.value, res.witness, res.nodes, res.skipped

        # neither graph has a cut edge, so both variants search
        for g in (grid((2, 4)), relabelled(circulant(10, (1, 2, 3)), 1)):
            for solve in (solve_lower, solve_max):
                assert fields(solve(g, kind)) == fields(solve(g, kind))
