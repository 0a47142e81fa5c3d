"""Search engines and shortcuts against definitions and the plain search.

Revalidation of a solver's answer catches an engine that is too lax, but
not one that is too strict: a ``can_add`` that wrongly refuses a vertex
only makes the maximum smaller.  So every engine answer is compared
directly with ``is_valid_set`` on the extended set.  The mv cut-edge
shortcut must return the witness the search would return.

The mv engine settles most members from their geodesic intervals alone
(adjacent, at distance 2, or with no member inside the interval) and
searches only the rest, inside the union of their intervals.  Random
walks over valid sets of products, a hypercube and random graphs with 10
to 20 vertices reach every one of those cases with several members left
to search: an engine that searched only the last such member's interval
passes every test on at most 8 vertices, but not these.
"""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from atlas import load_atlas
from conftest import connected_graphs, labelled_graphs, relabelled
from vislab.families import complete, cycle, grid, hypercube, path, random_block_graph, random_tree
from vislab.graph_core import (
    Graph,
    VertexSet,
    bridges,
    cartesian_product,
    is_connected,
)
from vislab.rng import SplitMix64
from vislab.solvers import _make_engine, solve_lower
from vislab.theorems import _draw_connected
from vislab.visibility import KINDS, is_maximal_set, is_valid_set


def connected_labelled_graphs(max_n):
    return (g for g in labelled_graphs(max_n) if is_connected(g))


def state_of(engine, x_mask):
    """Engine state holding the members of ``x_mask`` (and any seed)."""
    state = engine.seed_state
    m = x_mask & ~engine.seed_state[0]
    while m:
        low = m & -m
        state = engine.add(state, low.bit_length() - 1)
        m ^= low
    return state


def mismatches(g, kind, valid, x_masks):
    """Pairs (X, v) where the engine and ``valid`` (mask -> bool) disagree.

    Vertices outside the engine's universe are either seeded (always
    addable) or impossible (never addable); both claims are checked too.
    """
    engine = _make_engine(g, kind, force=True)
    universe = set(engine.universe)
    bad = []
    for x in x_masks:
        state = state_of(engine, x)
        for v in range(g.n):
            if (x >> v) & 1:
                continue
            if v in universe:
                got = engine.can_add(state, v)
            else:
                got = bool((engine.seed_state[0] >> v) & 1)
            if got != valid(x | (1 << v)):
                bad.append((x, v))
    return bad


def exhaustive_mismatches(g, kind):
    """``mismatches`` over every valid X of ``g``."""
    table = [is_valid_set(g, VertexSet(g.n, m), kind) for m in range(1 << g.n)]
    x_masks = [m for m in range(1 << g.n) if table[m]]
    return mismatches(g, kind, table.__getitem__, x_masks)


def test_exhaustive_up_to_five_vertices():
    graphs = list(connected_labelled_graphs(5))
    assert len(graphs) == 772
    for g in graphs:
        for kind in KINDS:
            bad = exhaustive_mismatches(g, kind)
            assert not bad, (kind, g.n, list(g.edges()), bad[:3])


def test_exhaustive_atlas_six_vertices():
    # every labelled graph with at most 5 vertices is covered by the test above
    graphs = load_atlas([6])
    assert len(graphs) == 112
    for index, g in graphs:
        for kind in KINDS:
            bad = exhaustive_mismatches(g, kind)
            assert not bad, (kind, index, list(g.edges()), bad[:3])


@given(g=connected_graphs(min_n=2, max_n=8), kind=st.sampled_from(KINDS), data=st.data())
@settings(max_examples=150, deadline=None)
def test_sampled_up_to_eight_vertices(g, kind, data):
    # a valid X: scan a random vertex subset, keeping what stays valid
    pool = data.draw(st.integers(0, (1 << g.n) - 1))
    x = 0
    for v in range(g.n):
        if (pool >> v) & 1 and is_valid_set(g, VertexSet(g.n, x | (1 << v)), kind):
            x |= 1 << v
    bad = mismatches(g, kind, lambda m: is_valid_set(g, VertexSet(g.n, m), kind), [x])
    assert not bad, bad


def test_shortcut_witness_exhaustive_up_to_five_vertices():
    bridged = [g for g in connected_labelled_graphs(5) if g.n >= 2 and bridges(g)]
    for g in bridged:
        fast = solve_lower(g, "mv")
        slow = solve_lower(g, "mv", fast_path=False)
        assert fast.fast_path is not None
        assert fast.witness == slow.witness, list(g.edges())


def first_maximal_pair(g):
    """The lexicographically first pair that ``is_maximal_set`` accepts."""
    for pair in combinations(range(g.n), 2):
        if is_maximal_set(g, VertexSet.from_ids(g.n, pair), "mv"):
            return pair
    return None


def test_shortcut_witness_on_long_geodesics():
    # bridged graphs far past five vertices, with long geodesics and many
    # of them between two vertices: K30 with a 10-vertex tail, the 6x6 grid
    # (252 geodesics corner to corner) with a 4-vertex tail, random trees
    # and block graphs on 20 to 40 vertices, each in three labellings
    graphs = [
        Graph.from_edges(40, list(complete(30).edges()) + [(v, v + 1) for v in range(29, 39)]),
        Graph.from_edges(40, list(grid((6, 6)).edges()) + [(v, v + 1) for v in range(35, 39)]),
    ]
    for n in range(20, 41, 5):
        graphs += [random_tree(n, n), random_block_graph(n, 5, n)]
    for g in graphs:
        assert bridges(g)
        for seed in (0, 1, 2):
            h = relabelled(g, seed) if seed else g
            fast = solve_lower(h, "mv")
            assert fast.fast_path is not None
            assert fast.witness.members() == first_maximal_pair(h), (list(g.edges()), seed)


def mv_walk_mismatches(g, walks, rng):
    """Grow ``walks`` random valid mv sets one vertex at a time, comparing
    ``can_add`` with ``is_valid_set`` for every non-member at every step.
    Returns the (member mask, v) pairs that disagree and the number of
    checks."""
    engine = _make_engine(g, "mv", force=True)
    bad, checks = [], 0
    for _ in range(walks):
        state, x = engine.seed_state, 0
        while True:
            joinable = []
            for v in range(g.n):
                if (x >> v) & 1:
                    continue
                want = is_valid_set(g, VertexSet(g.n, x | (1 << v)), "mv")
                checks += 1
                if engine.can_add(state, v) != want:
                    bad.append((state[0], v))
                if want:
                    joinable.append(v)
            if not joinable:
                break
            v = joinable[rng.below(len(joinable))]
            state, x = engine.add(state, v), x | (1 << v)
    return bad, checks


def test_mv_walks_on_products_and_hypercube():
    bases = {
        "P4xP5": grid((4, 5)),
        "Q4": hypercube(4),
        "K3xK4": cartesian_product(complete(3), complete(4)),
        "C5xC4": cartesian_product(cycle(5), cycle(4)),
        "P3xK4": cartesian_product(path(3), complete(4)),
    }
    total = 0
    for name, base in bases.items():
        for seed, g in enumerate((base, relabelled(base, 1), relabelled(base, 2))):
            bad, checks = mv_walk_mismatches(g, 10, SplitMix64(seed))
            assert not bad, (name, seed, bad[:3])
            total += checks
    assert total > 15000


def test_mv_walks_on_random_graphs():
    rng = SplitMix64(2024)
    total = 0
    for i in range(30):
        n = 10 + i % 7
        g = _draw_connected(rng, n, (0.2, 0.35, 0.5)[i % 3])
        bad, checks = mv_walk_mismatches(g, 10, rng)
        assert not bad, (n, list(g.edges()), bad[:3])
        total += checks
    assert total > 20000
