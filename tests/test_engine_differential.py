"""Search engines and shortcuts against definitions and the plain search.

Revalidation of a solver's answer catches an engine that is too lax, but
not one that is too strict: a ``can_add`` that wrongly refuses a vertex
only makes the maximum smaller.  So every engine answer is compared
directly with ``is_valid_set`` on the extended set, through
``atlas.join_mismatches``, which checks ``visibility._joins`` beside it.
Here it runs on hypothesis samples with at most 8 vertices and on the mv
walks below; ``test_visibility.TestJoins`` runs it on every valid set of
every labelled graph with at most 5 vertices and every atlas graph with
at most 6, and ``scripts/atlas_differential.py`` on the atlas graphs
with 7.  The mv cut-edge shortcut must return the witness the search
would return.

The mv engine settles most members from their geodesic intervals alone
(adjacent, at distance 2, or with no member inside the interval) and
searches only the rest, inside the union of their intervals.  Random
walks over valid sets of products, a hypercube and random graphs with 10
to 20 vertices reach every one of those cases with several members left
to search: an engine that searched only the last such member's interval
passes every test on at most 8 vertices, but not these.
"""

from functools import cache
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from atlas import build, join_mismatches
from conftest import connected_graphs, labelled_graphs, relabelled
from vislab.families import complete, grid, random_block_graph, random_tree
from vislab.graph_core import Graph, VertexSet, bridges, is_connected
from vislab.rng import SplitMix64
from vislab.solvers import solve_lower
from vislab.theorems import _draw_connected
from vislab.visibility import KINDS, is_maximal_set, is_valid_set


@given(g=connected_graphs(min_n=2, max_n=8), kind=st.sampled_from(KINDS), data=st.data())
@settings(max_examples=150, deadline=None)
def test_sampled_up_to_eight_vertices(g, kind, data):
    # a valid X: scan a random vertex subset, keeping what stays valid
    pool = data.draw(st.integers(0, (1 << g.n) - 1))
    x = 0
    for v in range(g.n):
        if (pool >> v) & 1 and is_valid_set(g, VertexSet(g.n, x | (1 << v)), kind):
            x |= 1 << v
    bad, _, _ = join_mismatches(g, kind, [x])
    assert not bad, bad


def test_shortcut_witness_exhaustive_up_to_five_vertices():
    bridged = [g for g in labelled_graphs(5) if g.n >= 2 and is_connected(g) and bridges(g)]
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
    """Grow ``walks`` random valid mv sets one vertex at a time and check
    every set on the way with ``atlas.join_mismatches``."""

    @cache
    def valid(m):
        return is_valid_set(g, VertexSet(g.n, m), "mv")

    masks = []
    for _ in range(walks):
        x = 0
        while True:
            masks.append(x)
            joinable = [v for v in range(g.n) if not x >> v & 1 and valid(x | 1 << v)]
            if not joinable:
                break
            x |= 1 << joinable[rng.below(len(joinable))]
    return join_mismatches(g, "mv", masks, valid)


def test_mv_walks_on_products_and_hypercube():
    total = 0
    for name in ("P4xP5", "Q4", "K3xK4", "C5xC4", "P3xK4"):
        base = build(name)
        for seed, g in enumerate((base, relabelled(base, 1), relabelled(base, 2))):
            bad, checks, _ = mv_walk_mismatches(g, 10, SplitMix64(seed))
            assert not bad, (name, seed, bad[:3])
            total += checks
    assert total > 15000


def test_mv_walks_on_random_graphs():
    rng = SplitMix64(2024)
    total = 0
    for i in range(30):
        n = 10 + i % 7
        g = _draw_connected(rng, n, (0.2, 0.35, 0.5)[i % 3])
        bad, checks, _ = mv_walk_mismatches(g, 10, rng)
        assert not bad, (n, list(g.edges()), bad[:3])
        total += checks
    assert total > 20000
