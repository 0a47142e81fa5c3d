"""Search engines and shortcuts against definitions and the plain search.

Revalidation of a solver's answer catches an engine that is too lax, but
not one that is too strict: a ``can_add`` that wrongly refuses a vertex
only makes the maximum smaller.  So every engine answer is compared
directly with ``is_valid_set`` on the extended set.  The mv cut-edge
shortcut must return the witness the search would return.
"""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from atlas import load_atlas
from conftest import connected_graphs
from vislab.graph_core import Graph, VertexSet, bridges, distance_matrix, is_connected
from vislab.solvers import _make_engine, solve_lower
from vislab.visibility import KINDS, is_valid_set


def connected_labelled_graphs(max_n):
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph.from_edges(n, [p for i, p in enumerate(pairs) if (mask >> i) & 1])
            if is_connected(g):
                yield g


def state_of(engine, x_mask):
    """Engine state holding the members of ``x_mask`` (and any seed)."""
    state = engine.seed_state
    m = x_mask & ~engine.seed_mask
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
    engine = _make_engine(g, kind, distance_matrix(g), force=True)
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
                got = bool((engine.seed_mask >> v) & 1)
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
