"""Invariants that tie the modules together, exercised on random graphs."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import connected_graphs, graphs
from vislab.graph_core import VertexSet, bridges
from vislab.solvers import greedy_profile, solve_lower, solve_max
from vislab.visibility import KINDS, is_valid_set, pair_visible


@given(g=graphs(max_n=6), data=st.data(), kind=st.sampled_from(KINDS))
@settings(max_examples=120)
def test_validity_survives_removal(g, data, kind):
    mask = data.draw(st.integers(0, (1 << g.n) - 1))
    x = VertexSet(g.n, mask)
    assume(is_valid_set(g, x, kind))
    for v in x.members():
        smaller = VertexSet(g.n, mask & ~(1 << v))
        assert is_valid_set(g, smaller, kind)


# on a connected graph every general-position set is a mutual-visibility
# set; without connectivity a pair with no path at all breaks the chain
@given(g=connected_graphs(max_n=6), data=st.data())
@settings(max_examples=120)
def test_general_position_is_stricter(g, data):
    mask = data.draw(st.integers(0, (1 << g.n) - 1))
    x = VertexSet(g.n, mask)
    assume(is_valid_set(g, x, "gp"))
    assert is_valid_set(g, x, "mv")


@given(g=graphs(max_n=6), data=st.data())
@settings(max_examples=100)
def test_blocking_only_shrinks_visibility(g, data):
    mask = data.draw(st.integers(0, (1 << g.n) - 1))
    a = data.draw(st.integers(0, g.n - 1))
    b = data.draw(st.integers(0, g.n - 1))
    x = VertexSet(g.n, mask)
    sub = VertexSet(g.n, mask & data.draw(st.integers(0, (1 << g.n) - 1)))
    if pair_visible(g, x, a, b):
        assert pair_visible(g, sub, a, b)


@given(g=connected_graphs(min_n=2, max_n=6), kind=st.sampled_from(KINDS), seed=st.integers(0, 100))
@settings(max_examples=60)
def test_greedy_lands_between_the_optima(g, kind, seed):
    lo = solve_lower(g, kind, fast_path=False).value
    hi = solve_max(g, kind).value
    profile = greedy_profile(g, kind, runs=20, seed=seed)
    assert lo <= profile.min_size <= profile.max_size <= hi


@given(g=connected_graphs(min_n=2, max_n=6), kind=st.sampled_from(("mv", "gp")))
@settings(max_examples=120)
def test_shortcut_value_matches_search(g, kind):
    # mv's cut-edge shortcut answers on a graph with a cut edge, gp's pair
    # scan exactly when gp⁻ = 2, which a cut edge implies
    fast = solve_lower(g, kind)
    slow = solve_lower(g, kind, fast_path=False)
    assert fast.value == slow.value
    assert fast.witness == slow.witness
    cut = bool(bridges(g))
    assert bool(fast.fast_path) == (cut if kind == "mv" else slow.value == 2)
    assert slow.value == 2 or not cut


@given(g=connected_graphs(min_n=1, max_n=6), kind=st.sampled_from(KINDS))
@settings(max_examples=40)
def test_lower_never_exceeds_max(g, kind):
    lo = solve_lower(g, kind, fast_path=False)
    hi = solve_max(g, kind)
    assert lo.value <= hi.value
