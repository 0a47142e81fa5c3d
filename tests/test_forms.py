"""The forbidden-set forms of the three kinds, as an oracle past the atlas.

On a connected graph, tmv, gp, and mv on graphs of diameter at most 2,
each have a fixed family of forbidden vertex sets: a set is valid iff it
holds none of them (``oracles.forbidden_sets_oracle``).  Each form, and
each kind's whole-set predicate ``is_valid_set`` (mv at every
diameter), is pinned here against the definitional
``oracles.valid_oracle`` on every vertex subset of the atlas graphs
with at most 6 vertices (``atlas.definition_mismatches``), on those
with 7 by ``scripts/atlas_differential.py``, and on every labelled
graph with at most 5 by ``test_visibility.TestJoins``.  A plain walk
over the valid sets (``oracles.walk_oracle``), joined through a form
(``oracles.form_joins``, tabled by ``atlas.form_answers``), then checks
``solve_max`` and ``solve_lower`` (``atlas.solver_mismatches``) on 15-
to 18-vertex graphs in three labellings, where the search rules fire
and the brute-force oracles cannot reach.  The heavier rows run as
``scripts/form_differential.py``.  mv at diameter 3 or more has no form;
there the same walk joins through ``oracles.valid_oracle`` itself, on
P4xP4 (diameter 6) and a G(16, 0.3) draw (diameter 4).
"""

import pytest

import oracles
from atlas import build, definition_mismatches, form_answers, load_atlas, solver_mismatches
from conftest import relabelled
from vislab.families import path


def test_forms_match_definitions_on_atlas():
    graphs = load_atlas(range(1, 7))
    forms = 0
    for index, g in graphs:
        bad, count = definition_mismatches(g)
        assert not bad, (index, bad[:5])
        forms += count
    # every tmv and gp form, and the mv form on the graphs of diameter <= 2
    assert 2 * len(graphs) < forms < 3 * len(graphs)


def test_mv_form_needs_diameter_two():
    # on P4 the set {0, 1, 3} holds no {a, b} + C(a, b), yet 1 blocks 0 from 3
    assert oracles.forbidden_sets_oracle(path(4), "mv") is None
    assert not oracles.valid_oracle(path(4), [0, 1, 3], "mv")


# ``atlas.build`` names
SLICE = ("K3xK5", "K4xK4", "P4xP4", "G16-0.5-0", "G16-0.5-1", "G18-0.4-0", "G18-0.4-1")


@pytest.mark.parametrize("name", sorted(SLICE))
def test_solvers_match_form_oracle(name):
    g = build(name)
    for seed in (None, 1, 2):
        h = g if seed is None else relabelled(g, seed)
        want = form_answers(h)
        bad, _, _ = solver_mismatches(h, want, force=True)
        assert not bad, (name, seed, bad)
        # mv only on the clique products, the slice's graphs of diameter 2
        kinds = {kind for kind, _ in want}
        assert kinds == ({"mv", "tmv", "gp"} if name[0] == "K" else {"tmv", "gp"})


@pytest.mark.parametrize(
    "name, seed",
    [("P4xP4", None), ("P4xP4", 1), ("P4xP4", 2), ("G16-0.3-0", None)],
)
def test_mv_past_diameter_two_matches_definitional_walk(name, seed):
    # _MvEngine's interval tests, member reaches and pair walks, against a
    # join test that lists every geodesic between the members
    g = build(name)
    h = g if seed is None else relabelled(g, seed)
    assert oracles.forbidden_sets_oracle(h, "mv") is None
    want_max, want_lower = oracles.walk_oracle(
        h, lambda x, v: oracles.valid_oracle(h, x | {v}, "mv")
    )
    want = {("mv", "max"): want_max, ("mv", "lower"): want_lower}
    bad, _, _ = solver_mismatches(h, want, fast_paths=(False,))
    assert not bad, (name, seed, bad)
