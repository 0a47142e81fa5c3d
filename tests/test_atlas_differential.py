"""Exact solvers against the brute-force oracles on the graph atlas.

Revalidation shows that an answer is valid and maximal, not that it is
optimal: a search bound that cuts too much returns a worse optimum
without any error.  So every connected graph with at most 6 vertices is
solved both ways, comparing values and canonical witnesses, and so is
every connected labelled graph with at most 5, where the ids that break
the search's ties change from one labelling to the next.  The join
tests, ``visibility._joins`` and every engine's ``can_add``, are checked
on the same graphs by ``test_visibility.TestJoins``.  The paper's
reduction formula is checked on every base with 2 to 6 vertices, at
t = 3 and 4.  The 853 graphs with 7 vertices, both comparisons and the
formula, take about 25 s and run as ``scripts/atlas_differential.py``.
"""

from atlas import load_atlas, oracle_answers, oracle_rows, reduction_holds, solver_mismatches
from conftest import labelled_graphs
from vislab.graph_core import is_connected


def test_atlas_up_to_six_vertices():
    graphs = load_atlas(range(1, 7))
    assert len(graphs) == 143
    for index, g in graphs:
        bad, _, _ = solver_mismatches(g, oracle_answers(g), fast_paths=(True, False))
        assert not bad, (index, list(g.edges()), bad)


def test_labelled_graphs_up_to_five_vertices():
    # max and lower of every kind, lower with the mv cut-edge shortcut off
    graphs = [g for g in labelled_graphs(5) if is_connected(g)]
    assert len(graphs) == 772
    for g in graphs:
        want = {**oracle_rows(g, "max"), **oracle_rows(g, "lower")}
        bad, _, _ = solver_mismatches(g, want, fast_paths=(False,))
        assert not bad, (list(g.edges()), bad)


def test_reduction_formula_up_to_six_vertices():
    # a gadget needs a base with an edge: every connected one with n >= 2
    bases = load_atlas(range(2, 7))
    assert len(bases) == 142
    bad = [(index, t) for index, base in bases for t in (3, 4) if not reduction_holds(base, t)]
    assert not bad
