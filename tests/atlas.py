"""The frozen graph-atlas corpus and the solver-versus-oracle comparison.

``data/atlas_connected.txt`` holds every connected graph with at most 7
vertices up to isomorphism (written by ``scripts/freeze_atlas.py``).
An answer table maps (kind, variant) to the (value, witness tuple) the
solvers must return: ``oracle_answers`` fills it by brute force over
every subset, ``form_answers`` by a walk over the valid sets of each
forbidden-set form, which reaches graphs far past the atlas, and
``oracle_rows`` picks the brute-force rows a check is about.
``solver_mismatches`` is the one comparison of the solvers with such a
table, and ``form_definition_mismatches`` checks the forms themselves
against the definitions.
"""

import os
from contextlib import contextmanager
from functools import lru_cache

import oracles
from vislab import solvers
from vislab.families import gen_gadget
from vislab.graph_core import Graph, VertexSet
from vislab.solvers import independent_domination, solve_lower, solve_max
from vislab.visibility import KINDS, _joins, is_valid_set

ATLAS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "atlas_connected.txt")


def load_atlas(sizes):
    """[(atlas index, graph)] for the graphs whose vertex count is in ``sizes``."""
    out = []
    with open(ATLAS, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("#"):
                continue
            index, n, *edges = line.split()
            if int(n) in sizes:
                pairs = [tuple(int(x) for x in e.split("-")) for e in edges]
                out.append((int(index), Graph.from_edges(int(n), pairs)))
    return out


@lru_cache(maxsize=16)
def oracle_answers(g):
    """The answer table of ``g`` by brute force: (kind, variant) for every
    kind and variant from ``oracles.subset_oracle``, and ("independence",
    "lower") from ``oracles.independent_domination_oracle``.  Kept for
    the last graphs asked about, since the max, lower and gate-off checks
    of one graph each read it."""
    table = {}
    for kind in KINDS:
        table[kind, "max"], table[kind, "lower"] = oracles.subset_oracle(g, kind)
    table["independence", "lower"] = oracles.independent_domination_oracle(g)
    return table


def form_answers(g, kinds=KINDS):
    """The answer table of ``g`` from ``oracles.walk_oracle`` over the
    forbidden-set form of each kind of ``kinds`` that has one on ``g``
    (``oracles.forbidden_sets_oracle``); a kind without one has no rows."""
    table = {}
    for kind in kinds:
        sets = oracles.forbidden_sets_oracle(g, kind)
        if sets is not None:
            joins = oracles.form_joins(sets)
            table[kind, "max"], table[kind, "lower"] = oracles.walk_oracle(g, joins)
    return table


def oracle_rows(g, variant, kinds=KINDS):
    """The rows of ``oracle_answers(g)`` for ``variant`` and ``kinds``."""
    table = oracle_answers(g)
    return {(kind, variant): table[kind, variant] for kind in kinds}


def solver_mismatches(g, want, fast_paths=(True,), force=False):
    """The solvers against the answer table ``want``, as (mismatches
    (kind, variant, fast_path, solver answer, table answer), children the
    searches skipped by symmetry, branches the convex-path bound of
    ``solve_max`` cut).  A max row goes to ``solve_max``; a lower row to
    ``solve_lower`` once for each mv cut-edge shortcut setting in
    ``fast_paths`` (with the shortcut off the search runs); the
    independence row to ``independent_domination``, the lower search over
    independence.  The sets the lower searches' lookahead cut are not
    counted: they are no convex-path cuts."""
    bad = []
    skipped = pruned = 0
    for (kind, variant), answer in want.items():
        settings = fast_paths if variant == "lower" and kind in KINDS else (None,)
        for fast in settings:
            if kind == "independence":
                res = independent_domination(g)
            elif variant == "max":
                res = solve_max(g, kind, force=force)
                pruned += res.pruned
            else:
                res = solve_lower(g, kind, force=force, fast_path=fast)
            skipped += res.skipped
            if (res.value, res.witness.members()) != answer:
                bad.append((kind, variant, fast, (res.value, res.witness.members()), answer))
    return bad, skipped, pruned


def reduction_holds(base, t=3):
    """Whether the NP-completeness reduction's formula holds on ``base``:
    the lower tmv number of gadget(base, t) is t(m + 1) + i(base).  The
    gadget's tmv candidates can exceed the search cap, so it is forced."""
    gadget, _ = gen_gadget(base, t)
    want = t * (base.edge_count() + 1) + independent_domination(base).value
    return solve_lower(gadget, "tmv", force=True).value == want


@contextmanager
def gate_off():
    """Every kind's symmetry gate (``solvers._GATE``) at 0 for the
    duration: the searches look for an automorphism at every child they
    may skip, not only past a costly search, so the symmetry rules meet
    every case a small graph has.  Independence reads tmv's entry, so it
    gets 0 too.  The max search then also builds its convex paths before
    the doll's first search, so their bound acts in every phase and in the
    witness completion."""
    saved = dict(solvers._GATE)
    solvers._GATE.update(dict.fromkeys(saved, 0))
    try:
        yield
    finally:
        solvers._GATE.update(saved)


def form_definition_mismatches(g):
    """Each forbidden-set form of ``g`` (``oracles.forbidden_sets_oracle``)
    against ``oracles.valid_oracle`` on every subset, as (mismatches
    (kind, member list), number of forms): a set must be valid exactly
    when it holds none of its form's sets."""
    bad = []
    forms = 0
    for kind in KINDS:
        sets = oracles.forbidden_sets_oracle(g, kind)
        if sets is None:
            continue
        forms += 1
        for mask in range(1 << g.n):
            x = [v for v in range(g.n) if mask >> v & 1]
            if oracles.form_valid(sets, x) != oracles.valid_oracle(g, x, kind):
                bad.append((kind, x))
    return bad, forms


def joins_mismatches(g):
    """``visibility._joins`` against the whole-set ``is_valid_set`` for every
    kind, every valid set x and every vertex v outside it, as (mismatches
    (kind, x, v, joins answer), number of checks)."""
    bad = []
    checks = 0
    for kind in KINDS:
        for mask in range(1 << g.n):
            x = VertexSet(g.n, mask)
            if not is_valid_set(g, x, kind):
                continue
            for v in range(g.n):
                if v in x:
                    continue
                got = _joins(g, mask, v, kind)
                checks += 1
                if got != is_valid_set(g, x.add(v), kind):
                    bad.append((kind, x.members(), v, got))
    return bad, checks
