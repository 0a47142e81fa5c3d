"""The frozen graph-atlas corpus and the solver-versus-oracle comparisons.

``data/atlas_connected.txt`` holds every connected graph with at most 7
vertices up to isomorphism (written by ``scripts/freeze_atlas.py``).
``form_mismatches`` compares the solvers with the forbidden-set oracle,
which reaches graphs far past the atlas.
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


def oracle_mismatches(g):
    """(kind, query, solver answer, oracle answer) wherever they differ.

    Answers are (value, witness tuple); the lower variant is solved with
    the mv cut-edge shortcut both on and off.  ``independent_domination``,
    the lower search over independence, is compared too.
    """
    bad = []
    lower, indep = lower_oracles(g)
    for kind in KINDS:
        want = max_oracles(g)[kind]
        res = solve_max(g, kind)
        if (res.value, res.witness.members()) != want:
            bad.append((kind, "max", (res.value, res.witness.members()), want))
        want = lower[kind]
        for fast in (True, False):
            res = solve_lower(g, kind, fast_path=fast)
            if (res.value, res.witness.members()) != want:
                bad.append((kind, f"lower fast={fast}", (res.value, res.witness.members()), want))
    res = independent_domination(g)
    if (res.value, res.witness.members()) != indep:
        bad.append(("independence", "lower", (res.value, res.witness.members()), indep))
    return bad


@lru_cache(maxsize=16)
def lower_oracles(g):
    """The oracles' lower answers by kind and their independent domination
    answer, kept for the last graphs asked about, since both
    ``oracle_mismatches`` and ``lower_mismatches`` compare against them."""
    lower = {kind: oracles.solve_lower_oracle(g, kind) for kind in KINDS}
    return lower, oracles.independent_domination_oracle(g)


@lru_cache(maxsize=16)
def max_oracles(g):
    """The oracle's max answers by kind, kept for the last graphs asked
    about, since both ``oracle_mismatches`` and ``max_mismatches`` compare
    against them."""
    return {kind: oracles.solve_max_oracle(g, kind) for kind in KINDS}


def max_mismatches(g):
    """``solve_max`` against the oracle, as (mismatches, the branches the
    convex-path bound cut).  Call it under ``gate_off``: the paths are
    then built before the doll's first search, so the bound acts in every
    phase and in the witness completion."""
    bad = []
    pruned = 0
    for kind in KINDS:
        want = max_oracles(g)[kind]
        res = solve_max(g, kind)
        pruned += res.pruned
        if (res.value, res.witness.members()) != want:
            bad.append((kind, "max", (res.value, res.witness.members()), want))
    return bad, pruned


def reduction_holds(base, t=3):
    """Whether the NP-completeness reduction's formula holds on ``base``:
    the lower tmv number of gadget(base, t) is t(m + 1) + i(base).  The
    gadget's tmv candidates can exceed the search cap, so it is forced."""
    gadget, _ = gen_gadget(base, t)
    want = t * (base.edge_count() + 1) + independent_domination(base).value
    return solve_lower(gadget, "tmv", force=True).value == want


@contextmanager
def gate_off():
    """Every engine's ``gate`` at 0 for the duration: the searches look for
    an automorphism at every child they may skip, not only past a costly
    search, so the symmetry rules meet every case a small graph has.  A
    family engine built for mv takes ``_MvEngine.gate``, so it gets 0 too."""
    engines = (solvers._MvEngine, solvers._FamilyEngine, solvers._GpEngine)
    saved = [engine.gate for engine in engines]
    for engine in engines:
        engine.gate = 0
    try:
        yield
    finally:
        for engine, gate in zip(engines, saved):
            engine.gate = gate


def lower_mismatches(g):
    """``solve_lower`` (no cut-edge shortcut, so the search runs) and
    ``independent_domination`` against the oracles, as (mismatches, the
    children the searches skipped): call it under ``gate_off``."""
    bad = []
    skipped = 0
    lower, indep = lower_oracles(g)
    for kind in KINDS:
        want = lower[kind]
        res = solve_lower(g, kind, fast_path=False)
        skipped += res.skipped
        if (res.value, res.witness.members()) != want:
            bad.append((kind, "lower", (res.value, res.witness.members()), want))
    res = independent_domination(g)
    skipped += res.skipped
    if (res.value, res.witness.members()) != indep:
        bad.append(("independence", "lower", (res.value, res.witness.members()), indep))
    return bad, skipped


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


def form_mismatches(g, kinds=KINDS):
    """``solve_max`` and ``solve_lower`` (forced) against
    ``oracles.form_search_oracle`` for each kind of ``kinds`` whose
    forbidden-set form applies to ``g``, as (mismatches (kind, variant,
    solver answer, oracle answer), kinds compared)."""
    bad = []
    compared = []
    for kind in kinds:
        sets = oracles.forbidden_sets_oracle(g, kind)
        if sets is None:
            continue
        compared.append(kind)
        want_max, want_lower = oracles.form_search_oracle(g, sets)
        for variant, solve, want in (("max", solve_max, want_max), ("lower", solve_lower, want_lower)):
            res = solve(g, kind, force=True)
            if (res.value, res.witness.members()) != want:
                bad.append((kind, variant, (res.value, res.witness.members()), want))
    return bad, compared
