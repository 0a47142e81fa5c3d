"""The frozen graph-atlas corpus, named instances and the differential checks.

``data/atlas_connected.txt`` holds every connected graph with at most 7
vertices up to isomorphism (written by ``scripts/freeze_atlas.py``), and
``build`` makes the named instances of the tests and scripts past it.
An answer table maps (kind, variant) to the (value, witness tuple) the
solvers must return: ``oracle_answers`` fills it by brute force over
every subset, ``form_answers`` by a walk over the valid sets of each
forbidden-set form, which reaches graphs far past the atlas, and
``oracle_rows`` picks the brute-force rows a check is about.
``solver_mismatches`` is the one comparison of the solvers with such a
table, and ``definition_mismatches`` checks the whole-set predicates
and the forms themselves against the definitions.  ``join_mismatches``
is the one comparison of the join tests, ``visibility._joins`` and
every search engine's ``can_add``, with whole-set validity, and of
``is_maximal_set`` with those same validity answers;
``joins_mismatches`` runs it over every valid set of a graph.  The
tests run it on every labelled graph with at most 5 vertices and every
atlas graph with at most 6, on hypothesis samples, mv walks and
long-shadow scans, and ``scripts/atlas_differential.py`` on the atlas
graphs with 7.  ``corner_mismatches`` checks the three whole-graph
readings of ``graph_core.blocked_corner``, and ``tmv_candidates``,
against their definitions, on the same graphs.
"""

import importlib.util
import os
from contextlib import contextmanager
from functools import lru_cache, reduce
from itertools import combinations

import oracles
import vislab
from vislab import solvers
from vislab.families import complete, cycle, gen_gadget, hypercube, path, random_block_graph
from vislab.graph_core import (
    Graph,
    VertexSet,
    cartesian_product,
    is_connected,
    simplicial_vertices,
)
from vislab.rng import SplitMix64, permutation
from vislab.solvers import _make_engine, independent_domination, solve_lower, solve_max
from vislab.theorems import _draw_connected
from vislab.visibility import (
    KINDS,
    _joins,
    convex_p3_centers,
    is_maximal_set,
    is_valid_set,
    neighborhood_lemma_scan,
    tmv_candidates,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ATLAS = os.path.join(ROOT, "tests", "data", "atlas_connected.txt")
FACTORS = {"P": path, "C": cycle, "K": complete}


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


@lru_cache(maxsize=1)
def sweep_graphs():
    """The graphs of the benchmark's small-sweep corpus, in its order
    (``perfbench/workloads.py``, ``sweep_corpus``)."""
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(ROOT, "perfbench", "workloads.py")
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return tuple(workloads.sweep_corpus(vislab))


def clique_chain(s, k):
    """k copies of K_s glued in a path at single cut vertices: copy i holds
    the vertices i(s - 1) to i(s - 1) + s - 1."""
    edges = []
    for i in range(k):
        edges += combinations(range(i * (s - 1), i * (s - 1) + s), 2)
    return Graph.from_edges(k * (s - 1) + 1, edges)


def relabelled(g, seed):
    """``g`` with vertex v renamed ``permutation(n, seed)[v]``."""
    perm = permutation(g.n, seed)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def build(spec):
    """The graph named ``spec``.  ``Q<k>`` is ``hypercube(k)``,
    ``G<n>-<p>-<s>`` is ``theorems._draw_connected(SplitMix64(1000 n + s),
    n, p)``, the random-graph draws of ROADMAP.md, ``B<n>-<b>-<s>`` is
    ``random_block_graph(n, b, s)``, ``K<s>chain<k>`` is
    ``clique_chain(s, k)`` and ``sweep<i>`` is graph i of the small-sweep
    corpus (``sweep_graphs``).  Otherwise ``spec`` is factors ``P<n>``,
    ``C<n>`` and ``K<n>`` (path, cycle, complete graph) joined by ``x``,
    and names their Cartesian product: ``P4xP6`` is ``grid((4, 6))``.
    A suffix ``@<s>`` relabels any of them, vertex v renamed
    ``permutation(n, s)[v]`` (``relabelled``): ``K4chain10@1``."""
    spec, at, seed = spec.partition("@")
    if at:
        return relabelled(build(spec), int(seed))
    if spec.startswith("sweep"):
        return sweep_graphs()[int(spec[5:])]
    if spec[0] == "Q":
        return hypercube(int(spec[1:]))
    if spec[0] == "B":
        n, b, s = spec[1:].split("-")
        return random_block_graph(int(n), int(b), int(s))
    if spec[0] == "G":
        n, p, s = spec[1:].split("-")
        return _draw_connected(SplitMix64(1000 * int(n) + int(s)), int(n), float(p))
    if "chain" in spec:
        s, k = spec[1:].split("chain")
        return clique_chain(int(s), int(k))
    return reduce(cartesian_product, [FACTORS[part[0]](int(part[1:])) for part in spec.split("x")])


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
    the lower tmv number of gadget(base, t) is t(m + 1) + i(base).  i(base)
    comes from ``oracles.independent_domination_oracle``, not from
    ``independent_domination``, which runs the same lower search as the
    gadget side, so that a fault they share cannot cancel out.  The
    gadget's tmv candidates can exceed the search cap, so it is forced."""
    gadget, _ = gen_gadget(base, t)
    want = t * (base.edge_count() + 1) + oracles.independent_domination_oracle(base)[0]
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


def definition_mismatches(g):
    """Each kind's whole-set predicate ``is_valid_set`` and each
    forbidden-set form of ``g`` (``oracles.forbidden_sets_oracle``)
    against ``oracles.valid_oracle`` on every subset, as (mismatches
    (kind, test, member list), number of forms): a set must be valid
    exactly when the predicate (test "predicate") says so and when it
    holds none of its form's sets (test "form").  mv at diameter 3 or
    more has no form, and on a disconnected graph no kind has one, so
    only the predicate is checked there."""
    bad = []
    forms = 0
    for kind in KINDS:
        sets = oracles.forbidden_sets_oracle(g, kind)
        forms += sets is not None
        for mask in range(1 << g.n):
            x = [v for v in range(g.n) if mask >> v & 1]
            want = oracles.valid_oracle(g, x, kind)
            if is_valid_set(g, VertexSet(g.n, mask), kind) != want:
                bad.append((kind, "predicate", x))
            if sets is not None and oracles.form_valid(sets, x) != want:
                bad.append((kind, "form", x))
    return bad, forms


def state_of(engine, x_mask):
    """Engine state holding the members of ``x_mask`` (and any seed)."""
    state = engine.seed_state
    m = x_mask & ~engine.seed_state[0]
    while m:
        low = m & -m
        state = engine.add(state, low.bit_length() - 1)
        m ^= low
    return state


def join_mismatches(g, kind, masks, valid=None):
    """The join tests of ``kind`` against whole-set validity, as
    (mismatches (test, member list, v, its answer), number of checks,
    number of maximality checks).  Each valid set of ``masks`` and each
    vertex v outside it is one check: ``valid(mask | 1 << v)`` (mask ->
    bool, by default ``is_valid_set``) must be the answer of
    ``visibility._joins`` (test "joins") and, on a connected graph, of the
    ``can_add`` of ``_make_engine(g, kind, force=True)`` (test "engine"),
    where a vertex outside the engine's universe joins exactly when it is
    seeded.  The solvers refuse disconnected graphs, and there
    ``_MvEngine`` would accept a member of another component.  Each valid
    set is also one maximality check (test "maximal", v None):
    ``is_maximal_set`` must hold exactly when no vertex outside it joins,
    read from the same ``valid``."""
    if valid is None:
        def valid(m):
            return is_valid_set(g, VertexSet(g.n, m), kind)
    engine = _make_engine(g, kind, force=True) if is_connected(g) else None
    universe = set(engine.universe) if engine else ()
    bad = []
    checks = sets = 0
    for mask in masks:
        if not valid(mask):
            continue
        x = VertexSet(g.n, mask)
        state = state_of(engine, mask) if engine else None
        joinable = False
        for v in range(g.n):
            if mask >> v & 1:
                continue
            want = valid(mask | 1 << v)
            joinable |= want
            checks += 1
            answers = [("joins", _joins(g, mask, v, kind))]
            if engine:
                seeded = bool(engine.seed_state[0] >> v & 1)
                answers.append(("engine", engine.can_add(state, v) if v in universe else seeded))
            for test, got in answers:
                if got != want:
                    bad.append((test, x.members(), v, got))
        sets += 1
        got = is_maximal_set(g, x, kind)
        if got == joinable:
            bad.append(("maximal", x.members(), None, got))
    return bad, checks, sets


def joins_mismatches(g):
    """``join_mismatches`` for every kind over every valid set of ``g``,
    reading one ``is_valid_set`` table per kind, as (mismatches (kind,
    test, member list, v, answer), number of checks, number of
    maximality checks)."""
    bad = []
    checks = sets = 0
    for kind in KINDS:
        table = [is_valid_set(g, VertexSet(g.n, m), kind) for m in range(1 << g.n)]
        kind_bad, count, kind_sets = join_mismatches(g, kind, range(1 << g.n), table.__getitem__)
        bad += [(kind, *rest) for rest in kind_bad]
        checks += count
        sets += kind_sets
    return bad, checks, sets


def corner_mismatches(g):
    """The three whole-graph readings of ``graph_core.blocked_corner``,
    and ``tmv_candidates``, against their definitions, as (mismatches
    (reading, vertex, answer), number of checks).  Each vertex v is one
    check of each reading that applies:

    * "simplicial": v is in ``simplicial_vertices`` exactly when N(v) is
      a clique;
    * "centre": v is in ``convex_p3_centers`` exactly when some two
      non-adjacent neighbours u, w of v have N(u) & N(w) = {v}, and on a
      connected graph exactly when {v} is not a tmv set
      (``oracles.valid_oracle``);
    * "candidate": v is in ``tmv_candidates`` exactly when {v} is a tmv
      set, on any graph (on a disconnected one no set is);
    * "scan": on a connected graph, the flag of v from
      ``neighborhood_lemma_scan`` holds exactly when N[v] is a maximal mv
      set (``oracles.maximal_oracle``).
    """
    nbrs = [set(nb) for nb in g.adj]
    connected = is_connected(g)
    simplicial = simplicial_vertices(g)
    centres = convex_p3_centers(g)
    candidates = tmv_candidates(g)
    flags = dict(neighborhood_lemma_scan(g)) if connected else {}
    bad = []
    checks = 0
    for v, nb in enumerate(g.adj):
        loose = [(u, w) for u, w in combinations(nb, 2) if w not in nbrs[u]]
        centre = any(nbrs[u] & nbrs[w] == {v} for u, w in loose)
        singleton = oracles.valid_oracle(g, [v], "tmv")
        wants = [
            ("simplicial", v in simplicial, not loose),
            ("centre", v in centres, centre),
            ("candidate", v in candidates, singleton),
        ]
        if connected:
            ball = [v, *nb]
            wants += [
                ("centre", v in centres, not singleton),
                ("scan", flags[v], oracles.maximal_oracle(g, ball, "mv")),
            ]
        for reading, got, want in wants:
            checks += 1
            if got != want:
                bad.append((reading, v, got))
    return bad, checks
