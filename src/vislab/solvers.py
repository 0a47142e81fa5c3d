"""Exact solvers for visibility and general-position numbers.

Computes the maximum size of a valid set ("max") and the minimum size of a
maximal valid set ("lower") for the three set kinds, by explicit search
over vertex subsets.  Instances are desk scale: unless forced, searches
refuse to start above ``DEFAULT_CAP`` (24) candidate vertices, those whose
singleton is valid: every vertex for mv and gp, fewer for tmv, whose
candidates come from the distance-2 pairs of the adjacency
(``graph_core.distance_two_pairs``).  Every engine refuses as soon as it
knows its candidates, and every solver gets its engine before it reads
the metric (``solve_lower`` after the mv cut-edge shortcut, which needs no
search, and after gp's pair scan, which checks the cap first), so an
oversized input is refused before the distance matrix.
Engines are kept per graph object and kind (``Graph.engines``, next to
``Graph.metric``), so the queries on one graph build each engine once;
the cap is still checked on every call, so an engine that a forced call
built does not let an unforced query through.

All three kinds are hereditary (every subset of a valid set is valid),
which both searches rely on:

* max: a Russian-doll search (Östergård 2002) over the engine's vertices
  in maximum cardinality search order (``graph_core.mcs_order``), which
  the graph sets and not its labelling; the best count found in each
  suffix of that order bounds every branch whose candidates start there,
  and once the search cost the symmetry gate's tests, so does the count
  of its candidates that can join, at most two on each convex path
  (``graph_core.convex_paths``, the only geodesic between its ends) less
  the members already on it.  Past that gate a phase these bounds leave
  open starts from its vertex's orbit under the automorphisms fixing
  every vertex outside the phase's suffix of the order: every set the
  phase looks for holds that orbit (the lemma and its proof are in
  ``solve_max``), so a large orbit refutes the phase with no test, and
  a small one is added before the search.  The canonical witness is then
  completed member by member in ascending ids: each id is asked whether
  an optimum holds it with the members chosen so far, answered by an
  automorphism onto a known optimum or by the same bounded search over
  the candidates above it.  The doll gives that completion its value and
  a first optimum only, so which optimum the doll finds cannot change the
  witness;
* lower: one depth-first pass over the valid sets; a vertex refused by
  a set stays refused by its supersets, so maximality is tested only
  against the vertices no ancestor refused, and for mv the incumbent
  starts at the Neighborhood Lemma bound deg(x) + 1.  Where the search
  runs on the family engine (tmv, independence, and mv on graphs of
  diameter at most 2), a refusal lookahead returns from a set once a
  vertex that every set below it must leave out can no longer be
  refused there, or only by sets that reach the incumbent's size.  gp
  is a forbidden-set family too, its collinear triples, but it stays on
  its own engine for speed, so its lower search has no lookahead; it
  starts at its floor instead.  On two or more vertices every pair is in
  general position and no singleton is maximal, so a scan of the pairs in
  lexicographic order (``_first_maximal_pair``) answers whenever gp⁻ = 2;
  otherwise the incumbent starts at the size of one greedy pass of the
  engine over its ``mcs_order``, a maximal set.
  ``independent_domination`` runs the same pass over independence, whose
  maximal sets are the independent dominating sets.

Both searches skip children by symmetry (``graph_core.find_automorphism``,
cached by ``_Mirrors``), so that whatever a skipped child's subtree holds
has an image elsewhere of the same size and lexicographically smaller:

* max: an automorphism fixing the set and the vertices outside the
  search's range maps the child onto an earlier failed, costly child,
  whose subtree the search has already refuted;
* lower: an automorphism maps the set X onto itself, as a set, and the
  child y onto a smaller vertex outside X (orbital branching, Ostrowski
  et al. 2011, in the orderly form of McKay 1998).  The candidate images
  come from ``graph_core.refine`` with X individualised, whose cells no
  such automorphism splits.

Each kind gets a small engine that answers "can vertex v join the current
set" incrementally.  An engine has the vertices the searches branch on
(``universe``), the state holding the vertices in every maximal set
(``seed_state``), ``add`` and ``can_add``; ``state[0]`` is the member
bitmask of every state.  ``order`` is the universe in ``mcs_order``,
computed on first use by ``solve_max`` or gp's lower search and kept
(``_mcs_order``).  A kept engine is shared by every query
on its graph, so its tables are tuples and never change.  How costly a
search must be before the searches look for automorphisms is set per
kind (``_GATE``).  The three engines:

* family (``_FamilyEngine``): X is valid exactly when it holds no set F
  of a fixed family, so v can join X exactly when no F - v lies inside
  X; the lower search reads those sets per vertex (``near``, ``far``).
  The engine is built from the family alone: a vertex that is a set on
  its own is in no valid set, so the sets through it are dropped, and a
  vertex in none of the sets left belongs to every maximal set and is
  forced up front, whatever the family.  tmv runs on it: on a
  connected graph a set is total-mutual-visibility valid exactly when no
  distance-2 pair has all of its common neighbors inside the set, so the
  family is those "forbidden full subsets".  So does independence
  (private, for ``independent_domination``), whose family is the edges,
  and mv on graphs of diameter at most 2, where a member pair sees each
  other unless it is a distance-2 pair a, b whose common neighbours
  C(a, b) are all members, so the family is the sets {a, b} + C(a, b);
* mv on graphs of diameter 3 or more (``_MvEngine``): v must see every
  member.  Most members are settled by one mask test on their geodesic
  interior ``g.metric.between[v][a]``: a member is seen when no member
  lies inside it (an adjacent one has none), and one at distance 2 is
  seen exactly when a common neighbour is left outside the set.  Only
  the others go through a breadth-first search from v that keeps only
  the true-distance layer ``g.metric.layers[v][k]`` at each step, inside
  the union of their interiors: every geodesic from v to a vertex of the
  interval I(v, a) lies in I(v, a), so the restriction loses no path.
  Adding v can also break visibility between members, so each member
  pair a, b with v inside an a,b-geodesic (b in ``g.metric.thru[v][a]``)
  is rechecked: it is lost when no interior vertex is left outside the
  set and v, kept at distance 2 when one is, and otherwise walked layer
  by layer inside the interior, avoiding the set and v;
* gp (``_GpEngine``): the union of the member pairs' lines is carried
  along, so v joins exactly when it is off it (``visibility`` has the
  rule), one bit test; ``add`` ORs in v's line with each member a,
  ``between[v][a] | thru[v][a] | thru[a][v]``.  On the family engine of
  the collinear triples, ``can_add`` would scan every collinear pair
  through v, hundreds per vertex on a hypercube, and gp max ran many
  times slower.

Answers are revalidated through the definitional predicates in the
visibility module before being returned; a disagreement raises rather
than passing silently.

Witnesses are canonical: among all optima the lexicographically smallest
(as an ascending member tuple) is returned.  The lower pass extends sets
by ascending vertex ids, so it meets sets of one size in exactly that
order and only improves strictly; the max search fixes the members of
its witness one by one, each the smallest id some optimum holds with
the members before it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .graph_core import (
    DistanceMatrix,
    Graph,
    UNREACHABLE,
    InstanceTooLargeError,
    VertexSet,
    bridges,
    cell_of,
    convex_paths,
    distance_two_pairs,
    find_automorphism,
    mcs_order,
    refine,
)
from . import visibility
from .rng import permutation

DEFAULT_CAP = 24

FAST_PATH_CUT_EDGE = "cut-edge shortcut"
FAST_PATH_GP_PAIR = "maximal-pair scan"


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact solve.

    ``value`` always equals ``len(witness)``.  ``fast_path`` names the
    shortcut of ``solve_lower`` taken, if any: ``FAST_PATH_CUT_EDGE`` for
    mv, ``FAST_PATH_GP_PAIR`` for gp.  ``nodes`` counts the search's
    ``can_add`` tests (for max, those of the doll pass and of the witness
    completion; for gp lower, also those of the greedy pass that sets its
    starting bound; zero when a shortcut answered).  ``skipped`` counts
    the children either search resolved by symmetry, with no test and no
    search below them; ``nodes`` does not count them; for max they include
    the doll phases refuted by the size of an orbit.  ``pruned`` counts the
    sets at which the lower search's refusal lookahead returned, with no
    further test there, and for max the branches the convex-path bound
    cut.
    ``independent_domination`` runs the lower search, so all three count
    the same way there.  ``elapsed`` is wall-clock seconds and is the only
    field that is not reproducible bit for bit.
    """

    kind: str
    variant: str
    value: int
    witness: VertexSet
    nodes: int
    elapsed: float
    fast_path: Optional[str] = None
    skipped: int = 0
    pruned: int = 0


@dataclass(frozen=True)
class GreedyProfile:
    """Aggregate of greedy runs over consecutive seeds.

    ``best_min_witness`` is the smallest result; ties in size break
    toward the lexicographically smaller member tuple.
    """

    kind: str
    runs: int
    seed: int
    min_size: int
    max_size: int
    best_min_witness: VertexSet


def _check_cap(size: int, force: bool) -> None:
    """Refuse a search over ``size`` > ``DEFAULT_CAP`` candidates unless forced.

    ``_make_engine`` calls it on every call, for mv and gp before anything
    else and for tmv from a kept engine's candidates, ``_FamilyEngine``
    once it knows its candidates, and gp ``solve_lower`` before its pair
    scan, all before the metric is read, so an oversized input never
    builds one."""
    if size > DEFAULT_CAP and not force:
        raise InstanceTooLargeError(
            f"instance too large: {size} candidate vertices exceed the search cap "
            f"{DEFAULT_CAP} (use force to override)"
        )


# The searches look for automorphisms only once a search cost n² * gate
# tests (in solve_max the failed child's own, in solve_lower some child of
# the same size), so that the tests a skip saves outweigh the lookups.
# Measured over the small-sweep corpus (n = 6..10, CPython 3.11.7, 2-vCPU
# Xeon): a can_add test took 2.1 µs for mv, 0.49 µs for tmv and 0.34 µs for
# gp; on its 10-vertex graphs DistanceMatrix.alike took 23-41 µs, a refine
# with a set about 30 µs and a find_automorphism call about 50 µs.  A tmv or
# gp test costs a quarter of an mv test or less, so those kinds wait for
# four times the tests.  mv keeps its gate on either engine, so its counts
# do not depend on the engine; independence, on the family engine, reads
# tmv's.
_GATE = {"mv": 1, "tmv": 4, "gp": 4}


class _MvEngine:
    """Mutual visibility on graphs of diameter 3 or more, interval first, by
    layered reach over the metric's layer masks.

    ``can_add(state, v)`` decides each member a from the mask
    ``between[v][a]`` of interior vertices of the v,a-geodesics when it
    can: with no member inside, a is seen; at distance 2 that interior is
    the common neighbours, so a is seen exactly when one of them is not a
    member.  The remaining members are *hard*.  A prefix of a geodesic is a
    geodesic, so a search that keeps only the true-distance layer at each
    step reaches exactly the vertices visible past the blocked set; for
    the hard members it also keeps only their interiors and themselves.
    That loses nothing: if w lies on a v,a-geodesic, every v,w-geodesic
    followed by a w,a-geodesic is one, so it stays in the interval.  The
    reach fails at the first layer that passes without one of the hard
    members it holds, since a hard member lies in one layer of v only.

    The metric's shadow table ``thru[v][a]`` holds the b with v inside
    some a,b-geodesic: adding v can only break those member pairs, since
    a valid set already keeps every other pair visible.  Such a pair is
    settled by its interior mask at distance 2 or when nothing of the
    interior is left, and is walked layer by layer otherwise.
    """

    __slots__ = ("adj", "universe", "seed_state", "order", "dist", "layers", "between", "thru")

    def __init__(self, g: Graph):
        self.adj = g.adj_masks
        self.universe = tuple(range(g.n))
        self.seed_state = (0, ())
        self.order = None
        dmat = g.metric
        self.dist = dmat.rows
        self.layers = dmat.layers
        self.between, self.thru = dmat.between, dmat.thru

    def add(self, state, v: int):
        mask, members = state
        return (mask | (1 << v), members + (v,))

    def can_add(self, state, v: int) -> bool:
        mask, members = state
        adj = self.adj
        # v must see every member; most are settled by their interval alone
        bv = self.between[v]
        dv = self.dist[v]
        hard = region = 0
        for a in members:
            inner = bv[a] & mask
            if not inner:
                continue
            if dv[a] == 2:
                if bv[a] == inner:
                    return False
                continue
            hard |= 1 << a
            region |= bv[a]
        if hard:
            # the rest by one layered reach inside their intervals, whose
            # first layer is v's neighbourhood: members end paths but are
            # never expanded, and a hard member missing from its own layer
            # is never seen
            region |= hard
            lay = self.layers[v]
            nxt = adj[v] & region
            k = 1
            while True:
                hard &= ~nxt
                if not hard:
                    break
                if not nxt or hard & lay[k]:
                    return False
                k += 1
                m = nxt & ~mask
                nxt = 0
                while m:
                    low = m & -m
                    nxt |= adj[low.bit_length() - 1]
                    m ^= low
                nxt &= lay[k] & region
        # member pairs with a geodesic through v must keep one that avoids it
        new_mask = mask | (1 << v)
        thru = self.thru[v]
        rest = mask
        for a in members:
            rest ^= 1 << a
            pairs = thru[a] & rest
            if not pairs:
                continue
            lay = self.layers[a]
            row = self.dist[a]
            between = self.between[a]
            while pairs:
                low = pairs & -pairs
                b = low.bit_length() - 1
                pairs ^= low
                inside = between[b] & ~new_mask
                if not inside:
                    return False
                if row[b] == 2:
                    continue
                frontier = adj[a] & inside
                for k in range(2, row[b]):
                    nxt = 0
                    m = frontier
                    while m:
                        bit = m & -m
                        nxt |= adj[bit.bit_length() - 1]
                        m ^= bit
                    frontier = nxt & lay[k] & inside
                    if not frontier:
                        return False
        return True


class _FamilyEngine:
    """Validity as a forbidden-set family (see the module docstring): a set
    of the ``n`` vertices is valid exactly when it holds no mask of
    ``family``.  The rest is read off the family.  A one-vertex set makes
    its vertex impossible: no valid set holds it, so a set through it can
    never fill up and is dropped.  A vertex in no kept set can join every
    valid set, so it lies in every maximal set and is the ``seed``.  The
    searches branch on the ``universe``, the vertices the kept sets hold,
    and the cap is checked on the universe and the seed.  Per vertex u,
    ``near[u]`` is the union of the one-vertex F - u and ``far[u]`` lists
    the larger F - u of the kept F, so ``can_add`` is one mask test and a
    scan of that list."""

    __slots__ = ("universe", "seed_state", "order", "near", "far")

    def __init__(self, n: int, family, force: bool):
        impossible = 0
        for f in family:
            if not f & (f - 1):
                impossible |= f
        kept = [f for f in family if not f & impossible]
        union = 0
        for f in kept:
            union |= f
        seed = ((1 << n) - 1) & ~impossible & ~union
        _check_cap(union.bit_count() + seed.bit_count(), force)
        size = union.bit_length()
        self.universe = tuple(v for v in range(size) if (union >> v) & 1)
        self.seed_state = (seed,)
        self.order = None
        near = [0] * size
        far: list[list[int]] = [[] for _ in range(size)]
        for f in kept:
            m = f
            while m:
                low = m & -m
                m ^= low
                rest = f ^ low
                if rest & (rest - 1):
                    far[low.bit_length() - 1].append(rest)
                else:
                    near[low.bit_length() - 1] |= rest
        self.near = tuple(near)
        self.far = tuple(map(tuple, far))

    def add(self, state, v: int):
        return (state[0] | (1 << v),)

    def can_add(self, state, v: int) -> bool:
        mask = state[0]
        if self.near[v] & mask:
            return False
        for f in self.far[v]:
            if f & mask == f:
                return False
        return True


class _GpEngine:
    __slots__ = ("universe", "seed_state", "order", "between", "thru")

    def __init__(self, g: Graph):
        self.universe = tuple(range(g.n))
        # state: (member mask, union of the lines of the member pairs)
        self.seed_state = (0, 0)
        self.order = None
        self.between, self.thru = g.metric.between, g.metric.thru

    def add(self, state, v: int):
        mask, lines = state
        between, thru, thru_v = self.between[v], self.thru, self.thru[v]
        m = mask
        while m:
            a = (m & -m).bit_length() - 1
            lines |= between[a] | thru_v[a] | thru[a][v]
            m &= m - 1
        return (mask | (1 << v), lines)

    def can_add(self, state, v: int) -> bool:
        return not state[1] >> v & 1


class _Mirrors:
    """The automorphisms a search has found, for its symmetry rules.

    ``costly`` is the gate of those rules, n² times the kind's ``_GATE``
    tests: ``solve_max`` mirrors onto a failed child that cost that many,
    and ``_lower_search`` checks the children at a depth once a subtree
    there cost that many, so that graphs without symmetry pay little for
    the lookups.
    """

    def __init__(self, dmat: DistanceMatrix, gate: int):
        self.dmat = dmat
        self.costly = dmat.n * dmat.n * gate
        self.found: list[tuple[tuple[int, ...], int]] = []  # (images, mask of moved vertices)

    def find(self, fixed: int, y: int, onto: int) -> Optional[tuple[int, ...]]:
        """An automorphism fixing the mask ``fixed`` pointwise and mapping y
        into the mask ``onto``, as an image tuple, or None: the ones found
        so far are tried first, then a search that gives up after 2n failed
        images."""
        for perm, moved in self.found:
            if not fixed & moved and (onto >> perm[y]) & 1:
                return perm
        return self.search(fixed, y, onto)

    def search(
        self, fixed: int, y: int, onto: int, cells: Optional[tuple[int, ...]] = None
    ) -> Optional[tuple[int, ...]]:
        """The first automorphism ``find_automorphism`` finds, trying the
        images of y in ``onto`` and y's cell of ``cells`` (by default
        ``alike``) in ascending order, each with a budget of 2n failed
        images, that fixes the mask ``fixed`` pointwise and keeps
        ``cells``; kept and returned, or None."""
        dmat = self.dmat
        onto &= (dmat.alike if cells is None else cells)[y]
        while onto:
            low = onto & -onto
            onto ^= low
            perm = find_automorphism(dmat, fixed, y, low.bit_length() - 1, 2 * dmat.n, cells)
            if perm is not None:
                moved = 0
                for v, w in enumerate(perm):
                    if v != w:
                        moved |= 1 << v
                self.found.append((perm, moved))
                return perm
        return None


class _Stabilizer:
    """What the lower search knows at one set X of the automorphisms that
    map X onto itself, built on X's first question and shared by its
    children: the orbits of the cached ones that do, as a union-find
    rooted at each orbit's least vertex, and the cells of
    ``refine(dmat, X)``, which no such automorphism splits."""

    __slots__ = ("mirrors", "mask", "root", "cells")

    def __init__(self, mirrors: _Mirrors, mask: int):
        self.mirrors = mirrors
        self.mask = mask
        self.root: Optional[list[int]] = None
        self.cells: Optional[tuple[int, ...]] = None

    def _join(self, perm: tuple[int, ...]) -> None:
        root = self.root
        for v, w in enumerate(perm):
            if v == w:
                continue
            while root[v] != v:
                root[v] = v = root[root[v]]
            while root[w] != w:
                root[w] = w = root[root[w]]
            if v < w:
                root[w] = v
            elif w < v:
                root[v] = w

    def drops(self, y: int, below: int) -> bool:
        """Whether an automorphism maps X onto itself and y onto a smaller
        vertex outside X.  ``below`` holds the candidate images: the
        vertices under y and outside X in y's cell of ``alike``.

        The cached automorphisms are asked first, then X's cells, and an
        image r left in y's cell is looked for by ``_Mirrors.search`` from
        those cells, which keep X onto itself.  Yes only with an
        automorphism in hand; no when every candidate is ruled out or not
        found."""
        mirrors = self.mirrors
        dmat = mirrors.dmat
        mask = self.mask
        root = self.root
        if root is None:
            root = self.root = list(range(dmat.n))
            for perm, moved in mirrors.found:
                m = mask & moved
                image = 0
                while m:
                    low = m & -m
                    image |= 1 << perm[low.bit_length() - 1]
                    m ^= low
                if image == mask & moved:
                    self._join(perm)
        v = y
        while root[v] != v:
            v = root[v]
        if v < y:
            return True
        if self.cells is None:
            self.cells = cell_of(refine(dmat, mask), dmat.n)
        perm = mirrors.search(0, y, below, self.cells)
        if perm is None:
            return False
        self._join(perm)
        return True


def _make_engine(g: Graph, kind: str, force: bool):
    """The search engine of ``kind`` on ``g``: built on the first call of
    each kind and kept in ``g.engines``, next to ``g.metric``, so later
    queries on the same graph object share it.  The cap is checked on
    every call, so an unforced query is refused even when a forced one
    built the engine: from ``g.n`` for mv and gp, and for tmv from the
    kept universe and seed, or on a first call by the family engine once
    it knows them.  A first call checks it before the metric is read.
    mv runs on the family engine exactly when every non-adjacent pair is
    at distance 2 (diameter at most 2, which no disconnected graph has),
    a test of the adjacency alone."""
    kind = visibility.check_kind(kind)
    if kind != "tmv":
        _check_cap(g.n, force)
    engine = g.engines.get(kind)
    if engine is not None:
        if kind == "tmv":
            _check_cap(len(engine.universe) + engine.seed_state[0].bit_count(), force)
        return engine
    if kind == "tmv":
        # On a connected graph, X keeps all pairs visible exactly when every
        # pair at distance 2 retains a common neighbor outside X.  Proof
        # sketch of the nontrivial direction: walk a geodesic and replace
        # each internal vertex that falls in X by a common neighbor of its
        # two path neighbors lying outside X; each swap keeps the walk a
        # geodesic, so induction repairs a fully X-avoiding shortest path.
        # So the family is the "blockers", the common-neighbor sets of the
        # distance-2 pairs, read from the adjacency before any metric.
        engine = _FamilyEngine(g.n, {common for _, _, common in distance_two_pairs(g)}, force)
    elif kind == "gp":
        engine = _GpEngine(g)
    else:
        pairs = distance_two_pairs(g)
        if len(pairs) != g.n * (g.n - 1) // 2 - g.edge_count():
            engine = _MvEngine(g)
        else:
            engine = _FamilyEngine(g.n, {c | 1 << a | 1 << b for a, b, c in pairs}, force)
    g.engines[kind] = engine
    return engine


def _mcs_order(g: Graph, engine) -> tuple[int, ...]:
    """``engine.order``, the engine's universe in ``mcs_order``: computed on
    first use and kept with the engine."""
    if engine.order is None:
        engine.order = tuple(mcs_order(g, engine.universe))
    return engine.order


def _greedy_bound(g: Graph, engine) -> tuple[int, int]:
    """(size, tests) of one greedy pass of ``engine`` over ``engine.order``:
    from the seed state, each vertex is added when ``can_add`` lets it.
    The set is maximal, so its size bounds the lower number
    (``solve_lower`` has the proof); ``tests`` counts the ``can_add``
    calls."""
    can_add, add = engine.can_add, engine.add
    order = _mcs_order(g, engine)
    state = engine.seed_state
    for v in order:
        if can_add(state, v):
            state = add(state, v)
    return state[0].bit_count(), len(order)


def _connected_metric(g: Graph) -> DistanceMatrix:
    """``g.metric``, once its first row shows that ``g`` is connected."""
    if g.n and UNREACHABLE in g.metric.rows[0]:
        raise ValueError("graph is disconnected; solvers require a connected graph")
    return g.metric


def solve_max(g: Graph, kind: str, *, force: bool = False) -> SolveResult:
    """Largest valid set of the given kind, with canonical witness.

    Russian-doll search (Östergård 2002, "A fast algorithm for the maximum
    clique problem"), sound because every kind is hereditary, over the
    universe in maximum cardinality search order (``mcs_order``), so its
    cost follows the graph and not the labelling.  ``doll[i]`` is the most
    vertices of ``order[i:]`` that can join the seed together, computed for
    i = k-1 down to 0.  Phase i first tries to add ``order[i]`` to the set
    witnessing ``doll[i+1]``; only if that fails does it search for
    ``doll[i+1] + 1`` vertices that include it.

    Every search (``grow``) runs over the order's candidate bits and cuts a
    branch once none of its candidates is in ``live[need]``, the vertices
    whose position i in the order has ``doll[i] >= need``: the candidates
    all lie in the suffix of the order that starts at the earliest of them,
    and at most the doll value there of them can join together.  A branch
    is also cut once its candidates are fewer than the vertices it still
    needs, or than its *room*: over the convex paths of ``convex_paths``,
    the candidates on the path, but at most two less the members on it,
    plus the candidates on no path.  A mutual-visibility set holds at most
    two vertices of a convex path, and tmv and gp sets are mv sets, so a
    branch with less room holds no solution; ``pruned`` counts these cuts.
    The paths are built once the search cost ``costly`` tests, the gate of
    the symmetry rules below, so small searches do not pay for them.
    After a failed dive, a child that an automorphism fixing the
    set and the ids outside the search's range maps onto an earlier failed
    child is skipped (``_Mirrors``, with the kind's ``_GATE``, as in ``solve_lower``): a solution
    below it would have an image below that child, earlier in the order.

    Each phase is one ``grow`` call with v = ``order[i]`` as its phase
    vertex.  Past the same gate, a phase that ``grow``'s entry cuts leave
    open starts from the orbit O of v under the automorphisms fixing
    every id outside ``order[i:]`` (``orbit_seeded``).  Lemma:
    every set S the phase looks for, ``doll[i+1] + 1`` ids of
    ``order[i:]`` with v among them, holds O.  Proof: such an
    automorphism σ maps ``order[i:]`` onto itself, since it is a
    bijection that fixes the rest, and it keeps the seed and validity,
    which the metric defines; so σ(S) is a valid set of as many ids of
    ``order[i:]``.  Without v it would lie in ``order[i+1:]``, where at
    most ``doll[i+1]`` ids can join together, so σ(S) holds v, and S
    holds σ⁻¹(v).  The inverses run over the same automorphisms.  Fixing
    the ids outside the range is enough: it is all the proof asks of σ,
    and no fixing of ``order[i:]`` itself is needed, since S may be any
    set there.  An O of more than ``doll[i+1] + 1`` ids refutes the phase
    with no test (``skipped`` counts it); otherwise O's other ids go
    through ``can_add``, one test each, and ``grow`` searches the rest of
    the candidates for that many fewer vertices.  The phase's answer, so
    every ``doll`` value, stays the same.

    The witness is then completed in ascending ids.  ``cert`` is a set of
    ``doll[0]`` vertices holding the members chosen so far, first the
    doll's witness.  Each id u below its next member is asked whether some
    set of that size holds the chosen members and u; every lexicographically
    smaller such set is already excluded, so a yes makes u the next
    canonical member, and a no means no such set holds u at all.  So an
    automorphism fixing the chosen members answers with no search: no when
    it maps u onto an id refuted since the last member by a search that
    cost the gate's tests, yes when it maps u into ``cert`` (tried once the
    doll cost the gate's tests).  Otherwise ``grow`` searches the
    candidates above u.  ``skipped`` counts these answers with the skipped
    children.  Each answer is exact whatever ``cert`` holds, so the
    witness does not depend on which optimum the doll found: a seeded
    phase may find another one, and the completion still picks the
    lexicographically first.
    """
    start = time.perf_counter()
    engine = _make_engine(g, kind, force)
    dmat = _connected_metric(g)

    order = _mcs_order(g, engine)
    k = len(order)
    can_add, add = engine.can_add, engine.add
    doll = [0] * (k + 1)
    # live[t]: the candidate bits whose doll value is at least t
    live = [0] * (k + 1)
    nodes = skipped = 0
    mirrors = _Mirrors(dmat, _GATE[kind])
    costly = mirrors.costly
    everyone = (1 << g.n) - 1
    full = (1 << k) - 1  # every candidate bit
    bit = [0] * g.n  # bit[v]: the candidate bit of v, 0 off the universe
    for i, v in enumerate(order):
        bit[v] = 1 << i
    free = 0  # the ids the search under way ranges over; automorphisms fix the rest
    # (member mask, candidate bits) per convex path, built once the search
    # cost ``costly`` tests, and the candidate bits on no path
    paths = None
    off = 0
    pruned = 0

    accepted = 0  # candidates the last failed grow call found able to join

    def convex():
        """The convex paths of ``convex_paths`` as (vertex mask, candidate
        bits), keeping those with a candidate, and the candidate bits on
        none of them."""
        out = []
        rest = full
        for path in convex_paths(dmat):
            mask = bits = 0
            for v in path:
                mask |= 1 << v
                bits |= bit[v]
            if bits:
                out.append((mask, bits))
                rest &= ~bits
        return out, rest

    def cramped(members: int, cands: int, need: int) -> bool:
        """Whether a branch with the member mask ``members`` and the
        candidate bits ``cands`` has less room than ``need``: the most
        candidates that can join, at most two on each convex path less the
        members on it.  A cut counts as pruned."""
        nonlocal pruned
        room = (cands & off).bit_count()
        if room >= need:
            return False
        for mask, bits in paths:
            here = (cands & bits).bit_count()
            if here:
                most = 2 - (members & mask).bit_count()
                room += here if here < most else most
                if room >= need:
                    return False
        pruned += 1
        return True

    def orbit_seeded(state, cands: int, need: int, v: int):
        """(state, candidate bits, need) of the doll phase of ``v`` with the
        rest of v's orbit added; the state is None when that orbit refutes
        the phase.

        The orbit is the one under the automorphisms fixing every id outside
        ``free``, as far as ``mirrors.find`` finds it; every set the phase
        looks for holds all of it (``solve_max``).  More than ``need + 1``
        ids refute the phase with no test, and so does an orbit id that
        cannot join."""
        nonlocal nodes, skipped
        fixed = everyone & ~free
        orbit = 1 << v
        size = 1
        while (perm := mirrors.find(fixed, v, free & ~orbit)) is not None:
            orbit |= 1 << perm[v]
            size += 1
            if size > need + 1:
                skipped += 1
                return None, cands, need
        rest = orbit ^ 1 << v
        while rest:
            low = rest & -rest
            rest ^= low
            w = low.bit_length() - 1
            nodes += 1
            if not can_add(state, w):
                return None, cands, need
            state = add(state, w)
            cands &= ~bit[w]
        return state, cands, need + 1 - size

    def grow(state, cands: int, need: int, phase: Optional[int] = None):
        """State of the first extension of ``state`` by ``need`` >= 1
        vertices of ``cands`` (a bitmask of candidate bits, lowest first),
        or None.

        The entry cuts come first: too few candidates, none in
        ``live[need]``, or too little room (``cramped``).  ``phase`` is the
        vertex of a doll phase, already in ``state``: past the gate, a
        phase the cuts leave open is seeded or refuted by its orbit
        (``orbit_seeded``), and the seeded state is grown in its place.
        A node dives on its first candidate that can join and filters the
        rest only after that dive fails.  By heredity no vertex outside the
        filtered set can join any child, and every vertex that can join
        the dive child can join the node, so those are not tested again.
        ``dear`` holds the ids of the failed children that cost at least
        ``costly`` tests since the last failed child that cost less: the
        images ``mirrors.find`` may map a later child onto.
        """
        nonlocal nodes, skipped, accepted, paths, off
        if paths is None and nodes >= costly:
            paths, off = convex()
        bound = live[need]
        count = cands.bit_count()
        if count < need or not cands & bound or paths and cramped(state[0], cands, need):
            accepted = 0
            return None
        if phase is not None and nodes >= costly:
            state, cands, need = orbit_seeded(state, cands, need, phase)
            return state if state is None or not need else grow(state, cands, need)
        while True:
            low = cands & -cands
            cands ^= low
            count -= 1
            nodes += 1
            v = order[low.bit_length() - 1]
            if can_add(state, v):
                break
            if count < need or not cands & bound:
                accepted = 0
                return None
        nxt = add(state, v)
        if need == 1:
            return nxt
        before = nodes
        got = grow(nxt, cands, need - 1)
        if got is not None:
            return got
        dear = 1 << v if nodes - before >= costly else 0
        ok = accepted
        rest = cands & ~ok
        while rest and (ok | rest).bit_count() >= need:
            if not ok and not rest & bound:
                break
            one = rest & -rest
            rest ^= one
            nodes += 1
            if can_add(state, order[one.bit_length() - 1]):
                ok |= one
        joined = low | ok
        while ok.bit_count() >= need and ok & bound:
            low = ok & -ok
            ok ^= low
            v = order[low.bit_length() - 1]
            if dear and mirrors.find((state[0] | ~free) & everyone, v, dear) is not None:
                skipped += 1
                continue
            before = nodes
            got = grow(add(state, v), ok, need - 1)
            if got is not None:
                return got
            if nodes - before >= costly:
                dear |= 1 << v
            else:
                dear = 0
        accepted = joined
        return None

    seed = engine.seed_state
    wit = seed
    for i in range(k - 1, -1, -1):
        v = order[i]
        free |= 1 << v
        nodes += 1
        if can_add(wit, v):
            wit = add(wit, v)
        else:
            got = grow(add(seed, v), full >> (i + 1) << (i + 1), doll[i + 1], v)
            if got is None:
                doll[i] = doll[i + 1]
                continue
            wit = got
        doll[i] = doll[i + 1] + 1
        # bits 0..i: those below i are searched only after their doll is set
        live[doll[i]] = (2 << i) - 1

    cert = wit[0]
    state = seed
    left = doll[0]  # members still to choose
    symmetric = nodes >= costly  # whether a yes is first looked for by automorphism
    refuted = 0  # the ids since the last member whose refutation cost ``costly`` tests
    above = full  # the candidate bits of the ids above u
    for u in engine.universe:  # ascending ids
        if not left:
            break
        above ^= bit[u]
        if not (cert >> u) & 1:
            nodes += 1
            if not can_add(state, u):
                continue
            if left == 1:
                cert = state[0] | 1 << u
            elif refuted and mirrors.find(state[0], u, refuted) is not None:
                skipped += 1
                continue
            elif symmetric and (perm := mirrors.find(state[0], u, cert & ~state[0])) is not None:
                skipped += 1
                image, cert = cert, 0  # the preimage of the certificate holds u
                for v, w in enumerate(perm):
                    if (image >> w) & 1:
                        cert |= 1 << v
            else:
                free = -1 << (u + 1)
                before = nodes
                got = grow(add(state, u), above, left - 1)
                if got is None:
                    if nodes - before >= costly:
                        refuted |= 1 << u
                    continue
                cert = got[0]
        state = add(state, u)
        left -= 1
        refuted = 0
    # break the closure's reference cycle, so that the search's own tables
    # (doll, live, the mirrors found) go with this frame; the engine and
    # the metric stay with the graph
    del grow
    witness = VertexSet(g.n, cert)
    if not visibility.is_valid_set(g, witness, kind):
        raise RuntimeError("solver produced an invalid witness; engine and predicate disagree")
    return SolveResult(
        kind,
        "max",
        len(witness),
        witness,
        nodes,
        time.perf_counter() - start,
        skipped=skipped,
        pruned=pruned,
    )


def _first_maximal_pair(dmat: DistanceMatrix, kind: str) -> Optional[tuple[int, int]]:
    """Lexicographically first vertex pair that is a maximal set of ``kind``
    (mv or gp) on the connected graph of ``dmat``; None when no pair is
    maximal.

    On a connected graph every pair is valid for both kinds, so only
    maximality is checked: a pair is maximal when every other vertex w is
    refused.  For gp, w is refused exactly when it is collinear with a
    and b, one of d(a,b) = d(a,w) + d(w,b), d(a,w) = d(a,b) + d(b,w) and
    d(b,w) = d(b,a) + d(a,w) (``solve_lower`` has the proof); a and b
    pass that test themselves, with a distance 0.  The w that refused the
    last pair is asked first, since it often refuses the next one too;
    the order of the tests does not change which pair passes them all.
    For mv, w is refused unless it extends {a, b}, which it does unless
    one of the three vertices lies on every geodesic between the other
    two.  Every x,z-geodesic has exactly one vertex at distance k from x,
    and the vertices some geodesic has there are the slice ``layers[x][k]
    & layers[z][d(x,z) - k]``; so y is on every x,z-geodesic iff d(x,y) +
    d(y,z) = d(x,z) and the slice at k = d(x,y) is y alone.
    """
    rows, layers = dmat.rows, dmat.layers
    gp = kind == "gp"
    last = 0  # gp: the w that refused the last pair, asked first of the next
    for a, da in enumerate(rows):
        la = layers[a]
        for b in range(a + 1, dmat.n):
            db = rows[b]
            dab = da[b]
            if gp:
                x, y = da[last], db[last]
                if x + y != dab and x - y != dab and y - x != dab:
                    continue
                w = 0
                for x, y in zip(da, db):
                    if x + y != dab and x - y != dab and y - x != dab:
                        last = w
                        break
                    w += 1
                else:
                    return (a, b)
                continue
            lb = layers[b]
            for w in range(dmat.n):
                if w == a or w == b:
                    continue
                daw, dbw, lw = da[w], db[w], layers[w]
                if daw == dab + dbw and la[dab] & lw[dbw] == 1 << b:
                    continue  # b blocks a from w
                if dbw == dab + daw and lb[dab] & lw[daw] == 1 << a:
                    continue  # a blocks b from w
                if dab == daw + dbw and la[daw] & lb[dbw] == 1 << w:
                    continue  # w blocks a from b
                break
            else:
                return (a, b)
    return None


def _sets_reach(a: int, k: int, need: int) -> bool:
    """Whether a set of a vertices has at least ``need`` subsets of at most
    k vertices: the sum of C(a, j) over j <= k, summed only as far as
    ``need``."""
    total, term = 0, 1
    for j in range(k + 1):
        total += term
        if total >= need:
            return True
        term = term * (a - j) // (j + 1)
        if not term:
            break
    return False


def _lower_search(dmat: DistanceMatrix, engine, bound: Optional[int], gate: int):
    """Smallest maximal set of ``engine`` with at most ``bound`` vertices
    (any size when None), as (member mask, tests, children skipped, sets
    cut by the lookahead).  ``gate`` is the kind's entry of ``_GATE``.

    One depth-first pass visits the valid sets in lexicographic order.  A
    set some later vertex can join is not maximal (the child proves it);
    otherwise the non-members not yet refused by the set or an ancestor
    are tested, and a maximal set is recorded only when it is strictly
    smaller than the incumbent, so the first smallest one is kept.  Sets
    at or above the incumbent's size are not extended.

    Refusal lookahead, on the family engine (``_FamilyEngine``'s ``near``
    and ``far``: X is valid iff it holds no set F of the family).  At a
    set X with candidates A, call u *pending* when it is in none of X, A
    and the refused vertices: an earlier child that joined, here or at an
    ancestor, or a child skipped by symmetry.  Every set W
    below X lies inside X + A and leaves u out, so W is maximal only if
    it refuses u, that is only if W holds F - u for some F that holds u.
    Below the child X + w, W lies inside S(w) = X + {w} + (A above w), and
    S(w) shrinks as w grows.  So W is recorded only if, for every pending
    u, some F - u lies inside S(w), and then |W| >= |X| + |F - u - X|,
    which must stay below the incumbent.  When some pending u fails either
    test at w, no set below X + w or a later child is recorded, and X is
    not either (X lies inside S(w)), so the search returns from X.  That
    cuts only sets the pass would never record, so the value and the
    witness do not change.  The cost |X| + min |F - u - X| never falls
    along a path, since F - u - X loses at most the vertices X gains.

    The test stays cheap by a kept bit per pending u: the lowest vertex of
    F - u - X, highest over the F that fit (``never`` when X holds some
    F - u).  F - u fits inside S(w) exactly when that vertex is at least
    w, so u is retested only at a child above its kept bit, and ``limit``
    is the least kept bit.  A retest computes u's bit and cost exactly,
    so a cut never rests on a stale value; going down a path a bit only
    rises.  The one-vertex F - u are retested together, by one test of
    their union against S(w) and X.  An earlier child that joined, or one
    skipped, starts with bit 0 and so is tested at the next child.  The
    kept bits a set changes are put back when it returns.

    Symmetric children are skipped, setwise.  Child y of the set X is
    skipped when an automorphism σ maps X onto itself, as a set, and y
    onto a vertex r < y outside X.  Validity of every engine, and so the
    family engine's seed set, are defined by the metric, which σ preserves, so σ maps
    each maximal set W in y's subtree (W holds y, and of the vertices
    below y exactly X) onto a maximal set σ(W) of the same size that
    holds X and r.  The least vertex where the two differ lies below y,
    in σ(W), so σ(W) is lexicographically smaller.  The canonical witness is the
    lexicographically first smallest maximal set, so neither it nor any
    of its prefixes is ever skipped (orderly generation: a set that is
    first in its orbit stays first when its largest member is removed),
    and the value and the witness do not change.

    ``_Stabilizer.drops`` answers the question, in the order of cost:
    r must share y's cell of ``alike``; the cached automorphisms that
    keep X are asked; then r must share y's cell of ``refine(dmat, X)``
    (whose first round already splits the vertices outside X by their
    distances to X), and an empty candidate set answers no with no
    search; last ``find_automorphism`` looks for σ from those cells.
    When ``alike`` is discrete the graph has no symmetry and nothing is
    looked up.  A child is checked only when its subtree may
    cost ``_Mirrors.costly`` tests, n² times ``gate``: once
    a searched child of its size did, and only while the child's subtree
    can hold n times ``gate`` sets, of at most n tests each.  A vertex the
    lookahead retests counts as one test there, since it is search work
    too.  On small graphs, and late in a set's children, the subtrees
    cost less than the check.
    """
    can_add, add = engine.can_add, engine.add
    uni_mask = 0
    for v in engine.universe:
        uni_mask |= 1 << v
    if bound is None:
        bound = (engine.seed_state[0] | uni_mask).bit_count()
    best_size = bound + 1
    best_mask = None
    nodes = skipped = pruned = 0
    mirrors = _Mirrors(dmat, gate)
    costly = mirrors.costly
    alike: Optional[tuple[int, ...]] = None  # dmat.alike once a depth is ripe, () if discrete
    opened = [False] * (dmat.n + 2)  # opened[s]: a searched child of size s cost ``costly`` tests
    sets = dmat.n * gate  # sets of at most n tests each that make a costly subtree
    family = isinstance(engine, _FamilyEngine)  # the lookahead needs a forbidden-set family
    # near[u], far[u]: the one-vertex F - u as one mask, and the larger F - u
    near, far = (engine.near, engine.far) if family else ((), ())
    never = 1 << dmat.n  # above every vertex bit
    unknown = 0 if family else never  # the kept bit of a vertex just made pending
    kept = [0] * dmat.n  # kept[u]: the kept bit of the pending vertex u
    retests = 0  # pending vertices the lookahead retested

    def retest(mask: int, reach: int, low: int, pend: int, size: int, saved: list):
        """(limit, worst) at the child ``low`` of the set ``mask``, whose
        sets lie inside ``reach``, after retesting the pending vertices of
        ``pend`` whose kept bit is below ``low``: the least kept bit of
        ``pend``, and the largest size plus cost of a retested vertex; (0,
        0) to cut.  Each old kept bit goes on ``saved`` as (vertex, bit)."""
        nonlocal retests
        out = ~reach
        keep = ~mask
        limit = never
        worst = 0
        while pend:
            bit = pend & -pend
            pend ^= bit
            u = bit.bit_length() - 1
            top = kept[u]
            if top < low:
                retests += 1
                one = near[u] & reach  # the one-vertex F - u that fit
                if one & mask:
                    top, fewest = never, 0
                else:
                    top = 1 << one.bit_length() >> 1  # the highest of them, or 0
                    fewest = 1 if one else never
                    for f in far[u]:
                        if not f & out:
                            rest = f & keep
                            if not rest:
                                top, fewest = never, 0
                                break
                            if rest & -rest > top:
                                top = rest & -rest
                            if rest.bit_count() < fewest:
                                fewest = rest.bit_count()
                if not top or size + fewest >= best_size:
                    return 0, 0
                saved.append((u, kept[u]))
                kept[u] = top
                if size + fewest > worst:
                    worst = size + fewest
            if top < limit:
                limit = top
        return limit, worst

    def visit(state, size: int, ahead: int, refused: int, limit: int, worst: int) -> None:
        """Extend ``state`` by the vertices of ``ahead`` (all of them above
        its last member) while the result can still beat the incumbent,
        then record ``state`` if it is maximal.

        ``refused`` holds vertices that cannot join ``state``: by heredity
        a vertex refused by a subset stays refused.  A set too large to
        extend tests its non-members in ascending order, the earlier ones
        first: in measurements those tests are the cheaper ones.

        ``limit`` is at most the least kept bit of the pending vertices,
        so a child at or below it needs no retest, and every set recorded
        below ``state`` has at least ``worst`` vertices (the lookahead).
        A child takes both from its parent: what held at a set holds below
        it.

        ``ripe`` says whether the children are checked for symmetry: once
        a child of their size cost ``costly`` tests to search, every later
        one is whose subtree, the sets of at most ``best_size - up - 1``
        more of the candidates after it, can hold ``sets`` sets.  A
        skipped child is neither tested nor refused.
        """
        nonlocal best_size, best_mask, nodes, skipped, pruned, alike
        up = size + 1
        if up < best_size:
            done = False  # state is known not to be recorded
            stab = None
            ripe = opened[up]
            mask = state[0]
            saved: list[tuple[int, int]] = []
            ahead &= ~refused
            while ahead:
                low = ahead & -ahead
                ahead ^= low
                v = low.bit_length() - 1
                if low > limit:
                    reach = mask | low | ahead
                    got, cost = retest(mask, reach, low, uni_mask & ~reach & ~refused, size, saved)
                    if not got:
                        pruned += 1
                        done = True
                        break
                    limit = got
                    if cost > worst:
                        worst = cost
                if ripe:
                    if alike == () or not _sets_reach(ahead.bit_count(), best_size - up - 1, sets):
                        ripe = False  # no symmetry, or the later subtrees are smaller still
                    else:
                        if alike is None:
                            alike = dmat.alike
                            if all(not c & (c - 1) for c in alike):
                                alike = ()  # a discrete partition: no symmetry to look up
                        if alike and (below := alike[v] & (low - 1) & ~mask):
                            if stab is None:
                                stab = _Stabilizer(mirrors, mask)
                            if stab.drops(v, below):
                                skipped += 1
                                kept[v] = limit = unknown
                                continue
                nodes += 1
                if can_add(state, v):
                    done = True
                    before = nodes + retests
                    visit(add(state, v), up, ahead, refused, limit, worst)
                    if up >= best_size:
                        break
                    if worst >= best_size:
                        pruned += 1
                        break
                    kept[v] = limit = unknown
                    if not ripe and nodes + retests - before >= costly:
                        ripe = opened[up] = True
                else:
                    refused |= low
            for u, top in saved:
                kept[u] = top
            if done:
                return
        mask = state[0]
        rest = uni_mask & ~mask & ~refused
        while rest:
            low = rest & -rest
            nodes += 1
            if can_add(state, low.bit_length() - 1):
                return
            rest ^= low
        best_size = size
        best_mask = mask

    visit(engine.seed_state, engine.seed_state[0].bit_count(), uni_mask, 0, never, 0)
    # break the closures' reference cycles, as in solve_max: the search's
    # tables go with this frame, the engine stays with the graph
    del visit, retest
    if best_mask is None:
        raise RuntimeError(
            "no maximal set within the starting bound; lemma and engine disagree"
        )
    return best_mask, nodes, skipped, pruned


def solve_lower(
    g: Graph, kind: str, *, force: bool = False, fast_path: bool = True
) -> SolveResult:
    """Smallest maximal valid set of the given kind, canonical witness.

    The search is one lexicographic depth-first pass over the valid sets
    that keeps the first smallest maximal set (``_lower_search``).  For mv
    its incumbent bound starts at ``visibility.neighborhood_bound``: a
    flagged closed neighborhood N[x] is a maximal mv set, so the answer
    is at most deg(x) + 1.

    For mv a cut edge shortcuts the search: its endpoints always form a
    maximal set of size 2, and no maximal set of size below 2 exists on
    two or more vertices.  The shortcut then returns the first maximal
    pair in lexicographic order, which is the witness the search would
    find.

    Both shortcuts are the one pair scan (``_first_maximal_pair``), called
    the same way.  For mv it runs only when ``bridges`` finds a cut edge,
    and then ends at or before that edge, which is itself a maximal pair.
    For gp it runs on every input, tagged ``FAST_PATH_GP_PAIR``, after
    the cap check and before the engine, so an oversized input is still
    refused before the metric, and a pair answer never builds ``between``
    or ``thru``.  Its test: a set is in general position when none of its
    vertices lies on a geodesic between two others, so on n >= 2 vertices
    every pair is valid, a singleton is never maximal (any second vertex
    joins it) and gp⁻ >= 2.
    The pair {a, b} is maximal exactly when every other w is refused, that
    is, when one of a, b, w lies on some geodesic between the other two.
    A vertex y lies on some x,z-geodesic exactly when d(x,y) + d(y,z) =
    d(x,z): two geodesics joined at y make a walk of that length, and a
    geodesic through y splits there into two.  So w is refused exactly
    when d(a,w) + d(w,b) = d(a,b), d(a,b) + d(b,w) = d(a,w) or d(b,a) +
    d(a,w) = d(b,w): w is collinear with a and b, on their line
    (``visibility._lines``).  The maximal sets of size 2 are the maximal
    pairs, so the first maximal pair in lexicographic order is the
    canonical witness exactly when gp⁻ = 2, and when no pair is maximal
    gp⁻ >= 3.  The ends a, b of a cut edge always form a maximal pair:
    each other w lies on b's side of the edge, and then every a,w-path
    crosses it, so d(a,w) = d(a,b) + d(b,w), or on a's side, and then
    d(b,w) = d(b,a) + d(a,w).  So a graph with a cut edge has gp⁻ = 2,
    and the scan answers for it.

    When the scan finds no pair, or the fast path is off, the gp search
    starts with the incumbent bound of ``_greedy_bound``: one pass over
    ``mcs_order`` that keeps each vertex ``can_add`` lets join the set
    kept so far.  A vertex the pass refused was refused by a subset of the
    final set S; if S + v were valid, so would its subset be, by heredity,
    so S is maximal and gp⁻ <= |S|.  The search still meets every maximal
    set of size at most |S|, the smallest among them, so the value and the
    canonical witness are those of the search without a bound.

    ``skipped`` counts the children the search resolved by symmetry: those
    an automorphism mapping their parent set onto itself maps onto a
    smaller vertex outside it.  That changes neither the value nor the
    canonical witness (``_lower_search`` has the proof).
    """
    start = time.perf_counter()
    pair = shortcut = None
    if fast_path and g.n >= 2 and (kind == "gp" or kind == "mv" and bridges(g)):
        if kind == "gp":
            # the cap before the metric, as _make_engine checks it, and the
            # scan before the engine, whose tables a pair never needs
            _check_cap(g.n, force)
        pair = _first_maximal_pair(_connected_metric(g), kind)
        if pair is not None:
            shortcut = FAST_PATH_GP_PAIR if kind == "gp" else FAST_PATH_CUT_EDGE
    if pair is not None:
        mask, nodes, skipped, pruned = 1 << pair[0] | 1 << pair[1], 0, 0, 0
    else:
        engine = _make_engine(g, kind, force)
        dmat = _connected_metric(g)
        bound, nodes = None, 0
        if kind == "mv":
            bound = visibility.neighborhood_bound(g)
        elif kind == "gp":
            bound, nodes = _greedy_bound(g, engine)
        mask, tests, skipped, pruned = _lower_search(dmat, engine, bound, _GATE[kind])
        nodes += tests
    witness = VertexSet(g.n, mask)
    if not visibility.is_maximal_set(g, witness, kind):
        raise RuntimeError("solver produced a non-maximal witness; search and predicate disagree")
    return SolveResult(
        kind, "lower", len(witness), witness, nodes, time.perf_counter() - start, shortcut,
        skipped, pruned,
    )


def greedy_maximal(g: Graph, kind: str, seed: int) -> VertexSet:
    """One greedy pass over a seed-derived vertex permutation of the
    connected graph ``g``.

    Deterministic given the seed; the resulting set is maximal, which the
    definitional ``visibility.is_maximal_set`` rechecks, deciding the mv
    and gp non-members from the set.  mv and gp scan with
    ``visibility.greedy_maximal``: mv tests each vertex with ``_joins``,
    and gp keeps each vertex off the lines of the member pairs kept so
    far.  tmv scans the blocker family of
    its engine, uncapped since greedy does not search: from the
    mandatory vertices it keeps each universe vertex, in permutation
    order, that completes no blocker.  The vertices outside the universe
    and the seed are convex-P3 centres, which no valid set holds, so the
    set equals the definitional scan's over the same permutation.
    """
    _connected_metric(g)
    order = permutation(g.n, seed)
    if kind == "tmv":
        engine = _make_engine(g, "tmv", force=True)
        universe = set(engine.universe)
        state = engine.seed_state
        for v in order:
            if v in universe and engine.can_add(state, v):
                state = engine.add(state, v)
        result = VertexSet(g.n, state[0])
    else:
        result = visibility.greedy_maximal(g, kind, order)
    if not visibility.is_maximal_set(g, result, kind):
        raise RuntimeError("greedy result failed the maximality recheck")
    return result


def greedy_profile(g: Graph, kind: str, runs: int, seed: int) -> GreedyProfile:
    """Run greedy_maximal over ``runs`` consecutive seeds and aggregate."""
    if runs < 1:
        raise ValueError("runs must be at least 1")
    visibility.check_kind(kind)
    found = [greedy_maximal(g, kind, s) for s in range(seed, seed + runs)]
    sizes = [len(x) for x in found]
    best = min(found, key=lambda x: (len(x), x.members()))
    return GreedyProfile(kind, runs, seed, min(sizes), max(sizes), best)


def independent_domination(g: Graph) -> SolveResult:
    """Minimum independent dominating set, canonical witness.

    An independent set dominates exactly when it is maximal, so this is
    the lower search (``_lower_search``) over independence, and ``nodes``
    counts its adjacency tests.  Like the solvers, it needs a connected
    graph and raises ``ValueError`` otherwise: its symmetry skip reads the
    metric.
    """
    start = time.perf_counter()
    # independence: the edges are the forbidden sets
    engine = _FamilyEngine(g.n, [1 << u | 1 << v for u, v in g.edges()], False)
    mask, nodes, skipped, pruned = _lower_search(_connected_metric(g), engine, None, _GATE["tmv"])
    adj = g.adj_masks
    cover = 0
    m = mask
    while m:
        low = m & -m
        v = low.bit_length() - 1
        if adj[v] & mask:
            raise RuntimeError("dominating witness is not independent")
        cover |= adj[v] | low
        m ^= low
    if cover != (1 << g.n) - 1:
        raise RuntimeError("witness does not dominate the graph")
    witness = VertexSet(g.n, mask)
    return SolveResult(
        "independent-domination", "lower", len(witness), witness, nodes,
        time.perf_counter() - start, skipped=skipped, pruned=pruned,
    )
