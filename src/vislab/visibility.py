"""Visibility and general-position predicates over vertex subsets.

For a graph G and a subset X of its vertices, two vertices a, b are
*X-visible* when a = b, when ab is an edge, or when some shortest a,b-path
has all of its internal vertices outside X.  Membership of a or b
themselves in X never matters; only internal vertices can block.  A pair
in different components is never visible.

Three downward-closed set properties are built on top of this:

* mutual visibility ("mv"): every pair of vertices of X is X-visible;
* total mutual visibility ("tmv"): every pair of vertices of the whole
  graph is X-visible;
* general position ("gp"): no shortest path between two vertices of X
  passes through a third vertex of X.

Downward closure means every subset of a valid set is valid, so a valid
set is maximal exactly when no single vertex can be added.  Everything in
this module is definitional: checks follow the geodesics out of a source
layer by layer, stopping at blocked vertices (``visible_mask``), or
inspect shortest-path intervals directly, with no structural shortcuts.
Solvers revalidate their answers against these predicates.  Each reach
of ``visible_mask`` is told the vertices its caller asks about and stops
at the layer that decides them: once all are seen, or once the layer of
one passes without it.  Visibility is symmetric, so ``is_mv_set`` asks
each source only for the members above it.  Only the mv recheck of
``is_maximal_set`` asks about every vertex, so its reaches (``_reach``)
run to their last layer.

``is_tmv_set`` runs no reach: a shadow pull alone decides it.  Each
source a settles only its shadow, the vertices b with a member y != a
inside some a,b-geodesic, d(a, y) + d(y, b) = d(a, b); any other vertex
has a geodesic from a with no member inside, so it needs no test.  The
shadow is settled layer by layer with a pull: a vertex is visible
exactly when a neighbour one layer closer to a is visible and is a or
not a member.  So a vertex can be dark (invisible) only when all of
those neighbours hide (are members or dark), and the pull asks only the
neighbours of hiding vertices in the next layer: the first ring of each
member's shadow, then whatever a dark vertex continues into.  Darkness
passes through vertices below a, so they are settled too, but only a
dark vertex above a refuses, since visibility is symmetric.

Adding one vertex v to a valid set X (``_joins``) retests only what v
can break; the mv and tmv greedy scans and the tmv recheck run it.
Every join rule here, one vertex or one set at a time, is tested against
``is_valid_set`` on X + v.  The lemma: a pair with no geodesic through
v keeps its X-avoiding geodesic, so it stays visible past X + v.  From a
source a, v is interior to some geodesic exactly when a neighbour of v
lies one layer further from a, ``adj[v] & layers[a][d(a, v) + 1]``; a
source that fails this layer test sees past X + v what it saw past X.

So mv runs one reach from v, then (``_mv_pairs_hold``) asks each member
a that passes the layer test only for the members b above a that v lies
between, d(a, v) + d(v, b) = d(a, b); both ends of such a pair pass the
test, so the smaller end is enough, as in ``is_mv_set``.  That need is
the shadow of v from a, the union of ``layers[a][d(a, v) + j] &
layers[v][j]`` over j >= 1, masked to the members above a.  Its first
slice is the layer test, and it ends at its first empty slice, since a
geodesic from v to a later slice crosses every earlier one.  A member
above a is open until the layer of a or of v that holds it is passed;
the slices are walked while two are open, and the last one is placed by
its distances.  Before any member reach, each asked pair (a, b) is cut
on v's slice ``layers[a][d(a, v)] & layers[b][d(b, v)]``, the vertices
as far from a and from b as v is: every a,b-geodesic crosses it, so if
it lies inside X + v the pair is invisible and v is refused.  Then one
reach from each such a asks for its pairs.  gp reads the lines of v
(below).

tmv asks first for a blocked corner at v: two non-adjacent neighbours
of v whose common neighbours all lie in X + v
(``graph_core.blocked_corner``).  Such a pair is invisible, so v is
refused.  Otherwise the whole-set pull decides X + v.  The distance-2
lemma of ``solvers`` (a set is tmv exactly when no distance-2 pair has
all of its common neighbours in it) explains why the corner is where
every refusal shows: X is valid, so a distance-2 pair with all of its
common neighbours in X + v has v among them, and it is a pair of v's
neighbours.  So the pull runs only on the way to accepting v, and never
while ``is_maximal_set`` rechecks a maximal set.  No answer leans on
the lemma: a blocked corner and a blocked slice are each an invisible
pair, so each is sufficient on its own, and a v with no blocked corner
still goes through the pull.

The same corner test, with another set blocked, is the whole rule of
``convex_p3_centers`` (y alone: y is the unique common neighbour of a
distance-2 pair), of ``neighborhood_lemma_scan`` (N[x]: N[x] is not a
mutual-visibility set) and of ``graph_core.simplicial_vertices`` (every
vertex: N(y) is not a clique).

``is_maximal_set`` decides the mv and gp non-members a set at a time.
For mv it runs one full reach from each member a past X.  The set is
valid exactly when every reach holds every member.  The non-members
that every reach holds form ``sees``, and by symmetry they are exactly
the non-members v that see every member past X: an a,v-geodesic with no
member inside is one read from either end.  That is the first test of
mv ``_joins``, so a vertex outside ``sees`` is refused, and only the
vertices of ``sees`` run the rest of it (``_mv_pairs_hold``), without
repeating v's reach.

For gp, the *line* of two vertices a, b of one component holds the
vertices w != a, b collinear with them: w between a and b, b between a
and w (w beyond b), or a between b and w (w beyond a).  With d = d(a,
b) these are ``layers[a][k] & layers[b][d - k]`` for 0 < k < d,
``layers[b][j] & layers[a][d + j]`` for j >= 1, and its mirror
(``_lines``).  A triple is collinear, one of its vertices on a geodesic
between the other two, exactly when one of its vertices lies on the line
of the other two, as those three cases are the three places the vertex
can take.  A valid gp set X holds no collinear triple, so X + v holds one
exactly when a member lies on the line of v with another member, which
is the same as v lying on the line of a member pair.  That is gp's one
join rule.  gp ``_joins`` reads it from v's side: v joins X exactly when
the lines of v with the members miss X.  The set-at-a-time readings take
the other side: v joins X exactly when it is off the union of the lines
of X's member pairs, and X is maximal exactly when that union covers
every non-member.  The gp scan of ``greedy_maximal`` carries the union:
v joins exactly when it is off it, and a kept v ORs in its lines with
the members kept before it.

``solvers.greedy_maximal`` scans with ``greedy_maximal`` for mv and gp.
For tmv it scans the blocker family of its search engine, so here
``greedy_maximal`` is that scan's definitional reference and
``is_maximal_set`` its independent recheck.  gp ``_joins``, the gp scan
and the gp recheck all read ``_lines``, the gp engine of ``solvers`` the
same lines off ``DistanceMatrix.between`` and ``thru``, and
``is_gp_set``'s triple test is the one independent of them.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional, Sequence

from .graph_core import UNREACHABLE, Graph, VertexSet, blocked_corner

KINDS = ("mv", "tmv", "gp")


def check_kind(kind: str) -> str:
    if kind not in KINDS:
        raise ValueError(f"unknown set kind {kind!r}; expected one of {KINDS}")
    return kind


def _check_universe(g: Graph, x: VertexSet) -> None:
    if x.n != g.n:
        raise ValueError("vertex set universe does not match graph")


def visible_mask(g: Graph, src: int, blocked_mask: int, need: int) -> int:
    """Bitmask of vertices visible from ``src`` past the blocked vertices,
    enough of it to tell whether all of the mask ``need`` is visible.

    A layered reach over the BFS layers of ``src``: the visible vertices at
    distance d are the neighbours of the unblocked visible vertices at
    distance d - 1 that lie in ``g.metric.layers[src][d]``.  A vertex is
    visible exactly when some geodesic from ``src`` reaches it with no
    blocked interior vertex, and every prefix of such a geodesic is one
    too, so blocked vertices end paths but never relay them.  Vertices
    reached off a geodesic are never expanded: anything reached through
    one is already past its own distance, so it cannot be visible.
    ``src`` itself is always visible and is expanded even if the caller
    left it in ``blocked_mask``.

    The reach stops once all of ``need`` is seen, or at the first layer
    that passes with a vertex of ``need`` unseen, since a vertex lies in
    one layer only.  So every vertex of the result is visible, and
    ``need`` is a subset of the result exactly when all of it is visible.
    """
    g.check_vertex(src)
    masks = g.adj_masks
    layers = g.metric.layers[src]
    open_mask = ~blocked_mask
    vis = frontier = 1 << src
    left = need & ~vis
    d = 1
    while frontier and left:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= masks[low.bit_length() - 1]
            frontier ^= low
        layer = layers[d]
        nxt &= layer
        vis |= nxt
        if left & layer & ~nxt:
            break
        left &= ~nxt
        frontier = nxt & open_mask
        d += 1
    return vis


def _reach(g: Graph, src: int, blocked_mask: int) -> int:
    """Every vertex visible from ``src`` past the blocked vertices: the
    layered reach of ``visible_mask``, with no ``need`` to stop it, run
    to its last layer."""
    masks = g.adj_masks
    layers = g.metric.layers[src]
    open_mask = ~blocked_mask
    vis = frontier = 1 << src
    d = 1
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= masks[low.bit_length() - 1]
            frontier ^= low
        nxt &= layers[d]
        vis |= nxt
        frontier = nxt & open_mask
        d += 1
    return vis


def pair_visible(g: Graph, x: VertexSet, a: int, b: int) -> bool:
    """Whether the single pair (a, b) is visible with respect to ``x``."""
    _check_universe(g, x)
    g.check_vertex(a)
    g.check_vertex(b)
    if a == b or g.has_edge(a, b):
        return True
    if g.metric.rows[a][b] is UNREACHABLE:
        return False
    vis = visible_mask(g, a, x.mask, 1 << b)
    return bool((vis >> b) & 1)


def is_mv_set(g: Graph, x: VertexSet) -> bool:
    """Every pair of vertices of ``x`` is visible past the rest of ``x``."""
    _check_universe(g, x)
    if len(x) <= 1:
        return True
    # visibility is symmetric, so each source needs only the members above it
    for a in x.members():
        need = x.mask & (-2 << a)
        if need & ~visible_mask(g, a, x.mask, need):
            return False
    return True


def is_tmv_set(g: Graph, x: VertexSet) -> bool:
    """Every pair of vertices of the graph is visible past ``x``.

    On a disconnected graph with at least two vertices no set qualifies,
    the empty set included, because cross-component pairs are not visible.
    Otherwise the shadow pull alone decides: each source a is asked only
    about its shadow, the vertices b with d(a, y) + d(y, b) = d(a, b) for
    a member y != a; every other vertex has a geodesic from a with no
    member inside.  The layers of a are settled outwards: a vertex is
    visible exactly when a neighbour one layer closer is visible and is a
    or not a member, so only the neighbours of hiding vertices (members
    and dark vertices) one layer further out are tested, and the walk
    ends past the last member once no vertex is dark.  A dark vertex above
    a refuses (see the module docstring).
    """
    _check_universe(g, x)
    if g.n and UNREACHABLE in g.metric.rows[0]:
        return False
    adj, blocked, layers = g.adj_masks, x.mask, g.metric.layers
    for a in range(g.n):
        lay_a = layers[a]
        # rest: the members past layer d - 1; dark: the invisible vertices
        # of layer d; top: the last layer (one empty layer pads the list),
        # where a member hides nothing
        d, top, rest, dark = 1, len(lay_a) - 2, blocked & ~(1 << a), 0
        # visibility is symmetric, so each source needs only the vertices above it
        above = -2 << a
        while d < top and (rest or dark):
            layer = lay_a[d]
            hide = rest & layer | dark
            rest &= ~layer
            d += 1
            if not hide:
                continue
            ask, m = 0, hide
            while m:
                low = m & -m
                ask |= adj[low.bit_length() - 1]
                m ^= low
            ask &= lay_a[d]
            relay, dark = layer & ~hide, 0
            while ask:
                low = ask & -ask
                if not adj[low.bit_length() - 1] & relay:
                    dark |= low
                ask ^= low
            if dark & above:
                return False
    return True


def is_gp_set(g: Graph, x: VertexSet) -> bool:
    """No third vertex of ``x`` lies on a shortest path between two of ``x``.

    One pass over the member triples: a triple is collinear, one member on
    a geodesic between the other two, exactly when its largest distance is
    the sum of the other two.  A triple that spans two components imposes
    no constraint: a pair in different components has no shortest path
    for anything to sit on.  This is the one whole-set gp test, kept
    apart from the lines of ``_lines`` as their independent check.
    """
    _check_universe(g, x)
    rows = g.metric.rows
    for a, b, c in combinations(x.members(), 3):
        row_a = rows[a]
        p, q = row_a[b], row_a[c]
        # with b and c both in a's component, so is the pair b, c
        if p is UNREACHABLE or q is UNREACHABLE:
            continue
        r = rows[b][c]
        if p + q + r == 2 * max(p, q, r):
            return False
    return True


_CHECKS = {"mv": is_mv_set, "tmv": is_tmv_set, "gp": is_gp_set}


def is_valid_set(g: Graph, x: VertexSet, kind: str) -> bool:
    return _CHECKS[check_kind(kind)](g, x)


def _joins(g: Graph, mask: int, v: int, kind: str) -> bool:
    """Whether the valid set ``mask`` stays valid of ``kind`` with v added.

    Equal to ``is_valid_set(g, x.add(v), kind)`` for a valid x with v
    outside it, which is what the tests compare it with.  mv retests only
    the pairs v can break; gp refuses v exactly when a member lies on the
    line of v with another member (``_lines``); tmv asks v's corner
    (``blocked_corner``), then the whole-set pull of ``is_tmv_set`` (see
    the module docstring for the lemma and each kind's rule).
    """
    if kind == "tmv":
        # a refusal of v always shows at v's corner, so the whole-set pull
        # runs only on the way to accepting v
        new = mask | (1 << v)
        return not blocked_corner(g.adj_masks, v, new) and is_tmv_set(g, VertexSet(g.n, new))
    if kind == "gp":
        return not _lines(g, mask, v) & mask
    return not mask & ~visible_mask(g, v, mask, mask) and _mv_pairs_hold(g, mask, v)


def _mv_pairs_hold(g: Graph, mask: int, v: int) -> bool:
    """Whether every pair of members of the mv set ``mask`` stays visible
    past ``mask`` with v added, for a v outside it that sees every member:
    the rest of mv ``_joins`` after v's reach (the shadow of v, the slice
    cut and the member reaches; see the module docstring)."""
    new = mask | (1 << v)
    rows, layers = g.metric.rows, g.metric.layers
    adj = g.adj_masks[v]
    # every member is in v's component, as v sees them all; m holds the
    # members above a (the top member has none to ask for), rest those
    # whose place in the shadow is still open
    lay_v, row_v = layers[v], rows[v]
    asked = []
    m = mask
    while m & (m - 1):
        low = m & -m
        a = low.bit_length() - 1
        m ^= low
        lay_a, row_a = layers[a], rows[a]
        k = row_a[v] + 1
        shadow = ring = adj & lay_a[k]
        rest, j = m & ~(lay_a[k] | adj), 1
        while ring and rest & (rest - 1):
            k += 1
            j += 1
            ring = lay_a[k] & lay_v[j]
            shadow |= ring
            rest &= ~(lay_a[k] | lay_v[j])
        if ring and rest:
            b = rest.bit_length() - 1
            if row_a[v] + row_v[b] == row_a[b]:
                shadow |= rest
        need = shadow & m
        if need:
            # every a,b-geodesic crosses the slice of v, the vertices as
            # far from a and from b as v is, so X + v holding it blocks
            # the pair
            cut, todo = lay_a[row_a[v]] & ~new, need
            while todo:
                b = (todo & -todo).bit_length() - 1
                if not cut & layers[b][row_v[b]]:
                    return False
                todo &= todo - 1
            asked.append((a, need))
    for a, need in asked:
        if need & ~visible_mask(g, a, new, need):
            return False
    return True


def _lines(g: Graph, mask: int, v: int) -> int:
    """The union of the lines of v with each member a of ``mask``.

    The line of a and v holds the vertices w != a, v collinear with them
    (see the module docstring).  With d = d(a, v), w lies between them in
    ``layers[a][k] & layers[v][d - k]`` for 0 < k < d, beyond v in ring j
    ``layers[v][j] & layers[a][d + j]`` and beyond a in its mirror, for j
    >= 1.  Each extension ends at its first empty ring: a geodesic from
    its near end (v, or a in the mirror) to a vertex of ring j + 1
    crosses ring j.  A member in another component has no line with v.
    """
    row_v, layers = g.metric.rows[v], g.metric.layers
    lay_v = layers[v]
    line = 0
    while mask:
        low = mask & -mask
        mask ^= low
        a = low.bit_length() - 1
        d = row_v[a]
        if d is UNREACHABLE:
            continue
        lay_a = layers[a]
        for k in range(1, d):
            line |= lay_a[k] & lay_v[d - k]
        for near, far in ((lay_v, lay_a), (lay_a, lay_v)):
            j, ring = 1, near[1] & far[d + 1]
            while ring:
                line |= ring
                j += 1
                ring = near[j] & far[d + j]
    return line


def is_maximal_set(g: Graph, x: VertexSet, kind: str) -> bool:
    """True when no single vertex can be added to the valid set ``x``.

    Single-vertex extension testing is equivalent to the superset
    definition of maximality because all three properties are downward
    closed.  ``x`` itself must be valid and over the graph's vertices;
    anything else raises ``ValueError``.

    mv and gp decide the non-members from the set (the module docstring
    has both rules and their proofs).  mv runs one full reach from each
    member past x: the set is valid exactly when every reach holds every
    member, and by symmetry the non-members that every reach holds are
    those that see every member.  Only they can join, and each runs the
    rest of mv ``_joins`` (``_mv_pairs_hold``).  gp checks the set whole
    with ``is_gp_set``; it is maximal exactly when the lines of its member
    pairs cover every non-member.  tmv checks the set whole, then each
    non-member v with ``_joins``; on a maximal tmv set every v is refused
    at its corner.
    """
    check_kind(kind)
    _check_universe(g, x)
    mask = x.mask
    free = ~mask & ((1 << g.n) - 1)
    if kind == "mv":
        m = mask
        while m:
            low = m & -m
            reach = _reach(g, low.bit_length() - 1, mask)
            if mask & ~reach:
                raise ValueError("input set not valid")
            free &= reach
            m ^= low
        return not any(_mv_pairs_hold(g, mask, v) for v in VertexSet(g.n, free))
    if not is_valid_set(g, x, kind):
        raise ValueError("input set not valid")
    if kind == "gp":
        lines, m = 0, 0
        for a in x:
            lines |= _lines(g, m, a)
            m |= 1 << a
        return not free & ~lines
    return not any(_joins(g, mask, v, kind) for v in VertexSet(g.n, free))


def convex_p3_centers(g: Graph) -> VertexSet:
    """Vertices that are the unique common neighbor of some distance-2 pair:
    a corner at v with v alone blocked (``blocked_corner``).

    On a connected graph these are exactly the vertices that
    ``tmv_candidates``, the definitional singleton check, leaves out.
    """
    adj = g.adj_masks
    return VertexSet.from_ids(g.n, (v for v in range(g.n) if blocked_corner(adj, v, 1 << v)))


def tmv_candidates(g: Graph) -> VertexSet:
    """Vertices whose singleton keeps every pair of the graph visible.

    Only these vertices can appear in any nonempty total mutual-visibility
    set.  Computed definitionally, one singleton check per vertex.
    """
    out = 0
    for v in range(g.n):
        if is_tmv_set(g, VertexSet(g.n, 1 << v)):
            out |= 1 << v
    return VertexSet(g.n, out)


def neighborhood_lemma_scan(g: Graph) -> list[tuple[int, bool]]:
    """Flag each vertex x whose closed neighborhood is a maximal mv set.

    The local criterion: every two non-adjacent neighbors of x share a
    common neighbor outside N[x], so no corner at x with N[x] blocked
    (``blocked_corner``).  It is exact in both directions.  When the
    flag holds, N[x] certifies the upper bound "lower mv number <=
    deg(x) + 1".  Requires a connected graph.
    """
    if g.n and UNREACHABLE in g.metric.rows[0]:
        raise ValueError("neighborhood scan requires a connected graph")
    adj = g.adj_masks
    return [(x, not blocked_corner(adj, x, adj[x] | 1 << x)) for x in range(g.n)]


def neighborhood_bound(g: Graph) -> Optional[int]:
    """Best upper bound on the lower mv number the scan can certify."""
    flagged = [x for x, flag in neighborhood_lemma_scan(g) if flag]
    if not flagged:
        return None
    return min(g.degree(x) + 1 for x in flagged)


def greedy_maximal(g: Graph, kind: str, order: Sequence[int]) -> VertexSet:
    """Scan ``order`` once, keeping each vertex that preserves validity.

    The mv and gp scan of ``solvers.greedy_maximal``, and the definitional
    reference for its tmv scan over the blocker family, which keeps the
    same set.  ``order`` must be a permutation of the vertices.
    Downward closure makes the result maximal: a vertex rejected at scan
    time is rejected against a subset of the final set, so it stays
    invalid later.  For mv and tmv, each vertex v is tested with
    ``_joins`` against the set kept so far, which retests only what v can
    break.  The gp scan carries the union of the lines of the member pairs
    kept so far: v joins exactly when it is off the union, and a kept v
    ORs in its lines with the members before it (``_lines``; see the
    module docstring for both rules).

    Raises ``ValueError`` when even the empty set is invalid, which
    happens only for "tmv" on a disconnected graph: every pair is visible
    past the empty set exactly when the graph is connected, which the
    first row of the metric shows.
    """
    check_kind(kind)
    if sorted(order) != list(range(g.n)):
        raise ValueError("order must be a permutation of the vertex ids")
    if kind == "tmv" and g.n and UNREACHABLE in g.metric.rows[0]:
        raise ValueError(
            "no valid sets exist: total visibility needs a connected graph"
        )
    mask = lines = 0
    for v in order:
        if kind == "gp":
            if not lines >> v & 1:
                lines |= _lines(g, mask, v)
                mask |= 1 << v
        elif _joins(g, mask, v, kind):
            mask |= 1 << v
    return VertexSet(g.n, mask)
