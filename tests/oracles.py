"""Brute-force reference implementations, used only by the tests.

Everything here goes through definitions directly: enumerate geodesics,
enumerate subsets, enumerate supersets.  Nothing is shared with the
library's search code, so agreement is meaningful evidence.
"""

from collections import deque
from functools import lru_cache
from itertools import combinations

INF = None


def bfs_rows(g):
    rows = []
    for src in range(g.n):
        dist = [INF] * g.n
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in g.adj[u]:
                if dist[v] is INF:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        rows.append(dist)
    return rows


@lru_cache(maxsize=1 << 16)
def all_geodesics(g, u, v):
    """Every shortest u..v path as a vertex tuple (cached: graphs are immutable)."""
    dist = bfs_rows(g)[u]
    if dist[v] is INF:
        return ()
    paths = []

    def walk(w, acc):
        if w == u:
            paths.append(tuple(reversed(acc)))
            return
        for p in g.adj[w]:
            if dist[p] == dist[w] - 1:
                walk(p, acc + [p])

    walk(v, [v])
    return tuple(paths)


def interval_oracle(g, u, v):
    out = set()
    for path in all_geodesics(g, u, v):
        out.update(path)
    return out


def visible_oracle(g, x_ids, a, b):
    x = set(x_ids)
    if a == b:
        return True
    paths = all_geodesics(g, a, b)
    if not paths:
        return False
    return any(not (set(p[1:-1]) & x) for p in paths)


def valid_oracle(g, x_ids, kind):
    x = sorted(set(x_ids))
    if kind == "mv":
        return all(visible_oracle(g, x, a, b) for a, b in combinations(x, 2))
    if kind == "tmv":
        return all(
            visible_oracle(g, x, a, b)
            for a, b in combinations(range(g.n), 2)
        )
    if kind == "gp":
        members = set(x)
        for a, b in combinations(x, 2):
            inner = interval_oracle(g, a, b) - {a, b}
            if inner & members:
                return False
        return True
    raise ValueError(kind)


def maximal_oracle(g, x_ids, kind):
    """Valid with no valid proper superset, checked superset by superset."""
    if not valid_oracle(g, x_ids, kind):
        return False
    base = set(x_ids)
    rest = [v for v in range(g.n) if v not in base]
    for r in range(1, len(rest) + 1):
        for extra in combinations(rest, r):
            if valid_oracle(g, base | set(extra), kind):
                return False
    return True


def subset_oracle(g, kind):
    """(max answer, lower answer) of ``kind`` on ``g``, each a (value,
    member tuple) pair: the largest valid set and the smallest maximal
    one, ties to the lexicographically first member tuple.  Every subset
    goes through ``valid_oracle``; the valid ones, by size and then member
    tuple, go through ``maximal_oracle`` until one is maximal."""
    subsets = (tuple(v for v in range(g.n) if mask >> v & 1) for mask in range(1 << g.n))
    valid = sorted((len(ids), ids) for ids in subsets if valid_oracle(g, ids, kind))
    largest = valid[-1][0]
    best_max = next(answer for answer in valid if answer[0] == largest)
    best_lower = next(answer for answer in valid if maximal_oracle(g, answer[1], kind))
    return best_max, best_lower


def connected_oracle(g):
    if g.n == 0:
        return True
    return bfs_rows(g)[0].count(INF) == 0


def bridges_oracle(g):
    out = []
    for u, v in g.edges():
        comp = [0] * g.n
        seen = {u}
        queue = deque([u])
        while queue:
            w = queue.popleft()
            for z in g.adj[w]:
                if (w, z) in ((u, v), (v, u)):
                    continue
                if z not in seen:
                    seen.add(z)
                    queue.append(z)
        if v not in seen:
            out.append((u, v))
    return sorted(out)


def articulation_oracle(g):
    """Cut vertices of a connected graph: removal disconnects the rest."""
    out = []
    for v in range(g.n):
        rest = [u for u in range(g.n) if u != v]
        if len(rest) <= 1:
            continue
        seen = {rest[0]}
        queue = deque([rest[0]])
        while queue:
            w = queue.popleft()
            for z in g.adj[w]:
                if z != v and z not in seen:
                    seen.add(z)
                    queue.append(z)
        if len(seen) < len(rest):
            out.append(v)
    return out


def maximal_cliques_oracle(g):
    cliques = []
    for r in range(1, g.n + 1):
        for ids in combinations(range(g.n), r):
            if all(g.has_edge(a, b) for a, b in combinations(ids, 2)):
                cliques.append(set(ids))
    return sorted(
        tuple(sorted(c))
        for c in cliques
        if not any(c < other for other in cliques)
    )


def independent_domination_oracle(g):
    """(size, member tuple) of the first independent dominating set that
    ``combinations`` yields at the smallest size: the canonical witness."""
    for r in range(g.n + 1):
        for ids in combinations(range(g.n), r):
            if any(g.has_edge(a, b) for a, b in combinations(ids, 2)):
                continue
            dominated = set(ids)
            for v in ids:
                dominated.update(g.adj[v])
            if len(dominated) == g.n:
                return r, ids
    return None


def girth_oracle(g):
    """Length of a shortest cycle, or None in a forest."""
    best = None
    for u, v in g.edges():
        dist = [INF] * g.n
        dist[u] = 0
        queue = deque([u])
        while queue:
            w = queue.popleft()
            for z in g.adj[w]:
                if (w, z) in ((u, v), (v, u)):
                    continue
                if dist[z] is INF:
                    dist[z] = dist[w] + 1
                    queue.append(z)
        if dist[v] is not INF:
            cycle = dist[v] + 1
            if best is None or cycle < best:
                best = cycle
    return best


def _induced_cycle(g, ids):
    sub = {v: [u for u in g.adj[v] if u in ids] for v in ids}
    if any(len(nb) != 2 for nb in sub.values()):
        return False
    seen = {ids[0]}
    queue = deque([ids[0]])
    while queue:
        w = queue.popleft()
        for z in sub[w]:
            if z not in seen:
                seen.add(z)
                queue.append(z)
    return len(seen) == len(ids)


def chordal_oracle(g):
    for r in range(4, g.n + 1):
        for ids in combinations(range(g.n), r):
            if _induced_cycle(g, ids):
                return False
    return True


def block_graph_oracle(g):
    """Block graphs are exactly the diamond-free chordal graphs."""
    if not chordal_oracle(g):
        return False
    for ids in combinations(range(g.n), 4):
        edges = sum(
            1 for a, b in combinations(ids, 2) if g.has_edge(a, b)
        )
        if edges == 5:
            return False
    return True


def forbidden_sets_oracle(g, kind):
    """The forbidden vertex sets of ``kind`` on the graph ``g``, as
    frozensets, or None where no such form is known (a disconnected
    graph, and mv at diameter 3 or more).  A set is valid iff it holds
    none of them:

    * tmv: the common neighbours C(a, b) of each pair at distance 2 (a
      geodesic that meets the set can be rerouted around it one interior
      vertex at a time, as long as each distance-2 pair keeps a common
      neighbour outside it);
    * mv at diameter at most 2: {a, b} + C(a, b) for each pair at
      distance 2, since members at distance 1 always see each other;
    * gp: each collinear triple {a, b, c}, d(a, c) = d(a, b) + d(b, c).
    """
    if not connected_oracle(g):
        return None
    rows = bfs_rows(g)
    pairs = [(a, b) for a, b in combinations(range(g.n), 2) if rows[a][b] == 2]
    if kind == "tmv":
        return {frozenset(set(g.adj[a]) & set(g.adj[b])) for a, b in pairs}
    if kind == "mv":
        if any(d > 2 for row in rows for d in row):
            return None
        return {frozenset(set(g.adj[a]) & set(g.adj[b]) | {a, b}) for a, b in pairs}
    if kind == "gp":
        return {
            frozenset((a, b, c))
            for a, c in combinations(range(g.n), 2)
            for b in range(g.n)
            if b not in (a, c) and rows[a][c] == rows[a][b] + rows[b][c]
        }
    raise ValueError(kind)


def form_valid(sets, x_ids):
    """Whether the set holds none of the forbidden ``sets``."""
    x = set(x_ids)
    return not any(f <= x for f in sets)


def form_joins(sets):
    """The join test of the forbidden-set family ``sets``, for
    ``walk_oracle``: v joins the valid set x when x + v holds none of the
    sets through v."""
    by_vertex = {v: [f for f in sets if v in f] for v in frozenset().union(*sets)}

    def joins(x, v):
        return not any(f <= x | {v} for f in by_vertex.get(v, ()))

    return joins


def walk_oracle(g, joins):
    """(max answer, lower answer) of the hereditary set family whose join
    test is ``joins(x, v)`` (whether the valid frozenset x stays valid with
    v added), each a (value, member tuple) pair: the largest valid set and
    the smallest maximal one, ties to the lexicographically first member
    tuple.

    A plain depth-first walk over every valid set, each grown by larger
    vertices only, with no bound, order, symmetry or lookahead.  Valid
    sets are hereditary, so the walk reaches all of them.
    """
    best_max = best_lower = None

    def walk(x, start):
        nonlocal best_max, best_lower
        members = tuple(sorted(x))
        if best_max is None or (-len(members), members) < (-best_max[0], best_max[1]):
            best_max = (len(members), members)
        can = [v for v in range(g.n) if v not in x and joins(x, v)]
        if not can and (best_lower is None or (len(members), members) < best_lower):
            best_lower = (len(members), members)
        for v in can:
            if v >= start:
                walk(x | {v}, v + 1)

    walk(frozenset(), 0)
    return best_max, best_lower
