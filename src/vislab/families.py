"""Deterministic generators for the graph families under study.

Plain families (paths, cycles, cliques, bipartite, stars, grids,
hypercubes) are pure functions of their sizes.  Random families (trees,
block graphs) take an explicit seed and draw from the documented
generator in ``rng``, so corpora replay byte for byte.  Every generator
raises ``InstanceTooLargeError`` for sizes that would give more than
``PRODUCT_VERTEX_LIMIT`` vertices or edges, before building anything.

Three constructions return a role string per vertex alongside the graph,
because downstream checks reason about roles rather than raw ids:

* ``gen_subdivided_complete``: a complete graph with every edge
  subdivided once ("original:i" / "subdivided:i-j");
* ``gen_gstar``: two near-twin vertices over a shared independent block
  plus three pendant-ish cliques, built to pull the lower
  mutual-visibility and lower general-position numbers apart;
* ``gen_gadget``: the reduction graph that encodes independent
  domination of a base graph into total mutual visibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graph_core import (
    PRODUCT_VERTEX_LIMIT,
    Graph,
    InstanceTooLargeError,
    cartesian_product,
    is_connected,
)
from .rng import SplitMix64

FAMILIES = (
    "path",
    "cycle",
    "complete",
    "complete_bipartite",
    "star",
    "grid",
    "hypercube",
    "random_tree",
    "random_block_graph",
    "subdivided_complete",
)


@dataclass(frozen=True)
class FamilySpec:
    """Family tag plus integer parameters; ``seed`` matters only for the
    random families."""

    family: str
    sizes: tuple[int, ...] = ()
    seed: int = 0


def _need(spec: FamilySpec, count: int) -> tuple[int, ...]:
    if len(spec.sizes) != count:
        raise ValueError(
            f"family {spec.family!r} takes {count} size parameter(s), got {len(spec.sizes)}"
        )
    return spec.sizes


def _check_size(vertices: int, edges: int) -> None:
    """Refuse an instance above ``PRODUCT_VERTEX_LIMIT`` vertices or edges
    before any of it is built.  The message leaves the counts out: one
    past Python's limit on printing an int would raise a plain
    ``ValueError`` instead."""
    for count, what in ((vertices, "vertices"), (edges, "edges")):
        if count > PRODUCT_VERTEX_LIMIT:
            raise InstanceTooLargeError(
                f"instance would have too many {what} (limit {PRODUCT_VERTEX_LIMIT})"
            )


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least one vertex")
    _check_size(n, n - 1)
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    _check_size(n, n)
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    _check_size(n, n * (n - 1) // 2)
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(r: int, s: int) -> Graph:
    """Sides 0..r-1 and r..r+s-1."""
    if r < 1 or s < 1:
        raise ValueError("both sides need at least one vertex")
    _check_size(r + s, r * s)
    return Graph.from_edges(r + s, [(i, r + j) for i in range(r) for j in range(s)])


def star(leaves: int) -> Graph:
    """Center 0 with the given number of leaves."""
    if leaves < 1:
        raise ValueError("star needs at least one leaf")
    return complete_bipartite(1, leaves)


def grid(dims: tuple[int, ...]) -> Graph:
    """Cartesian product of paths; the last dimension varies fastest."""
    if not dims:
        raise ValueError("grid needs at least one dimension")
    if any(d < 1 for d in dims):
        raise ValueError("grid dimensions must be positive")
    total = 1
    for d in dims:
        total *= d
        _check_size(total, 0)  # before the product grows past a few digits
    _check_size(total, sum(total // d * (d - 1) for d in dims))
    g = path(dims[0])
    for d in dims[1:]:
        g = cartesian_product(g, path(d))
    return g


def hypercube(k: int) -> Graph:
    """Product of k copies of a single edge; vertex ids read as k-bit words."""
    if k < 0:
        raise ValueError("hypercube dimension must be nonnegative")
    # 2**21 vertices already pass the limit: no larger power is computed
    j = min(k, PRODUCT_VERTEX_LIMIT.bit_length())
    _check_size(1 << j, (j << j) // 2)
    g = path(1)
    for _ in range(k):
        g = cartesian_product(g, path(2))
    return g


def random_tree(n: int, seed: int) -> Graph:
    """Uniform labeled tree decoded from a random length n-2 sequence."""
    if n < 1:
        raise ValueError("tree needs at least one vertex")
    _check_size(n, n - 1)
    if n == 1:
        return Graph.from_edges(1, [])
    rng = SplitMix64(seed)
    seq = [rng.below(n) for _ in range(n - 2)]
    degree = [1] * n
    for a in seq:
        degree[a] += 1
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for a in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, a))
        degree[a] -= 1
        if degree[a] == 1:
            heapq.heappush(leaves, a)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Graph.from_edges(n, edges)


def random_block_graph(n: int, max_block: int, seed: int) -> Graph:
    """Grow a connected block graph by gluing complete blocks at random
    existing vertices until n vertices exist.

    Each block draws a size in 2..max_block, clamped near the end so the
    vertex budget is hit exactly.  All blocks are drawn, and their edges
    counted, before any edge is built.
    """
    if n < 1:
        raise ValueError("block graph needs at least one vertex")
    if max_block < 2:
        raise ValueError("blocks need at least two vertices")
    _check_size(n, n - 1)
    rng = SplitMix64(seed)
    blocks = []  # (attach vertex, fresh vertices)
    cur, edge_count = 1, 0
    while cur < n:
        attach = rng.below(cur)
        fresh = min(1 + rng.below(max_block - 1), n - cur)
        blocks.append((attach, fresh))
        edge_count += (fresh + 1) * fresh // 2
        cur += fresh
    _check_size(n, edge_count)
    edges: list[tuple[int, int]] = []
    cur = 1
    for attach, fresh in blocks:
        edges.extend(combinations([attach, *range(cur, cur + fresh)], 2))
        cur += fresh
    return Graph.from_edges(n, edges)


def gen_subdivided_complete(n: int) -> tuple[Graph, tuple[str, ...]]:
    """Complete graph on n vertices with every edge subdivided once.

    Originals keep ids 0..n-1; the vertex splitting edge (i, j) comes
    next in lexicographic edge order.
    """
    if n < 2:
        raise ValueError("subdivision needs at least two original vertices")
    pairs = n * (n - 1) // 2
    _check_size(n + pairs, 2 * pairs)
    roles = [f"original:{i}" for i in range(n)]
    edges = []
    nxt = n
    for i in range(n):
        for j in range(i + 1, n):
            roles.append(f"subdivided:{i}-{j}")
            edges.append((i, nxt))
            edges.append((j, nxt))
            nxt += 1
    return Graph.from_edges(nxt, edges), tuple(roles)


def gen_gstar(b: int, t: int, t1: int, t2: int) -> tuple[Graph, tuple[str, ...]]:
    """Separator construction on 3 + b + t + t1 + t2 vertices.

    Vertices a (id 0) and a-prime (id 1) both see the b-element
    independent block B; the hub (id 2) is adjacent to a and a-prime.
    Three cliques hang off the hub: one also joined to a, one joined to
    nothing else, one also joined to a-prime.
    """
    if b < 1:
        raise ValueError("block B needs at least one vertex")
    if t < 1 or t1 < 1 or t2 < 1:
        raise ValueError("all three cliques need at least one vertex")
    _check_size(
        3 + b + t + t1 + t2,
        2 + 2 * b + t * (t + 3) // 2 + t1 * (t1 + 1) // 2 + t2 * (t2 + 3) // 2,
    )
    roles = ["a", "a-prime", "b-hub"]
    edges = [(0, 2), (1, 2)]
    nxt = 3
    for i in range(b):
        roles.append(f"b:{i}")
        edges.append((0, nxt))
        edges.append((1, nxt))
        nxt += 1

    def clique(count: int, token: str, joined: tuple[int, ...]) -> None:
        nonlocal nxt
        first = nxt
        for i in range(count):
            roles.append(f"{token}:{i}")
            for j in range(first, nxt):
                edges.append((j, nxt))
            for anchor in joined:
                edges.append((anchor, nxt))
            nxt += 1

    clique(t, "clique-t", (0, 2))
    clique(t1, "clique-t1", (2,))
    clique(t2, "clique-t2", (1, 2))
    return Graph.from_edges(nxt, edges), tuple(roles)


def gen_gadget(g: Graph, t: int) -> tuple[Graph, tuple[str, ...]]:
    """Reduction graph over a connected base graph g with clique size t.

    Layout: originals keep their ids; one vertex per base edge follows
    (these edge vertices form a clique and join their endpoints); a hub
    adjacent to every original comes next, completed to a clique by t
    fresh vertices; finally each edge vertex gets a private t-clique.
    Total vertex count is n + m + (t + 1) + t*m.
    """
    if t < 3:
        raise ValueError("clique size must be at least 3")
    if not is_connected(g):
        raise ValueError("base graph must be connected")
    base_edges = list(g.edges())
    n, m = g.n, len(base_edges)
    _check_size(
        n + m + (t + 1) + t * m,
        m * (m + 5) // 2 + n + t * (t + 1) // 2 + m * t * (t + 1) // 2,
    )
    roles = [f"original:{i}" for i in range(n)]
    edges = list(base_edges)
    edge_vertex = {}
    nxt = n
    for i, j in base_edges:
        roles.append(f"edge:{i}-{j}")
        edge_vertex[(i, j)] = nxt
        edges.append((i, nxt))
        edges.append((j, nxt))
        for other in edge_vertex.values():
            if other != nxt:
                edges.append((other, nxt))
        nxt += 1
    hub = nxt
    roles.append("hub")
    for i in range(n):
        edges.append((i, hub))
    nxt += 1
    first = nxt
    for i in range(t):
        roles.append(f"hub-clique:{i}")
        edges.append((hub, nxt))
        for j in range(first, nxt):
            edges.append((j, nxt))
        nxt += 1
    for i, j in base_edges:
        ve = edge_vertex[(i, j)]
        first = nxt
        for idx in range(t):
            roles.append(f"leaf-clique:{i}-{j}:{idx}")
            edges.append((ve, nxt))
            for w in range(first, nxt):
                edges.append((w, nxt))
            nxt += 1
    return Graph.from_edges(nxt, edges), tuple(roles)


def generate(spec: FamilySpec) -> Graph:
    """Build the graph a FamilySpec describes."""
    fam = spec.family
    if fam == "path":
        return path(*_need(spec, 1))
    if fam == "cycle":
        return cycle(*_need(spec, 1))
    if fam == "complete":
        return complete(*_need(spec, 1))
    if fam == "complete_bipartite":
        return complete_bipartite(*_need(spec, 2))
    if fam == "star":
        return star(*_need(spec, 1))
    if fam == "grid":
        return grid(spec.sizes)
    if fam == "hypercube":
        return hypercube(*_need(spec, 1))
    if fam == "random_tree":
        return random_tree(*_need(spec, 1), spec.seed)
    if fam == "random_block_graph":
        n, b = _need(spec, 2)
        return random_block_graph(n, b, spec.seed)
    if fam == "subdivided_complete":
        return gen_subdivided_complete(*_need(spec, 1))[0]
    raise ValueError(f"unknown family {fam!r}; expected one of {FAMILIES}")
