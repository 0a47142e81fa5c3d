"""Simple undirected graphs: representation, text formats, structure.

Vertices are the integers 0..n-1.  Graphs are immutable once built; all
construction goes through ``Graph.from_edges`` or ``parse_graph``, which
validate the simple-graph invariants (no self-loops, no duplicate edges,
endpoints in range).

The on-disk format is a plain edge list: a header line ``n m`` followed by
m lines ``u v``, whitespace separated, LF endings.  Lines starting with
``#`` are comments and blank lines are skipped.  ``parse_graph`` reports
the offending line number on any malformed input, and rejects a header
claiming more than ``PRODUCT_VERTEX_LIMIT`` vertices before allocating
anything per vertex.

``DistanceMatrix`` is the one metric: distance rows, per-source BFS
layer masks, the geodesic interiors of every pair and the shadow table
``thru``.  ``Graph.metric`` builds it once per graph object, and every
query reads that one; ``Graph.engines`` keeps the solvers' search
engines the same way.  Distance rows use the sentinel ``UNREACHABLE``
(an alias of ``None``) for vertex pairs with no connecting path; it can
never leak into arithmetic because adding it raises.  It appears in
``rows`` only: layers and interiors are masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

UNREACHABLE = None

# Most vertices any graph may have when built from a product or parsed from
# text; guards against materializing astronomically large graphs.
PRODUCT_VERTEX_LIMIT = 1 << 20

EdgeList = list  # list[tuple[int, int]], endpoints normalized (small, large)


class ParseError(ValueError):
    """Raised on malformed edge-list text; the message names the bad line."""


class InstanceTooLargeError(ValueError):
    """Raised when an input exceeds a documented size cap."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph with adjacency tuples.

    ``adj[v]`` is the strictly ascending tuple of neighbors of ``v``.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an iterable of endpoint pairs, validating that
        the result is simple."""
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen = set()
        nbrs: dict[int, set[int]] = {}  # edge endpoints only: the rest get ()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge endpoint out of range: ({u}, {v})")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge ({key[0]}, {key[1]})")
            seen.add(key)
            nbrs.setdefault(u, set()).add(v)
            nbrs.setdefault(v, set()).add(u)
        return cls(n, tuple(tuple(sorted(nbrs[v])) if v in nbrs else () for v in range(n)))

    @cached_property
    def adj_masks(self) -> tuple[int, ...]:
        masks = []
        for nb in self.adj:
            m = 0
            for v in nb:
                m |= 1 << v
            masks.append(m)
        return tuple(masks)

    @cached_property
    def metric(self) -> DistanceMatrix:
        """The graph's ``DistanceMatrix``, built on first use and kept as long
        as the graph: every query on one graph object reads the same one."""
        return distance_matrix(self)

    @cached_property
    def engines(self) -> dict:
        """The search engines ``solvers`` has built on this graph, by kind,
        each on first use; like ``metric`` they are kept as long as the
        graph, so every query of one kind on one graph object runs on the
        same engine."""
        return {}

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj_masks[u] >> v) & 1)

    def edge_count(self) -> int:
        return sum(len(nb) for nb in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (small, large) pairs in lexicographic order."""
        for u in range(self.n):
            for v in self.adj[u]:
                if v > u:
                    yield (u, v)

    def check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for n={self.n}")


@dataclass(frozen=True)
class VertexSet:
    """Subset of the vertices of an n-vertex graph, stored as a bitmask.

    Iteration is always in ascending vertex order.
    """

    n: int
    mask: int = 0

    def __post_init__(self):
        if self.mask < 0 or self.mask >> self.n:
            raise ValueError("membership outside the vertex universe")

    @classmethod
    def from_ids(cls, n: int, ids: Iterable[int]) -> "VertexSet":
        m = 0
        for v in ids:
            if not (0 <= v < n):
                raise ValueError(f"vertex {v} out of range for n={n}")
            m |= 1 << v
        return cls(n, m)

    def members(self) -> tuple[int, ...]:
        out = []
        m = self.mask
        while m:
            low = m & -m
            out.append(low.bit_length() - 1)
            m ^= low
        return tuple(out)

    def add(self, v: int) -> "VertexSet":
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        return VertexSet(self.n, self.mask | (1 << v))

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and bool((self.mask >> v) & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter(self.members())

    def __str__(self) -> str:
        return "{" + ", ".join(str(v) for v in self.members()) + "}"


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs hop distances with per-source BFS layers.

    ``rows[u][v]`` is the hop distance, ``UNREACHABLE`` for pairs in
    different components.  ``layers[u][k]`` is the bitmask of vertices at
    distance k from u, padded with one empty layer.  ``between[u][v]`` is
    the bitmask of internal vertices of the u,v-geodesics, built on first
    use: w is one exactly when it lies in ``layers[u][k]`` and
    ``layers[v][d - k]`` for some 0 < k < d = d(u, v).  ``thru[v][a]``,
    the shadow table, also built on first use, holds the b != v with v
    inside some a,b-geodesic, a != v: the rings ``layers[v][j] &
    layers[a][d(a, v) + j]`` for j >= 1 up to the first empty one, which a
    geodesic from v to any later ring crosses.  ``layers``, ``between``
    and ``thru`` are meant for connected graphs; on a disconnected one
    they see only the source's component.
    """

    n: int
    rows: tuple[tuple[Optional[int], ...], ...]
    layers: tuple[tuple[int, ...], ...]

    @cached_property
    def between(self) -> tuple[tuple[int, ...], ...]:
        layers = self.layers
        table = [[0] * self.n for _ in range(self.n)]
        for u, lay_u in enumerate(layers):
            above = -1 << (u + 1)
            for d in range(2, len(lay_u) - 1):
                m = lay_u[d] & above
                while m:
                    low = m & -m
                    v = low.bit_length() - 1
                    lay_v = layers[v]
                    inner = 0
                    for k in range(1, d):
                        inner |= lay_u[k] & lay_v[d - k]
                    table[u][v] = table[v][u] = inner
                    m ^= low
        return tuple(tuple(row) for row in table)

    @cached_property
    def thru(self) -> tuple[tuple[int, ...], ...]:
        layers, table = self.layers, []
        for v, lay_v in enumerate(layers):
            row = []
            for a, d in enumerate(self.rows[v]):
                # v itself (d = 0) and another component have no shadow
                shadow = ring = lay_v[1] & layers[a][d + 1] if d else 0
                j = 1
                while ring:
                    j += 1
                    ring = lay_v[j] & layers[a][d + j]
                    shadow |= ring
                row.append(shadow)
            table.append(tuple(row))
        return tuple(table)

    @cached_property
    def alike(self) -> tuple[int, ...]:
        """``alike[v]``: the cell of v in ``refine(self)``, with nothing
        fixed.  An automorphism maps v into ``alike[v]``."""
        return cell_of(refine(self), self.n)


def parse_graph(text: str) -> Graph:
    """Parse edge-list text (see the module docstring for the grammar).

    Raises ``ParseError`` naming the offending line on malformed headers,
    headers claiming more than ``PRODUCT_VERTEX_LIMIT`` vertices,
    out-of-range endpoints, self-loops, duplicate edges, or a line count
    that disagrees with the header.
    """
    n = m = -1
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    header_done = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if not header_done:
            if len(parts) != 2:
                raise ParseError(f"line {line_no}: malformed header {line!r}")
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"line {line_no}: malformed header {line!r}") from None
            if n < 0 or m < 0:
                raise ParseError(f"line {line_no}: malformed header {line!r}")
            if n > PRODUCT_VERTEX_LIMIT:
                raise ParseError(
                    f"line {line_no}: header claims {n} vertices (limit {PRODUCT_VERTEX_LIMIT})"
                )
            header_done = True
            continue
        if len(edges) == m:
            raise ParseError(f"line {line_no}: expected {m} edges, found extra line {line!r}")
        if len(parts) != 2:
            raise ParseError(f"line {line_no}: malformed edge {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {line_no}: malformed edge {line!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"line {line_no}: edge endpoint out of range in {line!r}")
        if u == v:
            raise ParseError(f"line {line_no}: self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ParseError(f"line {line_no}: duplicate edge {key[0]} {key[1]}")
        seen.add(key)
        edges.append(key)
    if not header_done:
        raise ParseError("line 1: missing header")
    if len(edges) != m:
        raise ParseError(f"expected {m} edges, found {len(edges)}")
    return Graph.from_edges(n, edges)


def format_edge_list(g: Graph, comments: Sequence[str] = ()) -> str:
    """Serialize a graph to the edge-list format; inverse of ``parse_graph``."""
    lines = [f"# {c}" for c in comments]
    lines.append(f"{g.n} {g.edge_count()}")
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _bfs(adj: Sequence[int], n: int, src: int) -> tuple[list[Optional[int]], list[int]]:
    """Distance row and frontier masks (padded with one empty layer) from ``src``."""
    row: list[Optional[int]] = [UNREACHABLE] * n
    lay = []
    frontier = seen = 1 << src
    d = 0
    while frontier:
        lay.append(frontier)
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            v = low.bit_length() - 1
            row[v] = d
            nxt |= adj[v]
            m ^= low
        frontier = nxt & ~seen
        seen |= frontier
        d += 1
    lay.append(0)
    return row, lay


def distance_matrix(g: Graph) -> DistanceMatrix:
    """Rows and layers from one bitmask-frontier BFS per source."""
    rows = []
    layers = []
    for src in range(g.n):
        row, lay = _bfs(g.adj_masks, g.n, src)
        rows.append(tuple(row))
        layers.append(tuple(lay))
    return DistanceMatrix(g.n, tuple(rows), tuple(layers))


def distance_two_pairs(g: Graph) -> list[tuple[int, int, int]]:
    """(a, b, common) for each pair a < b at distance 2, in lexicographic
    order, with ``common`` the mask of their common neighbours.

    Read from the adjacency masks alone, so it needs no metric and is
    exact on any graph: b is at distance 2 from a exactly when it is not
    a or adjacent to a and some neighbour of a is adjacent to it.
    """
    masks = g.adj_masks
    out = []
    for a, nb in enumerate(g.adj):
        if not nb:
            continue  # no pairs, and the shift below would cost a bits
        near = 0
        for c in nb:
            near |= masks[c]
        ma = masks[a]
        m = near & ~ma & (-2 << a)
        while m:
            low = m & -m
            b = low.bit_length() - 1
            out.append((a, b, ma & masks[b]))
            m ^= low
    return out


def convex_paths(dmat: DistanceMatrix) -> list[tuple[int, ...]]:
    """Pairwise disjoint convex paths of 3 or more vertices, each as its
    vertices from a to b, with a < b: longest first, ties broken by (a, b),
    and each one taken when it shares no vertex with those before it.

    A path P from a to b is convex when it is the only a,b-geodesic, which
    holds exactly when ``between[a][b]`` has d(a, b) - 1 vertices: every
    a,b-geodesic has one vertex in each layer of a between them, so then
    each of those layers holds one vertex of the interval.  Every pair
    x, z of P then has the subpath P[x..z] as its only geodesic: with
    another one, Q, P[a..x] Q P[z..b] would be a second a,b-geodesic.  So
    a mutual-visibility set X holds at most two vertices of P: of three,
    x, y, z in path order, the only x,z-geodesic runs through y, a member.
    Total mutual-visibility and general-position sets are
    mutual-visibility sets, so the bound holds for all three kinds.  For
    connected graphs.
    """
    rows, layers, between = dmat.rows, dmat.layers, dmat.between
    pairs = []
    for a, row in enumerate(rows):
        inner = between[a]
        for b in range(a + 1, dmat.n):
            d = row[b]
            if d is not UNREACHABLE and d >= 2 and inner[b].bit_count() == d - 1:
                pairs.append((-d, a, b))
    pairs.sort()
    used = 0
    out = []
    for neg, a, b in pairs:
        mask = between[a][b] | 1 << a | 1 << b
        if not mask & used:
            used |= mask
            lay = layers[a]
            out.append(tuple((lay[k] & mask).bit_length() - 1 for k in range(1 - neg)))
    return out


def refine(dmat: DistanceMatrix, fixed: int = 0) -> tuple[int, ...]:
    """Colour refinement of the metric with the mask ``fixed`` individualised
    as one colour: the stable cells, as bitmasks in order.

    The first cells are ``fixed`` and the rest.  Each round splits every
    cell by its vertices' counts, at each distance, of the vertices of
    each cell the last round made (the first round counts against both
    first cells), until no cell splits; the pieces keep their cell's place
    and go in the order of their counts.  Nothing in a round reads a
    vertex id, so an automorphism that maps ``fixed`` onto itself maps
    every cell onto itself: a cell never splits an orbit of the set's
    stabilizer.  The converse fails on some regular graphs, so a cell is
    only a superset of an orbit.  For connected graphs.
    """
    n = dmat.n
    # the counts at a vertex's eccentricity follow from the others and the
    # key's length, which grows with it
    inner = [lay[1:-2] for lay in dmat.layers]
    cells = [c for c in (fixed, ((1 << n) - 1) & ~fixed) if c]
    split = cells  # counts against an older cell are even within every cell
    while split and len(cells) < n:
        out = []
        fresh = []
        for cell in cells:
            if not cell & (cell - 1):
                out.append(cell)  # a singleton cannot split
                continue
            pieces: dict = {}
            m = cell
            while m:
                low = m & -m
                m ^= low
                key = tuple([(x & c).bit_count() for x in inner[low.bit_length() - 1] for c in split])
                pieces[key] = pieces.get(key, 0) | low
            if len(pieces) == 1:
                out.append(cell)
            else:
                made = [pieces[key] for key in sorted(pieces)]
                out += made
                fresh += made
        cells, split = out, fresh
    return tuple(cells)


def cell_of(cells: Sequence[int], n: int) -> tuple[int, ...]:
    """The cell of each of the ``n`` vertices, as a mask, from a partition."""
    out = [0] * n
    for c in cells:
        m = c
        while m:
            low = m & -m
            out[low.bit_length() - 1] = c
            m ^= low
    return tuple(out)


def find_automorphism(
    dmat: DistanceMatrix,
    fixed: int,
    src: int,
    dst: int,
    tries: int,
    cells: Optional[Sequence[int]] = None,
) -> Optional[tuple[int, ...]]:
    """An automorphism fixing every vertex of the mask ``fixed``, mapping
    ``src`` to ``dst`` and every vertex into its cell of ``cells``, as an
    image tuple, or None.

    ``cells[v]`` is the mask of the cell holding v, by default ``alike``.
    Cells from ``cell_of(refine(dmat, x), n)`` add the setwise constraint
    that the mask x goes onto itself and the rest onto the rest, and lose
    no automorphism that keeps it.

    For connected graphs.  A bijection that preserves the distance between
    every two vertices preserves adjacency, so the search extends the
    partial map one vertex at a time and keeps, for each unmapped vertex
    w, only the images at the right distance from every image so far
    (``layers[image][d]`` masks), starting from ``cells[w]``.  It branches
    on the vertex with the fewest images left and gives up after ``tries``
    images that leave some vertex without one: None means no automorphism
    was found, not that none exists.
    """
    n = dmat.n
    rows, layers = dmat.rows, dmat.layers
    if cells is None:
        cells = dmat.alike
    if not (cells[src] >> dst) & 1:
        return None
    # dst must keep src's distances to the fixed vertices; check before narrowing
    m = fixed
    while m:
        low = m & -m
        x = low.bit_length() - 1
        if rows[x][src] != rows[x][dst]:
            return None
        m ^= low

    def narrow(cand: list[int], todo: int, u: int, c: int):
        """``cand`` after mapping u to c, and the unmapped vertex with the
        fewest images left, or None when the unmapped vertices cannot all
        get distinct images: some vertex has none, or more vertices than
        images share one candidate set."""
        cand = cand[:]
        row, lay, free = rows[u], layers[c], ~(1 << c)
        sharing: dict[int, int] = {}
        pick, fewest = -1, n + 1
        while todo:
            low = todo & -todo
            w = low.bit_length() - 1
            m = cand[w] & lay[row[w]] & free
            if not m:
                return None
            cand[w] = m
            count = sharing[m] = sharing.get(m, 0) + 1
            size = m.bit_count()
            if count > size:
                return None
            if size < fewest:
                pick, fewest = w, size
            todo ^= low
        return cand, pick

    image = list(range(n))
    cand = list(cells)
    todo = ((1 << n) - 1) & ~fixed
    # never None: each w keeps itself as a candidate, and src keeps dst (checked above)
    m = fixed
    while m:
        low = m & -m
        m ^= low
        cand = narrow(cand, todo, low.bit_length() - 1, low.bit_length() - 1)[0]
    # branch points: (vertex, images not yet tried, candidates, unmapped)
    stack: list[tuple[int, int, list[int], int]] = []
    u, choices = src, 1 << dst
    while True:
        if not choices:
            if not stack:
                return None
            u, choices, cand, todo = stack.pop()
            continue
        low = choices & -choices
        choices ^= low
        c = low.bit_length() - 1
        todo_u = todo & ~(1 << u)
        got = narrow(cand, todo_u, u, c)
        if got is None:
            tries -= 1
            if tries <= 0:
                return None
            continue
        if choices:
            stack.append((u, choices, cand, todo))
        image[u] = c
        if not todo_u:
            return tuple(image)
        cand, u = got
        todo = todo_u
        choices = cand[u]


def is_connected(g: Graph) -> bool:
    """One BFS from vertex 0; K_0 and K_1 count as connected."""
    if g.n <= 1:
        return True
    return UNREACHABLE not in _bfs(g.adj_masks, g.n, 0)[0]


def bridges(g: Graph) -> EdgeList:
    """Cut edges via iterative DFS low-link, sorted lexicographically."""
    n = g.n
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    out: list[tuple[int, int]] = []
    timer = 0
    for root in range(n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack: list[tuple[int, Iterator[int]]] = [(root, iter(g.adj[root]))]
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if disc[w] < 0:
                    parent[w] = v
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, iter(g.adj[w])))
                    advanced = True
                    break
                if w != parent[v] and disc[w] < low[v]:
                    low[v] = disc[w]
            if advanced:
                continue
            stack.pop()
            if stack:
                p = stack[-1][0]
                if low[v] < low[p]:
                    low[p] = low[v]
                if low[v] > disc[p]:
                    out.append((p, v) if p < v else (v, p))
    out.sort()
    return out


def blocked_corner(adj: Sequence[int], y: int, blocked: int) -> bool:
    """Whether two non-adjacent neighbours of y have all of their common
    neighbours in the mask ``blocked``; ``adj`` holds the adjacency masks.

    Such a pair is at distance 2, so its geodesics are the paths through
    one common neighbour, and it is invisible past ``blocked``.  y is a
    common neighbour of every such pair, so this can hold only for y in
    ``blocked``.  Four rules read it:

    * ``simplicial_vertices``: blocking every vertex, y has a corner
      exactly when N(y) is not a clique;
    * ``visibility.convex_p3_centers``: blocking y alone, y is the unique
      common neighbour of some distance-2 pair;
    * ``visibility.neighborhood_lemma_scan``: blocking N[y], N[y] is not
      a mutual-visibility set;
    * tmv ``visibility._joins``: blocking X + y, y is refused (past a
      valid X every refusal shows there).
    """
    open_mask = ~blocked
    m = adj[y]
    while m:
        low = m & -m
        u = low.bit_length() - 1
        m ^= low
        # the later neighbours of y that are not adjacent to u
        far, near_u = m & ~adj[u], adj[u] & open_mask
        while far:
            w = far & -far
            if not near_u & adj[w.bit_length() - 1]:
                return True
            far ^= w
    return False


def simplicial_vertices(g: Graph) -> VertexSet:
    """Vertices whose open neighborhood induces a complete subgraph: no
    corner at v with every vertex blocked (``blocked_corner``)."""
    adj, every = g.adj_masks, (1 << g.n) - 1
    return VertexSet.from_ids(g.n, (v for v in range(g.n) if not blocked_corner(adj, v, every)))


def mcs_order(g: Graph, universe: Iterable[int]) -> list[int]:
    """``universe`` in maximum cardinality search order (Tarjan & Yannakakis
    1984), an order set by the graph rather than by its labelling.

    The first vertex has the least degree and, among those, the largest
    eccentricity; each later one has the most neighbours already placed.
    Remaining ties go to the lowest id.
    """
    adj, layers = g.adj_masks, g.metric.layers
    left = 0
    first = low_deg = high_ecc = -1
    for v in universe:
        left |= 1 << v
        deg, ecc = adj[v].bit_count(), len(layers[v])
        if first < 0 or deg < low_deg or (deg == low_deg and ecc > high_ecc):
            first, low_deg, high_ecc = v, deg, ecc
    if first < 0:
        return []
    order = [first]
    placed = 1 << first
    near = adj[first]
    left ^= placed
    while left:
        # a vertex off the neighbourhood of the placed ones has a count of 0
        most = -1
        m = left & near or left
        while m:
            low = m & -m
            count = (adj[low.bit_length() - 1] & placed).bit_count()
            if count > most:
                pick, most = low, count
            m ^= low
        placed |= pick
        left ^= pick
        v = pick.bit_length() - 1
        near |= adj[v]
        order.append(v)
    return order


def chordal_cliques(g: Graph) -> Optional[list[VertexSet]]:
    """The maximal cliques sorted by member tuple, or None when ``g`` is not
    chordal.

    Call a vertex with its later neighbours in the reverse of
    ``mcs_order`` its clique.  That order is a perfect elimination order
    exactly when ``g`` is chordal, whatever the tie-break of the search
    (Tarjan & Yannakakis 1984): the later neighbours of each vertex v lie
    in the clique of the earliest of them, p.  Every maximal clique is
    then the clique of some vertex (Fulkerson & Gross 1965), and the
    clique of p lies inside another one exactly when it equals the later
    neighbours of such a v.
    """
    order = mcs_order(g, range(g.n))
    adj = g.adj_masks
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    clique = [0] * g.n
    kept = {}
    placed = 0  # the vertices after v in the elimination order
    for v in order:
        later = adj[v] & placed
        if later:
            p = max(VertexSet(g.n, later).members(), key=pos.__getitem__)
            if later & ~clique[p]:
                return None
            if later == clique[p]:
                kept.pop(p, None)
        clique[v] = kept[v] = later | 1 << v
        placed |= 1 << v
    return sorted((VertexSet(g.n, c) for c in kept.values()), key=VertexSet.members)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product; vertex (a, b) is encoded row-major as a*h.n + b."""
    total = g.n * h.n
    if total > PRODUCT_VERTEX_LIMIT:
        raise InstanceTooLargeError(
            f"product would have {total} vertices (limit {PRODUCT_VERTEX_LIMIT})"
        )
    nh = h.n
    adj = []
    for a in range(g.n):
        base = a * nh
        for b in range(h.n):
            row = [base + b2 for b2 in h.adj[b]]
            row.extend(a2 * nh + b for a2 in g.adj[a])
            row.sort()
            adj.append(tuple(row))
    return Graph(total, tuple(adj))


def export_dot(g: Graph, highlight: Iterable[int] = ()) -> str:
    """Graphviz ``graph`` source; highlighted vertices get a fill attribute."""
    marked = 0
    for v in highlight:
        if not (0 <= v < g.n):
            raise ValueError(f"highlight vertex {v} out of range for n={g.n}")
        marked |= 1 << v
    lines = ["graph {"]
    for v in range(g.n):
        if (marked >> v) & 1:
            lines.append(f'  {v} [style=filled, fillcolor="gray80"];')
        else:
            lines.append(f"  {v};")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
