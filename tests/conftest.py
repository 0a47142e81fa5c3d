from itertools import combinations

import pytest
from hypothesis import strategies as st

from vislab.families import (
    complete,
    complete_bipartite,
    cycle,
    grid,
    path,
    star,
)
from vislab.graph_core import Graph, is_connected


@st.composite
def graphs(draw, min_n=1, max_n=6):
    """Arbitrary simple graph: vertex count plus an edge-subset mask."""
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    edges = [p for i, p in enumerate(pairs) if (mask >> i) & 1]
    return Graph.from_edges(n, edges)


def labelled_graphs(max_n):
    """Every labelled simple graph with 1 to ``max_n`` vertices, by vertex
    count and then by edge-subset mask."""
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield Graph.from_edges(n, [p for i, p in enumerate(pairs) if (mask >> i) & 1])


def connected_graphs(min_n=1, max_n=6):
    return graphs(min_n=min_n, max_n=max_n).filter(is_connected)


def bowtie() -> Graph:
    return Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


@pytest.fixture(scope="session")
def battery():
    """Small connected instances the exact solvers get compared with the
    subset-enumeration oracles on."""
    return [
        ("K1", complete(1)),
        ("P2", path(2)),
        ("P4", path(4)),
        ("P5", path(5)),
        ("C4", cycle(4)),
        ("C5", cycle(5)),
        ("C6", cycle(6)),
        ("K4", complete(4)),
        ("star-3", star(3)),
        ("K{2,3}", complete_bipartite(2, 3)),
        ("bowtie", bowtie()),
        ("P2xP3", grid((2, 3))),
    ]
