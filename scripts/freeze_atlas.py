#!/usr/bin/env python3
"""Freeze the connected graphs of the networkx graph atlas into tests/data.

Usage: python scripts/freeze_atlas.py

One-off: needs networkx, which neither vislab nor its tests import.  The
atlas ("An Atlas of Graphs", Read & Wilson 1998) lists every graph with
at most 7 vertices up to isomorphism; the 996 connected ones with at
least one vertex are written to ``tests/data/atlas_connected.txt``, one
graph per line: the atlas index, the vertex count, then each edge as
``u-v``.
"""

import os

import networkx as nx

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "tests", "data", "atlas_connected.txt")


def main() -> None:
    lines = []
    for index, h in enumerate(nx.graph_atlas_g()):
        if h.number_of_nodes() == 0 or not nx.is_connected(h):
            continue
        edges = sorted(tuple(sorted(e)) for e in h.edges())
        lines.append(" ".join([str(index), str(h.number_of_nodes())] + [f"{u}-{v}" for u, v in edges]))
    with open(OUT, "w", encoding="utf-8") as handle:
        handle.write("# connected graphs of the networkx graph atlas: index n u-v ...\n")
        handle.write("\n".join(lines) + "\n")
    print(f"{len(lines)} graphs -> {OUT}")


if __name__ == "__main__":
    main()
