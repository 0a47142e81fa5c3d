"""Time the exact mv solvers on a fixed ladder of instances.

Usage: python scripts/bench_ladder.py LABEL

Benchmarks the vislab source tree next to this script and writes
``BENCH_<LABEL>.json`` at the repository root.  Each ladder row is solved
three times; the record holds the value, the node count (deterministic)
and the median wall time (``time.perf_counter``), together with the
Python version and the CPU count of the machine.  Run it on two checkouts
with the same machine state to compare them.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from vislab.families import complete, grid, hypercube  # noqa: E402
from vislab.graph_core import Graph, cartesian_product  # noqa: E402
from vislab.rng import permutation  # noqa: E402
from vislab.solvers import solve_lower, solve_max  # noqa: E402

RUNS = 3
RELABEL_SEED = 22

# (instance, variant, relabelled); every row is an mv query run with force
LADDER = (
    ("K4xK5", "lower", False),
    ("K4xK6", "lower", False),
    ("K4xK6", "max", False),
    ("P5xP5", "max", False),
    ("P6xP6", "max", False),
    ("K5xK5", "lower", False),
    ("Q5", "lower", False),
    ("Q5", "max", False),
    ("K5xK5", "max", False),
    ("Q5", "lower", True),
    ("P6xP6", "lower", True),
    ("P6xP6", "max", True),
    ("K5xK5", "max", True),
    ("Q5", "max", True),
)


def build(spec: str) -> Graph:
    if spec[0] == "Q":
        return hypercube(int(spec[1:]))
    a, b = (int(part[1:]) for part in spec.split("x"))
    if spec[0] == "P":
        return grid((a, b))
    return cartesian_product(complete(a), complete(b))


def relabel(g: Graph) -> Graph:
    perm = permutation(g.n, RELABEL_SEED)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def run_row(spec: str, variant: str, relabelled: bool) -> dict:
    g = build(spec)
    if relabelled:
        g = relabel(g)
    solve = solve_max if variant == "max" else solve_lower
    walls, results = [], []
    for _ in range(RUNS):
        t0 = time.perf_counter()
        res = solve(g, "mv", force=True)
        walls.append(time.perf_counter() - t0)
        results.append((res.value, res.nodes, res.witness.members()))
    if any(r != results[0] for r in results[1:]):
        raise RuntimeError(f"{spec} mv {variant}: repeated solves disagree")
    value, nodes, witness = results[0]
    return {
        "instance": spec,
        "n": g.n,
        "query": f"mv {variant}",
        "relabel_seed": RELABEL_SEED if relabelled else None,
        "value": value,
        "nodes": nodes,
        "witness": list(witness),
        "wall_s": round(statistics.median(walls), 3),
        "walls_s": [round(w, 3) for w in walls],
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    label = argv[0]
    rows = []
    for spec, variant, relabelled in LADDER:
        row = run_row(spec, variant, relabelled)
        print(json.dumps(row), flush=True)
        rows.append(row)
    doc = {
        "label": label,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "runs": RUNS,
        "rows": rows,
    }
    path = os.path.join(ROOT, f"BENCH_{label}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
