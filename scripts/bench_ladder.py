"""Time the exact mv solvers and greedy profiles on a fixed instance ladder.

Usage: python scripts/bench_ladder.py LABEL

Benchmarks the vislab source tree next to this script and writes
``BENCH_<LABEL>.json`` at the repository root.  Each ladder row is run
three times, and a row whose fastest run is under 0.1 s eight times more,
since such rows drift by 20-40% between two ladders over three runs.  An
exact row records the value, the node count (deterministic) and the
witness; a greedy row records the size range and
the best witness of ``greedy_profile`` over 20 seeds.  Every row records
the median wall time (``time.perf_counter``) and the median rescaled time:
the whole ladder runs inside ``perfbench.hostspeed.HostSpeed``, which
times a fixed reference kernel every 20 ms, and each run's wall time, less
those kernels, is rescaled to the kernel's reference speed.  So two ladders
compare by ``rescaled_s`` even when the shared host's speed moved between
them.  The record also holds the Python version and the CPU count.
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
sys.path.insert(0, ROOT)

from perfbench.hostspeed import HostSpeed  # noqa: E402

from vislab.families import complete, grid, hypercube  # noqa: E402
from vislab.graph_core import Graph, cartesian_product  # noqa: E402
from vislab.rng import permutation  # noqa: E402
from vislab.solvers import greedy_profile, solve_lower, solve_max  # noqa: E402

RUNS = 3
FAST_S = 0.1
FAST_RUNS = 11
RELABEL_SEED = 22
GREEDY_RUNS = 20

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
    ("K5xK6", "max", False),
    ("Q5", "lower", True),
    ("P5xP5", "max", True),
    ("P6xP6", "lower", True),
    ("P6xP6", "max", True),
    ("K5xK5", "max", True),
    ("Q5", "max", True),
)

# (instance, kind); every row is greedy_profile(g, kind, GREEDY_RUNS, seed 0)
GREEDY_LADDER = (
    ("P8xP8", "tmv"),
    ("P8xP8", "mv"),
    ("Q5", "tmv"),
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


def timed(call, name: str) -> tuple:
    """Results of ``call``, which must agree, and their time spans: ``RUNS``
    of them, or ``FAST_RUNS`` when the fastest of those is under ``FAST_S``."""
    results, spans = [], []
    while len(spans) < RUNS or (
        len(spans) < FAST_RUNS
        and min(t1 - t0 for t0, t1 in spans[:RUNS]) < FAST_S
    ):
        t0 = time.perf_counter()
        results.append(call())
        spans.append((t0, time.perf_counter()))
    if any(r != results[0] for r in results[1:]):
        raise RuntimeError(f"{name}: repeated runs disagree")
    return results[0], spans


def run_row(spec: str, variant: str, relabelled: bool) -> tuple:
    g = build(spec)
    if relabelled:
        g = relabel(g)
    solve = solve_max if variant == "max" else solve_lower

    def call():
        res = solve(g, "mv", force=True)
        return res.value, res.nodes, res.witness.members()

    (value, nodes, witness), spans = timed(call, f"{spec} mv {variant}")
    row = {
        "instance": spec,
        "n": g.n,
        "query": f"mv {variant}",
        "relabel_seed": RELABEL_SEED if relabelled else None,
        "value": value,
        "nodes": nodes,
        "witness": list(witness),
    }
    return row, spans


def run_greedy_row(spec: str, kind: str) -> tuple:
    g = build(spec)

    def call():
        prof = greedy_profile(g, kind, runs=GREEDY_RUNS, seed=0)
        return prof.min_size, prof.max_size, prof.best_min_witness.members()

    (lo, hi, witness), spans = timed(call, f"{spec} {kind} greedy")
    row = {
        "instance": spec,
        "n": g.n,
        "query": f"{kind} greedy_profile runs={GREEDY_RUNS} seed=0",
        "min_size": lo,
        "max_size": hi,
        "witness": list(witness),
    }
    return row, spans


def with_times(row: dict, spans: list, speed: HostSpeed) -> dict:
    walls = [t1 - t0 for t0, t1 in spans]
    rescaled = [speed.rescaled(t0, t1) for t0, t1 in spans]
    row["wall_s"] = round(statistics.median(walls), 3)
    row["walls_s"] = [round(w, 3) for w in walls]
    row["rescaled_s"] = round(statistics.median(rescaled), 3)
    row["rescaled_walls_s"] = [round(w, 3) for w in rescaled]
    return row


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    label = argv[0]
    timed_rows = []
    with HostSpeed() as speed:
        for spec, variant, relabelled in LADDER:
            timed_rows.append(run_row(spec, variant, relabelled))
            print(f"{spec} mv {variant} done", file=sys.stderr, flush=True)
        for spec, kind in GREEDY_LADDER:
            timed_rows.append(run_greedy_row(spec, kind))
            print(f"{spec} {kind} greedy done", file=sys.stderr, flush=True)
    # rescale after the last kernel, so every run has kernels on both sides
    rows = [with_times(row, spans, speed) for row, spans in timed_rows]
    for row in rows:
        print(json.dumps(row))
    doc = {
        "label": label,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "runs": RUNS,
        "fast_runs": FAST_RUNS,
        "fast_s": FAST_S,
        "reference_kernel_s": speed.median_s(),
        "rows": rows,
    }
    path = os.path.join(ROOT, f"BENCH_{label}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
