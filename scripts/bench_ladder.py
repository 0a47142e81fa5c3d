"""Time the exact solvers and greedy profiles on a fixed instance ladder.

Usage: python scripts/bench_ladder.py LABEL | --counts

Benchmarks the vislab source tree next to this script and writes
``BENCH_<LABEL>.json`` at the repository root.  LABEL is letters, digits,
``_``, ``.`` and ``-``, not starting with ``-``; ``-h`` or ``--help``
prints the usage line.  ``--counts`` times nothing: it rewrites the
counts ledger ``tests/data/counts.tsv``, one tab-separated line per
``ledger()`` row (instance, kind, variant, value, witness, nodes,
skipped, pruned), which ``tests/test_scripts.py`` recomputes.  Each
ladder row is run three times, and a row whose fastest run is under
0.1 s eight times more,
since such rows drift by 20-40% between two ladders over three runs.  An
exact row records the value, the node count, the children skipped by
symmetry and the branches pruned (all deterministic) and the witness; a
greedy row records the size range and the best witness of
``greedy_profile`` over 20 seeds; the ``independent_domination`` row
records the summed values, nodes, skipped children and pruned sets over
its corpus: the 996 connected atlas graphs with at
most 7 vertices (``tests/data/atlas_connected.txt``), 204 connected
G(n, p) draws (n = 8..24, p = 0.2, 0.35, 0.5 and 0.65, three draws
each) and six named graphs.  Every run solves a new copy of each graph,
so it builds the metric as one ``vislab solve`` does (``Graph.metric``
is kept per graph object).  Every row records the median wall time
(``time.perf_counter``) and the median rescaled time: the whole ladder
runs inside ``perfbench.hostspeed.HostSpeed``, which
times a fixed reference kernel every 20 ms, and each run's wall time, less
those kernels, is rescaled to the kernel's reference speed.  So two ladders
compare by ``rescaled_s`` even when the shared host's speed moved between
them.  The record also holds the Python version and the CPU count.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "tests"))

from atlas import build, load_atlas, sweep_graphs  # noqa: E402
from perfbench.hostspeed import HostSpeed  # noqa: E402

from vislab.families import star  # noqa: E402
from vislab.graph_core import Graph  # noqa: E402
from vislab.solvers import (  # noqa: E402
    greedy_profile,
    independent_domination,
    solve_lower,
    solve_max,
)

RUNS = 3
FAST_S = 0.1
FAST_RUNS = 11
GREEDY_RUNS = 20

# (instance, kind, variant); every row is run with force.
# Instances are ``atlas.build`` names: ``G<n>-<p>-<s>`` is
# theorems._draw_connected(SplitMix64(1000 n + s), n, p), as in the dense
# lower queries of ROADMAP.md, ``B<n>-<b>-<s>`` is random_block_graph(n,
# b, s), ``K<s>chain<k>`` is k copies of K_s glued in a path at cut
# vertices, and ``@<s>`` relabels by permutation(n, s).
LADDER = (
    ("K4xK5", "mv", "lower"),
    ("K4xK6", "mv", "lower"),
    ("K4xK6", "mv", "max"),
    ("P5xP5", "mv", "max"),
    ("P6xP6", "mv", "max"),
    ("P4xP6", "mv", "max"),
    ("P4xP6@22", "mv", "max"),
    ("K5xK5", "mv", "lower"),
    ("Q5", "mv", "lower"),
    ("Q5", "mv", "max"),
    ("K5xK5", "mv", "max"),
    ("K5xK6", "mv", "max"),
    ("Q5@22", "mv", "lower"),
    ("P5xP5@22", "mv", "max"),
    ("P6xP6@22", "mv", "lower"),
    ("P6xP6@22", "mv", "max"),
    ("K5xK5@22", "mv", "max"),
    ("Q5@22", "mv", "max"),
    ("K3xK5", "mv", "lower"),
    ("K4xK4", "mv", "lower"),
    ("Q4", "mv", "lower"),
    ("G22-0.6-1", "mv", "lower"),
    ("G22-0.6-1", "tmv", "lower"),
    ("G24-0.5-1", "mv", "lower"),
    ("G24-0.5-1", "tmv", "lower"),
    ("G22-0.6-0", "mv", "lower"),
    ("G22-0.6-0", "tmv", "lower"),
    ("G24-0.5-0", "mv", "lower"),
    ("G24-0.5-0", "tmv", "lower"),
    # the gp engine, on its slowest rows of these instances
    ("K5xK6", "gp", "lower"),
    ("Q5", "gp", "max"),
    ("P6xP6", "gp", "max"),
    # baselines of open ROADMAP items: mv lower at diameter 3 (item 10),
    # mv max on a large clique product in the identity labelling (item 2)
    ("G24-0.5-2", "mv", "lower"),
    ("K6xK6", "mv", "max"),
    # sparse graphs, where gp lower once walked down from a near-maximum
    # maximal set (ROADMAP item 18): two block graphs with gp⁻ = 2, and
    # two clique chains in the labelling @1, with gp⁻ = 4 and 3
    ("B120-10-1", "gp", "lower"),
    ("B240-6-1", "gp", "lower"),
    ("K4chain10@1", "gp", "lower"),
    ("K3chain20@1", "gp", "lower"),
    ("B240-6-1", "gp", "max"),
)

# the exact rows of over 0.5 s, which the counts ledger leaves to the ladder
SLOW = (
    ("Q5", "mv", "max"),
    ("Q5@22", "mv", "max"),
    ("G24-0.5-2", "mv", "lower"),
    ("K6xK6", "mv", "max"),
    ("B240-6-1", "gp", "max"),
)
COUNTS = os.path.join(ROOT, "tests", "data", "counts.tsv")
COUNT_FIELDS = ("instance", "kind", "variant", "value", "witness", "nodes", "skipped", "pruned")

# (instance, kind); every row is greedy_profile(g, kind, GREEDY_RUNS, seed 0)
GREEDY_LADDER = (
    ("P8xP8", "tmv"),
    ("P8xP8", "mv"),
    ("P8xP8", "gp"),
    ("Q5", "tmv"),
    ("Q5", "mv"),
    ("Q5", "gp"),
)


def fresh(g: Graph) -> Graph:
    """A new object of the graph ``g``, with no metric built yet."""
    return Graph(g.n, g.adj)


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


def run_row(spec: str, kind: str, variant: str) -> tuple:
    g = build(spec)
    solve = solve_max if variant == "max" else solve_lower

    def call():
        res = solve(fresh(g), kind, force=True)
        return res.value, res.nodes, res.skipped, res.pruned, res.witness.members()

    (value, nodes, skipped, pruned, witness), spans = timed(call, f"{spec} {kind} {variant}")
    row = {
        "instance": spec,
        "n": g.n,
        "query": f"{kind} {variant}",
        "value": value,
        "nodes": nodes,
        "skipped": skipped,
        "pruned": pruned,
        "witness": list(witness),
    }
    return row, spans


def ledger() -> list[tuple]:
    """The rows of the counts ledger, as ``LADDER`` rows: the exact
    ``LADDER`` rows but ``SLOW``; tmv and gp, max and lower, on every
    ladder instance but K6xK6, again but ``SLOW``; and the six queries of
    the small-sweep benchmark on each graph of its corpus
    (``sweep<i>``)."""
    rows = [row for row in LADDER if row not in SLOW]
    for spec in dict.fromkeys(row[0] for row in LADDER):
        if spec != "K6xK6":
            for kind in ("tmv", "gp"):
                for variant in ("max", "lower"):
                    row = (spec, kind, variant)
                    if row not in rows and row not in SLOW:
                        rows.append(row)
    for i in range(len(sweep_graphs())):
        for kind in ("mv", "tmv", "gp"):
            for variant in ("max", "lower"):
                rows.append((f"sweep{i}", kind, variant))
    return rows


def count_line(spec: str, kind: str, variant: str) -> str:
    """The ledger line of a ``LADDER`` row, its ``COUNT_FIELDS`` joined by
    tabs; an empty witness is ``-``."""
    res = (solve_max if variant == "max" else solve_lower)(fresh(build(spec)), kind, force=True)
    fields = (
        spec, kind, variant, res.value, ",".join(map(str, res.witness.members())) or "-",
        res.nodes, res.skipped, res.pruned,
    )
    return "\t".join(map(str, fields))


def write_counts() -> None:
    with open(COUNTS, "w", encoding="utf-8") as handle:
        handle.write("# " + "\t".join(COUNT_FIELDS) + "\n")
        for row in ledger():
            handle.write(count_line(*row) + "\n")


def domination_corpus() -> list[Graph]:
    """The ``independent_domination`` row's 1,206 connected graphs."""
    graphs = [g for _, g in load_atlas(range(1, 8))]
    for n in range(8, 25):
        for p in (0.2, 0.35, 0.5, 0.65):
            for s in range(3):
                graphs.append(build(f"G{n}-{p}-{s}"))
    graphs += [build("P24"), build("C24"), star(23), build("P4xP6"), build("Q4"), build("K4xK6")]
    return graphs


def run_domination_row() -> tuple:
    graphs = domination_corpus()

    def call():
        total = nodes = skipped = pruned = 0
        for g in graphs:
            res = independent_domination(fresh(g))
            total, nodes = total + res.value, nodes + res.nodes
            skipped, pruned = skipped + res.skipped, pruned + res.pruned
        return total, nodes, skipped, pruned

    (total, nodes, skipped, pruned), spans = timed(call, "independent_domination corpus")
    row = {
        "instance": f"atlas+{len(graphs) - 996}",
        "n": len(graphs),
        "query": "independent_domination, summed over the corpus",
        "value": total,
        "nodes": nodes,
        "skipped": skipped,
        "pruned": pruned,
    }
    return row, spans


def run_greedy_row(spec: str, kind: str) -> tuple:
    g = build(spec)

    def call():
        prof = greedy_profile(fresh(g), kind, runs=GREEDY_RUNS, seed=0)
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
    """``row`` with its walls and rescaled walls, and their medians, in
    seconds to the microsecond: the fastest greedy rows take a few ms."""
    walls = [t1 - t0 for t0, t1 in spans]
    rescaled = [speed.rescaled(t0, t1) for t0, t1 in spans]
    row["wall_s"] = round(statistics.median(walls), 6)
    row["walls_s"] = [round(w, 6) for w in walls]
    row["rescaled_s"] = round(statistics.median(rescaled), 6)
    row["rescaled_walls_s"] = [round(w, 6) for w in rescaled]
    return row


def main(argv: list[str]) -> int:
    usage = __doc__.strip().splitlines()[2]
    if argv in (["-h"], ["--help"]):
        print(usage)
        return 0
    if argv == ["--counts"]:
        write_counts()
        return 0
    if len(argv) != 1 or not re.fullmatch(r"[A-Za-z0-9_.][A-Za-z0-9_.-]*", argv[0]):
        print(usage, file=sys.stderr)
        return 2
    label = argv[0]
    timed_rows = []
    with HostSpeed() as speed:
        for spec, kind, variant in LADDER:
            timed_rows.append(run_row(spec, kind, variant))
            print(f"{spec} {kind} {variant} done", file=sys.stderr, flush=True)
        for spec, kind in GREEDY_LADDER:
            timed_rows.append(run_greedy_row(spec, kind))
            print(f"{spec} {kind} greedy done", file=sys.stderr, flush=True)
        timed_rows.append(run_domination_row())
        print("independent_domination done", file=sys.stderr, flush=True)
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
