#!/usr/bin/env python3
"""Write the golden answers the benchmark checks against, for seed 0.

    python3 perfbench/make_goldens.py

Run from the repository root.  Each answer is checked once against a
reference that does not depend on the code being measured, before it is
written:

* mv-search: the values against closed forms.  mv max of K_m x K_n is the
  Zarankiewicz number z(m,n;2,2) (K3xK5 = 8, K4xK6 = 12), mv lower of
  K_m x K_n is m+n-1, and mv max of P5xP5 is 10.  The remaining values
  (P4xP6, P4xP5, Q4) have no closed form here and are recorded as solved.
* small-sweep: value and canonical witness against the brute-force
  oracles in ``tests/oracles.py``.  Maximality there means "no valid
  proper superset", evaluated over the full table of valid subsets.
  Answers of the mv cut-edge fast path are the exception noted in
  ``small_sweep`` below.
* greedy-wide: every witness revalidated with ``is_maximal_set``.

The exact counts of a traced seed-0 pass are recorded too, for the
informational baseline comparison of traced runs.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402

# Closed forms: z(m,n;2,2) for mv max on K_m x K_n, m+n-1 for mv lower.
ZARANKIEWICZ = {(3, 5): 8, (4, 6): 12}
GRID_MV_MAX = {"P5xP5": 10}
# Search-node baseline from ROADMAP.md (mv, seed 0 = identity labelling).
ROADMAP_NODES = {("K4xK5", "lower"): 175987, ("K4xK6", "max"): 264349, ("P5xP5", "max"): 47301}


def closed_form(spec: str, variant: str):
    if spec.startswith("K"):
        m, n = (int(part[1:]) for part in spec.split("x"))
        return ZARANKIEWICZ.get((m, n)) if variant == "max" else m + n - 1
    if variant == "max":
        return GRID_MV_MAX.get(spec)
    return None


def traced_counts(wl) -> tuple[dict, dict]:
    tracer = Tracer(run.package_modules(wl.vl))
    tracer.install()
    try:
        _, lat, _ = run.run_pass(wl.ops(0), tracer)
    finally:
        tracer.uninstall()
    report = layers.pass_report(tracer.spans, sum(lat))
    if not report["self_time_ok"]:
        raise SystemExit("self-time check failed while recording counts")
    counts = {k: report["counts"][k] for k in
              ("solvers.nodes", "visibility.visible_mask_calls", "graph_core.distance_matrix_calls")}
    return counts, report["per_op_nodes"]


def mv_search(vl) -> dict:
    queries = {}
    for qi, (spec, variant, force) in enumerate(W.MV_QUERIES):
        g = W.build_named(vl, spec)
        text = vl.graph_core.format_edge_list(g)
        stdout = io.StringIO()
        code = vl.cli.run(W.MvSearch.argv(variant, force), stdin=io.StringIO(text),
                          stdout=stdout, stderr=io.StringIO())
        out = stdout.getvalue()
        if code != 0:
            raise SystemExit(f"{spec} {variant}: exit {code}")
        value = int(out.splitlines()[0].split()[1])
        want = closed_form(spec, variant)
        if want is not None and value != want:
            raise SystemExit(f"{spec} mv {variant} = {value}, closed form says {want}")
        print(f"mv-search {spec} {variant}: value {value}"
              + (f" (closed form {want})" if want is not None else " (no closed form)"))
        queries[f"{spec}/{variant}"] = {"value": value, "stdout": out}
    return {"queries": queries}


def oracle_answers(oracles, g) -> tuple[dict, dict]:
    """Brute-force max and lower answers for all three kinds.

    Returns the canonical answers and, per kind, the set of maximal masks.
    """
    cache = {}
    original = oracles.all_geodesics

    def geodesics(h, u, v):
        key = (u, v)
        if key not in cache:
            cache[key] = original(h, u, v)
        return cache[key]

    oracles.all_geodesics = geodesics
    try:
        answers, maximal_sets = {}, {}
        n = g.n
        full = 1 << n
        members = [tuple(v for v in range(n) if mask >> v & 1) for mask in range(full)]
        for kind in W.KINDS:
            valid = [oracles.valid_oracle(g, ids, kind) for ids in members]
            # above[mask]: some proper superset of mask is valid
            above = [False] * full
            for mask in range(full - 1, -1, -1):
                rest = (full - 1) & ~mask
                while rest:
                    bit = rest & -rest
                    if valid[mask | bit] or above[mask | bit]:
                        above[mask] = True
                        break
                    rest ^= bit
            best = max(len(members[m]) for m in range(full) if valid[m])
            answers[f"{kind}/max"] = [best, list(min(members[m] for m in range(full)
                                                     if valid[m] and len(members[m]) == best))]
            maximal = [m for m in range(full) if valid[m] and not above[m]]
            low = min(len(members[m]) for m in maximal)
            answers[f"{kind}/lower"] = [low, list(min(members[m] for m in maximal
                                                      if len(members[m]) == low))]
            maximal_sets[kind] = {members[m] for m in maximal}
        return answers, maximal_sets
    finally:
        oracles.all_geodesics = original


def small_sweep(vl) -> dict:
    """Library answers, checked against the oracles.

    The mv cut-edge fast path answers with the endpoints of the first
    bridge, which is a minimum maximal set but not always the
    lexicographically smallest one.  Such answers are checked for value and
    oracle maximality, and the oracle's canonical witness is stored beside
    them as ``canonical`` so that either witness passes the benchmark check.
    """
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    import oracles

    graphs = []
    non_canonical = []
    t0 = time.perf_counter()
    for gi, g in enumerate(W.sweep_corpus(vl)):
        reference, maximal_sets = oracle_answers(oracles, g)
        answers, canonical = {}, {}
        for kind, variant in W.SWEEP_QUERIES:
            key = f"{kind}/{variant}"
            solve = vl.solve_max if variant == "max" else vl.solve_lower
            res = solve(g, kind)
            got = [res.value, list(res.witness.members())]
            answers[key] = got
            if got == reference[key]:
                continue
            if (res.fast_path is None or got[0] != reference[key][0]
                    or tuple(got[1]) not in maximal_sets[kind]):
                raise SystemExit(f"graph {gi} {key}: library {got} != oracle {reference[key]}")
            canonical[key] = reference[key][1]
            non_canonical.append(f"graph {gi} {key}: fast path {got[1]}, canonical {reference[key][1]}")
        entry = {"graph": W.edge_key(g), "answers": answers}
        if canonical:
            entry["canonical"] = canonical
        graphs.append(entry)
    print(f"small-sweep: {len(graphs)} graphs x {len(W.SWEEP_QUERIES)} queries agree with "
          f"the oracles ({time.perf_counter() - t0:.0f} s)")
    print(f"small-sweep: {len(non_canonical)} fast-path witnesses are maximal and of optimal "
          "size but not the canonical (lexicographically smallest) one:")
    for line in non_canonical:
        print("  " + line)
    return {"corpus_seed": W.SWEEP_CORPUS_SEED, "graphs": graphs}


def greedy_wide(vl) -> dict:
    answers = {}
    for spec in W.GREEDY_GRAPHS:
        g = W.build_named(vl, spec)
        for kind in W.KINDS:
            for s in range(W.GREEDY_SEEDS_PER_QUERY):
                prof = vl.greedy_profile(g, kind, runs=1, seed=s)
                x = prof.best_min_witness
                if not vl.visibility.is_maximal_set(g, x, kind):
                    raise SystemExit(f"{spec} {kind} seed {s}: greedy witness not maximal")
                answers[f"{spec}/{kind}/{s}"] = [prof.min_size, list(x.members())]
    print(f"greedy-wide: {len(answers)} greedy answers revalidated")
    return {"answers": answers}


GOLDEN_MAKERS = {"mv-search": mv_search, "small-sweep": small_sweep, "greedy-wide": greedy_wide}


def main() -> int:
    vl = run.import_vislab()
    os.makedirs(W.GOLDEN_DIR, exist_ok=True)
    for name in sorted(GOLDEN_MAKERS):
        golden = GOLDEN_MAKERS[name](vl)
        # the workload loads its goldens from the file, so write them first
        with open(W.golden_path(name), "w", encoding="utf-8") as handle:
            json.dump(golden, handle, sort_keys=True)
        wl = W.WORKLOADS[name](vl, 0)
        counts, per_op_nodes = traced_counts(wl)
        golden["counts"] = counts
        if name == "mv-search":
            golden["roadmap_nodes"] = {}
            for qi, (spec, variant, _) in enumerate(W.MV_QUERIES):
                want = ROADMAP_NODES.get((spec, variant))
                if want is None:
                    continue
                if per_op_nodes[qi] != want:
                    raise SystemExit(f"{spec} mv {variant}: {per_op_nodes[qi]} nodes, ROADMAP {want}")
                golden["roadmap_nodes"][str(qi)] = [f"{spec}/{variant}", want]
        print(f"{name}: exact counts {counts}")
        with open(W.golden_path(name), "w", encoding="utf-8") as handle:
            json.dump(golden, handle, sort_keys=True, indent=0)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
