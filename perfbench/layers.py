"""Per-layer metrics from the spans of one traced pass.

Layer of a span = the module part of its name (``cli``, ``graph_core``,
``solvers``, ``visibility``, ``families``; ``bench`` is the benchmark's own
op root).  Self time = duration minus child spans minus the aggregated
``visible_mask`` calls made directly inside the span; those calls count as
visibility self time.  So the self times of one op sum to its root span.
"""

from __future__ import annotations

import statistics

from tracer import PREDICATE_SPANS, SOLVE_SPANS

GENERATE_SPANS = frozenset({
    "families.path", "families.complete", "families.grid", "families.hypercube",
    "families.random_tree", "families.random_block_graph", "graph_core.cartesian_product",
})

# name -> unit; counts first (exact, must repeat), then times and ratios.
COUNT_METRICS = (
    "solvers.nodes",
    "visibility.visible_mask_calls",
    "graph_core.distance_matrix_calls",
    "visibility.revalidate_calls",
    "visibility.predicate_calls",
)
UNITS = {
    "solvers.nodes": "count",
    "solvers.nodes_per_s": "1/s",
    "solvers.self_s": "s",
    "solvers.fast_path_ratio": "ratio",
    "visibility.visible_mask_calls": "count",
    "visibility.visible_mask_s": "s",
    "visibility.visible_mask_per_node": "ratio",
    "visibility.revalidate_calls": "count",
    "visibility.revalidate_s": "s",
    "visibility.predicate_calls": "count",
    "visibility.predicate_s": "s",
    "graph_core.distance_matrix_calls": "count",
    "graph_core.distance_matrix_s": "s",
    "graph_core.bridges_s": "s",
    "graph_core.parse_graph_s": "s",
    "cli.self_s": "s",
    "families.generate_s": "s",
}

SELF_TIME_TOLERANCE = 0.05  # share of the loop-measured traced op time


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def pass_report(spans, op_time_s: float) -> dict:
    """Counts, times and the self-time check for one traced pass."""
    counts = dict.fromkeys(COUNT_METRICS, 0)
    times = dict.fromkeys(
        ("solvers.self_s", "visibility.visible_mask_s", "visibility.revalidate_s",
         "visibility.predicate_s", "graph_core.distance_matrix_s", "graph_core.bridges_s",
         "graph_core.parse_graph_s", "cli.self_s", "solve_span_s"),
        0.0,
    )
    layer_self = {}
    mv_lower = fast = 0
    solve_vm_calls = 0
    per_op_nodes = {}
    self_sum = root_sum = 0.0
    negative = 0
    for span in spans:
        name = span.name
        own = span.self_s
        self_sum += own
        if own < -1e-7:
            negative += 1
        layer = layer_of(name)
        layer_self[layer] = layer_self.get(layer, 0.0) + own
        # aggregated visible_mask calls: visibility self time with no span
        self_sum += span.leaf_s
        layer_self["visibility"] = layer_self.get("visibility", 0.0) + span.leaf_s
        counts["visibility.visible_mask_calls"] += span.leaf_calls
        times["visibility.visible_mask_s"] += span.leaf_s
        if span.in_solve:
            solve_vm_calls += span.leaf_calls
        if name == "bench.op":
            root_sum += span.duration
        elif name in SOLVE_SPANS:
            meta = span.meta
            counts["solvers.nodes"] += meta["nodes"]
            per_op_nodes[span.op] = per_op_nodes.get(span.op, 0) + meta["nodes"]
            times["solve_span_s"] += span.duration
            if name == "solvers.solve_lower" and meta["kind"] == "mv":
                mv_lower += 1
                fast += meta["fast_path"] is not None
        elif name in PREDICATE_SPANS and not span.in_predicate:
            which = "revalidate" if span.in_solve else "predicate"
            counts[f"visibility.{which}_calls"] += 1
            times[f"visibility.{which}_s"] += span.duration
        elif name == "graph_core.distance_matrix":
            counts["graph_core.distance_matrix_calls"] += 1
            times["graph_core.distance_matrix_s"] += span.duration
        elif name == "graph_core.bridges":
            times["graph_core.bridges_s"] += span.duration
        elif name == "graph_core.parse_graph":
            times["graph_core.parse_graph_s"] += span.duration
        if layer == "solvers":
            times["solvers.self_s"] += own
        elif name == "cli.run":
            times["cli.self_s"] += own
    self_ok = (
        negative == 0
        and abs(self_sum - root_sum) <= 1e-9 * max(1, len(spans))
        and abs(self_sum - op_time_s) <= SELF_TIME_TOLERANCE * op_time_s
    )
    return {
        "counts": counts,
        "times": times,
        "layer_self_s": layer_self,
        "mv_lower_solves": mv_lower,
        "fast_paths": fast,
        "solve_visible_mask_calls": solve_vm_calls,
        "per_op_nodes": per_op_nodes,
        "self_sum_s": self_sum,
        "op_sum_s": op_time_s,
        "self_time_ok": self_ok,
    }


def generate_seconds(setup_spans) -> float:
    return sum(
        s.duration for s in setup_spans
        if s.name in GENERATE_SPANS and (s.parent is None or s.parent.name not in GENERATE_SPANS)
    )


def per_layer_metrics(reports, setup_spans) -> dict:
    """Exact counts from the first traced pass; times are medians over passes."""
    first = reports[0]
    out = {name: (first["counts"][name], UNITS[name]) for name in COUNT_METRICS}

    def med(key):
        return statistics.median(r["times"][key] for r in reports)

    nodes = first["counts"]["solvers.nodes"]
    solve_s = med("solve_span_s")
    out["solvers.nodes_per_s"] = (nodes / solve_s if solve_s else 0.0, "1/s")
    out["solvers.self_s"] = (med("solvers.self_s"), "s")
    mv_lower = first["mv_lower_solves"]
    out["solvers.fast_path_ratio"] = (first["fast_paths"] / mv_lower if mv_lower else 0.0, "ratio")
    out["visibility.visible_mask_s"] = (med("visibility.visible_mask_s"), "s")
    out["visibility.visible_mask_per_node"] = (
        first["solve_visible_mask_calls"] / nodes if nodes else 0.0, "ratio")
    for key in ("visibility.revalidate_s", "visibility.predicate_s", "graph_core.distance_matrix_s",
                "graph_core.bridges_s", "graph_core.parse_graph_s", "cli.self_s"):
        out[key] = (med(key), UNITS[key])
    out["families.generate_s"] = (generate_seconds(setup_spans), "s")
    return {name: out[name] for name in list(UNITS) if name in out}


def baseline_lines(workload, report) -> list:
    """Seed-0 comparison of the exact counts with the recorded baseline.

    Informational: a change that alters the search legitimately moves the
    counts, so a difference is reported but is not a failed check.
    """
    if workload.seed != 0:
        return ["baseline counts are recorded for seed 0 only"]
    lines = []
    want = workload.golden.get("counts")
    if want is not None:
        got = {k: report["counts"][k] for k in want}
        verdict = "match" if got == want else "differ"
        lines.append(f"baseline exact counts {verdict}: got {got}, recorded {want}")
    for op_index, (label, nodes) in workload.golden.get("roadmap_nodes", {}).items():
        got = report["per_op_nodes"].get(int(op_index))
        verdict = "match" if got == nodes else "differ"
        lines.append(f"baseline nodes {label} {verdict}: got {got}, ROADMAP {nodes}")
    return lines
