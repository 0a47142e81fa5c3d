#!/usr/bin/env python3
"""vislab benchmark: one seeded workload, measured end to end or traced.

    python3 perfbench/run.py --workload mv-search --seed 0 --seconds 18 --trace 0

Run from the repository root; vislab is imported from ``src/``.  The loop
is closed, single process and single threaded: one caller, and each op
starts when the previous one returns.

``--trace 0`` sets up the workload several times back to back (``setup_s``
is the median), then repeats timed passes over its ops for at least
``--seconds`` and prints the end-to-end metrics.  Their times are rescaled
to a reference host speed, measured by a fixed kernel timed throughout the
run (``hostspeed.py``); the measured figures are printed beside them.
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics from the spans (see ``tracer.py``).  Every answer is
checked after its pass, outside the timed region.  The last line of stdout
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines above it name every metric with its unit, the
environment and the checks.
"""

from __future__ import annotations

import argparse
import array
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

from hostspeed import REF_SECONDS, WINDOW_S, HostSpeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

SETUP_REPEATS = 15
MAX_REPEATS = 16  # latency samples kept per op input


def import_vislab():
    """Fresh import of the vislab package under ``src/`` (with ``cli``)."""
    for name in [m for m in sys.modules if m == "vislab" or m.startswith("vislab.")]:
        del sys.modules[name]
    vl = importlib.import_module("vislab")
    importlib.import_module("vislab.cli")
    if os.path.dirname(os.path.abspath(vl.__file__)) != os.path.join(SRC, "vislab"):
        raise ImportError(f"vislab imported from {vl.__file__}, not from {SRC}")
    return vl


def package_modules(vl) -> dict:
    mods = {"": vl}
    for name in ("cli", "families", "graph_core", "solvers", "visibility"):
        mods[name] = getattr(vl, name)
    return mods


def environment(args) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- passes ------------------------------------------------------------------


def run_pass(ops, tracer=None):
    """Run one pass; returns (start, [(op start, op end)], outputs)."""
    clock = time.perf_counter
    spans = []
    outs = []
    start = clock()
    for index, (key, call) in enumerate(ops):
        t0 = clock()
        try:
            out = call() if tracer is None else tracer.run_op(index, call)
        except Exception as exc:  # a failed op is counted, and the loop goes on
            out = ("raised", f"{type(exc).__name__}: {exc}")
        spans.append((t0, clock()))
        outs.append(out)
    return start, spans, outs


def rescale(speed, start, spans):
    """(pass wall, per-op seconds) less the kernels, at the reference speed."""
    wall = 0.0
    lat = []
    prev = start
    for t0, t1 in spans:
        slowness = speed.slowness(t0, t1)
        lat.append((t1 - t0 - speed.kernel_s(t0, t1)) / slowness)
        wall += (t1 - prev - speed.kernel_s(prev, t1)) / slowness
        prev = t1
    return wall, lat


class Checker:
    """Checks each distinct op input once; later passes must repeat the output."""

    def __init__(self, workload):
        self.workload = workload
        self.seen = {}
        self.attempted = 0
        self.failed = 0
        self.examples = []

    def check_pass(self, ops, outs) -> None:
        for (key, _), out in zip(ops, outs):
            self.attempted += 1
            if key in self.seen:
                ok = self.seen[key] is not None and out == self.seen[key]
            else:
                ok = not (isinstance(out, tuple) and out[:1] == ("raised",))
                ok = ok and self.workload.check(key, out)
                self.seen[key] = out if ok else None
            if not ok:
                self.failed += 1
                if len(self.examples) < 5:
                    self.examples.append(f"{key!r}: {out!r}"[:300])


def tail(samples, pct):
    """Nearest-rank percentile; returns (value, samples beyond it)."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


# -- the two kinds of run -------------------------------------------------------


class Repeats:
    """Per-op-input latencies of the first ``MAX_REPEATS`` repeats, in fixed
    storage so that peak RSS does not grow with the number of passes."""

    def __init__(self):
        self.samples = {}

    def add(self, key, seconds: float) -> None:
        entry = self.samples.get(key)
        if entry is None:
            entry = self.samples[key] = [0, array.array("d", bytes(8 * MAX_REPEATS))]
        if entry[0] < MAX_REPEATS:
            entry[1][entry[0]] = seconds
            entry[0] += 1

    def medians(self) -> list:
        return [statistics.median(values[:count]) for count, values in self.samples.values()]


def measure(args, lines):
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    setup_spans = []
    walls, raw_walls, pass_ops = {}, {}, {}  # per labelling
    repeats = Repeats()
    pending = []  # passes whose rescaling waits for the kernels after them

    def settle(until):
        # rescale the passes that ended before ``until``
        while pending and pending[0][3][-1][1] <= until:
            label, keys, begin, spans = pending.pop(0)
            wall, pass_lat = rescale(speed, begin, spans)
            walls.setdefault(label, []).append(wall)
            end = spans[-1][1]
            raw_walls.setdefault(label, []).append(end - begin - speed.kernel_s(begin, end))
            pass_ops[label] = len(keys)
            for key, seconds in zip(keys, pass_lat):
                repeats.add(key, seconds)

    with HostSpeed() as speed:
        for _ in range(SETUP_REPEATS):
            # collect the previous set-up's discarded module graph outside the timing
            gc.collect()
            t0 = time.perf_counter()
            wl = cls(import_vislab(), args.seed)
            setup_spans.append((t0, time.perf_counter()))
        gc.collect()

        checker = Checker(wl)
        start = time.perf_counter()
        passes = 0
        while (
            passes < wl.min_passes
            or passes % wl.labels
            or time.perf_counter() - start < args.seconds
        ):
            ops = wl.pass_ops(passes)
            begin, spans, outs = run_pass(ops)
            checker.check_pass(ops, outs)
            pending.append((passes % wl.labels, [key for key, _ in ops], begin, spans))
            passes += 1
            settle(time.perf_counter() - WINDOW_S)
        setups = [speed.rescaled(t0, t1) for t0, t1 in setup_spans]
        raw_setups = [t1 - t0 - speed.kernel_s(t0, t1) for t0, t1 in setup_spans]
    settle(float("inf"))  # the last passes see kernels on one side only

    # Throughput: the ops of one labelling cycle over the median pass wall of
    # each labelling.  Latency: each distinct input at the median of its
    # repeats.  All at the reference speed; the measured figures beside them.
    cycle_ops = sum(pass_ops.values())
    lat = repeats.medians()
    tail_value, beyond = tail(lat, wl.tail_pct)
    metrics = {
        # median: in a fresh checkout the first set-up also compiles bytecode
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (cycle_ops / sum(statistics.median(w) for w in walls.values()), "ops/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail_value * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    all_walls = [w for label in sorted(raw_walls) for w in raw_walls[label]]
    lines.append(
        f"run passes={passes} setups={len(setups)} op_samples={checker.attempted} "
        f"distinct_ops={len(lat)} labellings={wl.labels} "
        f"measured_pass_wall_s=[{', '.join(f'{w:.3f}' for w in all_walls)}]"
    )
    lines.append(
        f"host kernels={len(speed.seconds)} kernel_median_ms={speed.median_s() * 1e3:.4f} "
        f"reference_ms={REF_SECONDS * 1e3:g} slowness={speed.median_s() / REF_SECONDS:.4f}"
    )
    lines.append(
        f"measured (not rescaled) setup_s={statistics.median(raw_setups):.6g} "
        f"ops_per_s={cycle_ops / sum(statistics.median(w) for w in raw_walls.values()):.6g}"
    )
    lines.append(
        f"tail op_tail_ms is p{wl.tail_pct:g} of {len(lat)} distinct ops "
        f"(each at the median of its repeats), {beyond} beyond it"
    )
    return checker, metrics, True


def traced(args, lines):
    from workloads import WORKLOADS
    import layers
    from tracer import Tracer

    cls = WORKLOADS[args.workload]
    vl = import_vislab()
    mods = package_modules(vl)

    setup_tracer = Tracer(mods)
    setup_tracer.install()
    try:
        wl = setup_tracer.run_op("setup", lambda: cls(vl, args.seed))
    finally:
        setup_tracer.uninstall()

    checker = Checker(wl)
    ops = wl.ops(0)
    untraced_walls, traced_walls, reports = [], [], []
    first_tracer = None
    start = time.perf_counter()
    while len(reports) < 2 or time.perf_counter() - start < args.seconds:
        begin, spans, outs = run_pass(ops)
        checker.check_pass(ops, outs)
        untraced_walls.append(spans[-1][1] - begin)

        tracer = Tracer(mods)
        tracer.install()
        try:
            begin, spans, outs = run_pass(ops, tracer)
        finally:
            tracer.uninstall()
        checker.check_pass(ops, outs)
        traced_walls.append(spans[-1][1] - begin)
        reports.append(layers.pass_report(tracer.spans, sum(t1 - t0 for t0, t1 in spans)))
        if first_tracer is None:
            first_tracer = tracer

    ok = True
    counts = [r["counts"] for r in reports]
    if any(c != counts[0] for c in counts):
        ok = False
        lines.append(f"check exact counts differ between traced passes: {counts}")
    else:
        lines.append(f"check exact counts repeat over {len(counts)} traced passes: {counts[0]}")
    for r in reports:
        if not r["self_time_ok"]:
            ok = False
    lines.append(
        "check self times sum to traced op time: "
        + ", ".join(f"{r['self_sum_s']:.6f}/{r['op_sum_s']:.6f} s" for r in reports)
        + (" ok" if all(r["self_time_ok"] for r in reports) else " MISMATCH")
    )
    layer_self = reports[0]["layer_self_s"]
    lines.append("layer self seconds, first traced pass: "
                 + ", ".join(f"{k}={v:.4f}" for k, v in sorted(layer_self.items())))
    lines.extend(layers.baseline_lines(wl, reports[0]))

    metrics = layers.per_layer_metrics(reports, setup_tracer.spans)
    overhead = statistics.median(traced_walls) / statistics.median(untraced_walls)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    lines.append(
        f"run pairs={len(reports)} untraced_pass_s={statistics.median(untraced_walls):.4f} "
        f"traced_pass_s={statistics.median(traced_walls):.4f}"
    )

    os.makedirs(OUT_DIR, exist_ok=True)
    first_tracer.write(
        os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"),
        {"env": environment(args), "metrics": {k: v[0] for k, v in metrics.items()}},
    )
    return checker, metrics, ok


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    sys.path.insert(0, SRC)
    try:
        import_vislab()
    except ImportError as exc:
        print(f"error: cannot import vislab from {SRC}: {exc}", file=sys.stderr)
        return 2

    lines = [f"env {json.dumps(environment(args), sort_keys=True)}"]
    run = traced if args.trace else measure
    checker, metrics, ok = run(args, lines)
    for example in checker.examples:
        lines.append(f"failed-op {example}")
    for name, (value, unit) in metrics.items():
        lines.append(f"metric {name} {value if isinstance(value, int) else format(value, '.6g')} {unit}")
    if not args.trace:
        lines.append(f"metric fail_ratio {checker.failed / checker.attempted:.6g} ratio")
    correct = ok and checker.failed == 0
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    raise SystemExit(main())
