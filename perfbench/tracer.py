"""Span tracing of the vislab layers, installed from outside the package.

The tracer wraps the public functions of ``cli``, ``graph_core``,
``solvers``, ``visibility`` and ``families`` by replacing every module
attribute that refers to them (``from .graph_core import distance_matrix``
binds a second name in ``solvers``, so both are replaced).  No source under
``src/`` changes; ``uninstall`` puts the original functions back.

A span records its name, start, end, parent span and op id.  Spans stay in
memory and are written out once, after the run.  ``visible_mask`` is called
hundreds of thousands of times per solve, so it gets no span of its own:
each call adds its count and duration to the span that is open around it.
A span's self time is its duration minus its child spans and those
aggregated calls.
"""

from __future__ import annotations

import json
import time

# (defining module, function name); span names are "<module>.<name>".
TRACED = (
    ("cli", "run"),
    ("graph_core", "parse_graph"),
    ("graph_core", "distance_matrix"),
    ("graph_core", "bridges"),
    ("graph_core", "is_connected"),
    ("graph_core", "cartesian_product"),
    ("solvers", "solve_max"),
    ("solvers", "solve_lower"),
    ("solvers", "greedy_profile"),
    ("solvers", "greedy_maximal"),
    ("visibility", "is_valid_set"),
    ("visibility", "is_maximal_set"),
    ("visibility", "greedy_maximal"),
    ("families", "path"),
    ("families", "complete"),
    ("families", "grid"),
    ("families", "hypercube"),
    ("families", "random_tree"),
    ("families", "random_block_graph"),
)
LEAF = ("visibility", "visible_mask")

SOLVE_SPANS = frozenset({"solvers.solve_max", "solvers.solve_lower"})
PREDICATE_SPANS = frozenset({"visibility.is_valid_set", "visibility.is_maximal_set"})


class Span:
    __slots__ = (
        "sid", "name", "parent", "op", "start", "end", "child_s",
        "leaf_calls", "leaf_s", "in_solve", "in_predicate", "meta",
    )

    def __init__(self, sid, name, parent, op, in_solve, in_predicate):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.op = op
        self.start = 0.0
        self.end = 0.0
        self.child_s = 0.0
        self.leaf_calls = 0
        self.leaf_s = 0.0
        self.in_solve = in_solve
        self.in_predicate = in_predicate
        self.meta = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s - self.leaf_s

    def to_json(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "parent": None if self.parent is None else self.parent.sid,
            "op": self.op,
            "start": self.start,
            "end": self.end,
            "visible_mask_calls": self.leaf_calls,
            "visible_mask_s": self.leaf_s,
            "meta": self.meta,
        }


class Tracer:
    """Collects spans for the ops run between ``install`` and ``uninstall``."""

    def __init__(self, package_modules):
        self.modules = package_modules  # name -> module, "" for the package
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = None
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        in_solve = name in SOLVE_SPANS or (parent is not None and parent.in_solve)
        in_pred = parent is not None and (parent.in_predicate or parent.name in PREDICATE_SPANS)
        span = Span(len(self.spans), name, parent, self.op, in_solve, in_pred)
        self.spans.append(span)
        self.stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if span.parent is not None:
            span.parent.child_s += span.duration

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if name in SOLVE_SPANS:
                span.meta = {
                    "kind": args[1] if len(args) > 1 else kwargs.get("kind"),
                    "nodes": result.nodes,
                    "fast_path": result.fast_path,
                }
            return result

        return traced

    def _wrap_leaf(self, fn):
        stack = self.stack
        clock = time.perf_counter

        def traced(*args):
            t0 = clock()
            try:
                return fn(*args)
            finally:
                parent = stack[-1]
                parent.leaf_calls += 1
                parent.leaf_s += clock() - t0

        return traced

    # -- patching --------------------------------------------------------

    def _replace_everywhere(self, fn, wrapper) -> None:
        for mod in self.modules.values():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, fn))

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for modname, attr in TRACED:
            fn = getattr(self.modules[modname], attr)
            self._replace_everywhere(fn, self._wrap(fn, f"{modname}.{attr}"))
        modname, attr = LEAF
        fn = getattr(self.modules[modname], attr)
        self._replace_everywhere(fn, self._wrap_leaf(fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    # -- ops ---------------------------------------------------------------

    def run_op(self, op_id, call):
        """Run ``call()`` inside a root span named ``bench.op``."""
        self.op = op_id
        span = self.open("bench.op")
        try:
            return call()
        finally:
            self.close(span)
            self.op = None

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span.to_json(), sort_keys=True) + "\n")
