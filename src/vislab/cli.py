"""Command-line front end.

Subcommands: ``gen`` (family generators), ``solve`` (exact search),
``greedy`` (seeded greedy profiles), ``check`` (validate a given set),
``verify`` (replay the known-results suites), ``export`` (DOT output).

Graphs travel as edge lists on stdin or a file argument.  ``gen`` builds
the plain families through ``families.generate`` and has its own branches
only for the three constructions with a role map (``skn``, ``gstar``,
``gadget``); it stamps grids and hypercubes with a ``# dims ...`` comment
so later stages can annotate witness vertices with product coordinates
(``solve`` refuses a comment whose sizes do not multiply to the vertex
count).

Exit codes: 0 on success, 1 when a verify suite has a failing row, 2 on
usage errors (bad flags, malformed input, a graph above the size limit,
solver cap without ``--force``).

Stdout for a given invocation is byte-stable: timings and node counts
go to stderr under ``--stats``, never to stdout (for ``verify``: the pass
and fail counts and every row's ``CheckReport.runtime``, slowest first).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import re
import sys
import time

from . import families
from .graph_core import VertexSet, export_dot, format_edge_list, parse_graph
from .solvers import greedy_profile, solve_lower, solve_max
from .theorems import SUITES, format_reports, format_reports_machine, run_suite
from .visibility import KINDS, is_maximal_set, is_valid_set

_DIMS_RE = re.compile(r"^#\s*dims((?:\s+\d+)+)\s*$")

# the plain families, then the names with their own ``gen`` branch
_GEN_FAMILIES = families.FAMILIES + ("skn", "gstar", "gadget")


class _UsageError(Exception):
    pass


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="vislab",
        description="exact mutual-visibility and general-position toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a family instance as an edge list")
    p.add_argument("family")
    p.add_argument("params", nargs="*")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--b", type=int, help="independent block size (gstar)")
    p.add_argument("--t", type=int, nargs="+",
                   help="clique size (gadget) or three clique sizes (gstar)")
    p.add_argument("--roles", metavar="PATH",
                   help="write the vertex role map to this file")

    for name, help_text in (
        ("solve", "exact optimum for a visibility invariant"),
        ("greedy", "seeded greedy maximal-set profile"),
        ("check", "validate a candidate set"),
        ("export", "DOT rendering"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("graph", nargs="?",
                       help="edge-list file; omitted or '-' reads stdin")
        if name in ("solve", "greedy", "check"):
            p.add_argument("--kind", required=True, choices=list(KINDS))
        if name == "solve":
            p.add_argument("--variant", required=True, choices=["max", "lower"])
            p.add_argument("--no-fast-path", action="store_true")
            p.add_argument("--force", action="store_true",
                           help="run past the search-size cap")
            p.add_argument("--stats", action="store_true",
                           help="print the can_add test count, the children skipped "
                                "by symmetry, the sets cut by the lower search's "
                                "lookahead and the elapsed time to stderr")
        if name == "greedy":
            p.add_argument("--runs", type=int, default=1)
            p.add_argument("--seed", type=int, default=0)
        if name == "check":
            p.add_argument("--set", dest="ids", required=True,
                           help="comma-separated vertex ids; empty for the empty set")
            p.add_argument("--maximal", action="store_true")
        if name == "export":
            p.add_argument("--dot", action="store_true")
            p.add_argument("--highlight", help="comma-separated vertex ids")

    p = sub.add_parser("verify", help="replay the known-results suites")
    p.add_argument("--suite", required=True, choices=list(SUITES))
    p.add_argument("--machine", action="store_true",
                   help="tab-separated rows instead of the table")
    p.add_argument("--stats", action="store_true",
                   help="print the pass and fail counts, the elapsed time and every "
                        "row's time, slowest first, to stderr")
    return parser


def _read_graph_text(path, stdin) -> str:
    if path in (None, "-"):
        return stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _scan_dims(text: str, n: int):
    """The sizes of the graph's ``# dims`` comment, or None without one.
    The comment is accepted only when every size is at least 1 and their
    product is the vertex count ``n``."""
    for line in text.splitlines():
        m = _DIMS_RE.match(line)
        if m:
            dims = tuple(int(tok) for tok in m.group(1).split())
            if min(dims) < 1 or math.prod(dims) != n:
                raise _UsageError(
                    f"comment {line.strip()!r} does not fit a graph on {n} vertices: "
                    "every size must be at least 1 and their product must be n"
                )
            return dims
    return None


def _parse_ids(raw: str) -> list[int]:
    raw = raw.strip()
    if raw in ("", "-"):
        return []
    try:
        ids = [int(tok) for tok in raw.split(",")]
    except ValueError:
        raise _UsageError(f"expected comma-separated integers, got {raw!r}")
    seen = set()
    for v in ids:
        if v in seen:
            raise _UsageError(f"duplicate vertex id {v} in {raw!r}")
        seen.add(v)
    return ids


def _int_params(ns, count: int) -> list[int]:
    if len(ns.params) != count:
        raise _UsageError(
            f"family {ns.family!r} takes {count} parameter(s), got {len(ns.params)}"
        )
    try:
        return [int(p) for p in ns.params]
    except ValueError:
        raise _UsageError(f"family parameters must be integers: {ns.params}")


def _coords(dims, vid: int) -> str:
    out = []
    for size in reversed(dims):
        out.append(vid % size)
        vid //= size
    return "(" + ",".join(str(c) for c in reversed(out)) + ")"


def _format_witness(x: VertexSet) -> str:
    ids = x.members()
    return ",".join(str(v) for v in ids) if ids else "-"


def _cmd_gen(ns, stdin, stdout) -> int:
    fam = ns.family
    if fam not in _GEN_FAMILIES:
        raise _UsageError(f"unknown family {fam!r}; expected one of {', '.join(_GEN_FAMILIES)}")
    roles = None
    comments = []
    if fam in ("skn", "subdivided_complete"):
        (n,) = _int_params(ns, 1)
        g, roles = families.gen_subdivided_complete(n)
    elif fam == "gstar":
        if ns.params:
            raise _UsageError("gstar takes --b and --t flags, no positionals")
        if ns.b is None or ns.t is None or len(ns.t) != 3:
            raise _UsageError("gstar needs --b B and --t T T1 T2")
        g, roles = families.gen_gstar(ns.b, *ns.t)
    elif fam == "gadget":
        if len(ns.params) != 1:
            raise _UsageError("gadget takes one base-graph file ('-' for stdin)")
        if ns.t is None or len(ns.t) != 1:
            raise _UsageError("gadget needs --t T")
        base = parse_graph(_read_graph_text(ns.params[0], stdin))
        g, roles = families.gen_gadget(base, ns.t[0])
    else:
        sizes = tuple(_int_params(ns, len(ns.params)))
        g = families.generate(families.FamilySpec(fam, sizes, ns.seed))
        if fam in ("grid", "hypercube"):
            dims = sizes if fam == "grid" else (2,) * sizes[0]
            # Q0 is one vertex, with no dimension to stamp
            if dims:
                comments.append("dims " + " ".join(str(d) for d in dims))

    if ns.roles is not None:
        if roles is None:
            raise _UsageError(f"family {fam!r} has no role map")
        with open(ns.roles, "w", encoding="utf-8") as handle:
            for vid, role in enumerate(roles):
                handle.write(f"{vid} {role}\n")
    stdout.write(format_edge_list(g, comments))
    return 0


def _cmd_solve(ns, stdin, stdout, stderr) -> int:
    text = _read_graph_text(ns.graph, stdin)
    g = parse_graph(text)
    dims = _scan_dims(text, g.n)
    if ns.variant == "max":
        res = solve_max(g, ns.kind, force=ns.force)
    else:
        res = solve_lower(g, ns.kind, force=ns.force,
                          fast_path=not ns.no_fast_path)
    stdout.write(f"value {res.value}\n")
    stdout.write(f"witness {_format_witness(res.witness)}\n")
    if dims is not None and res.witness.members():
        coords = ",".join(_coords(dims, v) for v in res.witness.members())
        stdout.write(f"coords {coords}\n")
    if res.fast_path:
        stdout.write(f"fast-path {res.fast_path}\n")
    if ns.stats:
        stderr.write(
            f"nodes {res.nodes} skipped {res.skipped} pruned {res.pruned} "
            f"elapsed {res.elapsed:.3f}s\n"
        )
    return 0


def _cmd_greedy(ns, stdin, stdout) -> int:
    if ns.runs < 1:
        raise _UsageError("--runs must be at least 1")
    g = parse_graph(_read_graph_text(ns.graph, stdin))
    profile = greedy_profile(g, ns.kind, runs=ns.runs, seed=ns.seed)
    stdout.write(f"kind {profile.kind}\n")
    stdout.write(f"runs {profile.runs}\n")
    stdout.write(f"seed {profile.seed}\n")
    stdout.write(f"min {profile.min_size}\n")
    stdout.write(f"max {profile.max_size}\n")
    stdout.write(f"best {_format_witness(profile.best_min_witness)}\n")
    return 0


def _cmd_check(ns, stdin, stdout) -> int:
    g = parse_graph(_read_graph_text(ns.graph, stdin))
    ids = _parse_ids(ns.ids)
    x = VertexSet.from_ids(g.n, ids)
    if not is_valid_set(g, x, ns.kind):
        stdout.write("invalid\n")
        return 0
    if not ns.maximal:
        stdout.write("valid\n")
        return 0
    word = "maximal" if is_maximal_set(g, x, ns.kind) else "not-maximal"
    stdout.write(f"valid {word}\n")
    return 0


def _cmd_verify(ns, stdout, stderr) -> int:
    start = time.perf_counter()
    reports = run_suite(ns.suite)
    elapsed = time.perf_counter() - start
    if ns.machine:
        stdout.write(format_reports_machine(reports))
    else:
        stdout.write(format_reports(reports))
    failed = sum(r.status == "fail" for r in reports)
    if ns.stats:
        stderr.write(f"rows {len(reports)} pass {len(reports) - failed} fail {failed} "
                     f"elapsed {elapsed:.3f}s\n")
        for r in sorted(reports, key=lambda r: r.runtime, reverse=True):
            stderr.write(f"row {r.name} {r.instance} {r.runtime:.3f}s\n")
    return 1 if failed else 0


def _cmd_export(ns, stdin, stdout) -> int:
    if not ns.dot:
        raise _UsageError("export needs --dot")
    g = parse_graph(_read_graph_text(ns.graph, stdin))
    highlight = _parse_ids(ns.highlight) if ns.highlight else []
    stdout.write(export_dot(g, highlight))
    return 0


def run(argv=None, stdin=None, stdout=None, stderr=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr

    parser = _build_parser()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            ns = parser.parse_args(argv)
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else 2

    try:
        if ns.command == "gen":
            return _cmd_gen(ns, stdin, stdout)
        if ns.command == "solve":
            return _cmd_solve(ns, stdin, stdout, stderr)
        if ns.command == "greedy":
            return _cmd_greedy(ns, stdin, stdout)
        if ns.command == "check":
            return _cmd_check(ns, stdin, stdout)
        if ns.command == "verify":
            return _cmd_verify(ns, stdout, stderr)
        if ns.command == "export":
            return _cmd_export(ns, stdin, stdout)
        raise _UsageError(f"unknown command {ns.command!r}")
    except (_UsageError, ValueError, OSError) as exc:
        # ParseError and InstanceTooLargeError are ValueErrors
        stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
