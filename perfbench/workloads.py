"""The three benchmark workloads: inputs, ops and answer checks.

Every workload is built from the benchmark seed alone; vislab only ever
sees the generated graphs.  A run repeats *passes* over a workload's ops.
Workloads with labellings (``labels`` > 1) give pass ``p`` the vertex
labelling ``p mod labels`` (``pass_ops``; mv-search adds its cheap queries
in every labelling); labelling ``l`` of seed ``s`` relabels every graph with
``rng.permutation(n, s * labels + l)``, except that label seed 0 is the
identity.  So seed 0, labelling 0 is exactly the golden input, and each run
averages over several labellings of its seed.

An op returns a plain, comparable value.  ``check`` compares it with the
golden answer: values always (they are invariant under relabelling),
witnesses byte for byte on the identity labelling, and by revalidation
through ``is_valid_set`` / ``is_maximal_set`` otherwise.
"""

from __future__ import annotations

import io
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "goldens")

KINDS = ("mv", "tmv", "gp")
VARIANTS = ("max", "lower")


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.json")


def load_goldens(name: str) -> dict:
    with open(golden_path(name), "r", encoding="utf-8") as handle:
        return json.load(handle)


def build_named(vl, spec: str):
    """``K4xK5`` (clique product), ``P5xP5`` (grid) or ``Q4`` (hypercube)."""
    fam = vl.families
    if spec[0] == "Q":
        return fam.hypercube(int(spec[1:]))
    a, b = spec.split("x")
    if spec[0] == "P":
        return fam.grid((int(a[1:]), int(b[1:])))
    if spec[0] == "K":
        return vl.graph_core.cartesian_product(fam.complete(int(a[1:])), fam.complete(int(b[1:])))
    raise ValueError(f"unknown graph spec {spec!r}")


def label_seed(seed: int, labels: int, index: int) -> int:
    return seed * labels + index


def relabel(vl, g, lseed: int):
    """The graph with vertex v renamed perm[v]; label seed 0 is the identity."""
    if lseed == 0:
        return g
    perm = vl.rng.permutation(g.n, lseed)
    return vl.graph_core.Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def edge_key(g) -> list:
    return [g.n, [list(e) for e in g.edges()]]


def _revalidate(vl, g, kind: str, variant: str, members, value: int) -> bool:
    """Witness has ``value`` members and is valid (max) or maximal (lower)."""
    if len(members) != value or list(members) != sorted(set(members)):
        return False
    try:
        x = vl.graph_core.VertexSet.from_ids(g.n, members)
        if variant == "max":
            return vl.visibility.is_valid_set(g, x, kind)
        return vl.visibility.is_maximal_set(g, x, kind)
    except ValueError:  # out-of-range ids, or a "maximal" set that is not valid
        return False


class Workload:
    name = ""
    labels = 1
    min_passes = 1
    tail_pct = 99.0

    def __init__(self, vl, seed: int):
        self.vl = vl
        self.seed = seed
        self.golden = load_goldens(self.name)

    def ops(self, labelling: int) -> list:
        """[(key, call)] for one labelling; ``key`` identifies the op's input."""
        raise NotImplementedError

    def pass_ops(self, index: int) -> list:
        """The ops of timed pass ``index``."""
        return self.ops(index % self.labels)

    def check(self, key, out) -> bool:
        raise NotImplementedError


# -- mv-search ---------------------------------------------------------------

MV_QUERIES = (
    ("K4xK5", "lower", False),
    ("K4xK6", "max", False),
    ("K3xK6", "lower", False),
    ("P5xP5", "max", True),
    ("P4xP6", "max", False),
    ("K4xK4", "lower", False),
    ("P4xP5", "max", False),
    ("Q4", "max", False),
    ("Q4", "lower", False),
    ("K3xK5", "max", False),
    ("K3xK5", "lower", False),
)
# MV_QUERIES[MV_CHEAP_FROM:] take under half a second each.  Every pass runs
# them for all labellings, twice and seconds apart, so each has six repeats
# per run to take the median of; the median op is among them.
MV_CHEAP_FROM = 5


class MvSearch(Workload):
    """In-process ``vislab solve --kind mv`` on edge-list text."""

    name = "mv-search"
    labels = 3
    min_passes = 3
    # 3 labellings x 11 queries = 33 distinct ops; nearest rank 67 leaves 10 beyond.
    tail_pct = 67.0

    def __init__(self, vl, seed: int):
        super().__init__(vl, seed)
        base = {spec: build_named(vl, spec) for spec in dict.fromkeys(q[0] for q in MV_QUERIES)}
        self.graphs = []  # per labelling: {spec: (graph, text)}
        for index in range(self.labels):
            lseed = label_seed(seed, self.labels, index)
            per = {}
            for spec, g in base.items():
                h = relabel(vl, g, lseed)
                per[spec] = (h, vl.graph_core.format_edge_list(h))
            self.graphs.append(per)

    @staticmethod
    def argv(variant: str, force: bool) -> list:
        argv = ["solve", "--kind", "mv", "--variant", variant]
        return argv + ["--force"] if force else argv

    def ops(self, labelling: int) -> list:
        cli = self.vl.cli
        out = []
        for qi, (spec, variant, force) in enumerate(MV_QUERIES):
            text = self.graphs[labelling][spec][1]
            argv = self.argv(variant, force)

            def call(text=text, argv=argv):
                stdout, stderr = io.StringIO(), io.StringIO()
                code = cli.run(argv, stdin=io.StringIO(text), stdout=stdout, stderr=stderr)
                return code, stdout.getvalue()

            out.append(((labelling, qi), call))
        return out

    def pass_ops(self, index: int) -> list:
        own = self.ops(index % self.labels)[:MV_CHEAP_FROM]
        cheap = [op for labelling in range(self.labels) for op in self.ops(labelling)[MV_CHEAP_FROM:]]
        return cheap + own[:3] + cheap + own[3:]

    def check(self, key, out) -> bool:
        labelling, qi = key
        spec, variant, _ = MV_QUERIES[qi]
        want = self.golden["queries"][f"{spec}/{variant}"]
        code, text = out
        if code != 0:
            return False
        if label_seed(self.seed, self.labels, labelling) == 0:
            return text == want["stdout"]
        lines = text.splitlines()
        if len(lines) != 2 or not lines[0].startswith("value ") or not lines[1].startswith("witness "):
            return False
        try:
            value = int(lines[0].split()[1])
            members = [int(t) for t in lines[1].split()[1].split(",")]
        except (ValueError, IndexError):
            return False
        g = self.graphs[labelling][spec][0]
        return value == want["value"] and _revalidate(self.vl, g, "mv", variant, members, value)


# -- small-sweep -------------------------------------------------------------

SWEEP_CORPUS_SEED = 2307
SWEEP_SIZES = range(6, 11)
SWEEP_DENSITIES = (0.3, 0.45, 0.6, 0.8)
SWEEP_GNP_PER_DENSITY = 6
SWEEP_TREES = 4
SWEEP_BLOCK_GRAPHS = 4
SWEEP_MAX_BLOCK = 4


def sweep_corpus(vl) -> list:
    """~160 connected graphs, n = 6..10: G(n,p), random trees, block graphs.

    Drawn from a fixed corpus seed, so the answers are goldens; the
    benchmark seed acts through the labellings only.
    """
    rng = vl.rng.SplitMix64(SWEEP_CORPUS_SEED)
    graph_cls = vl.graph_core.Graph
    corpus = []
    for n in SWEEP_SIZES:
        for p in SWEEP_DENSITIES:
            for _ in range(SWEEP_GNP_PER_DENSITY):
                while True:
                    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.unit() < p]
                    g = graph_cls.from_edges(n, pairs)
                    if vl.graph_core.is_connected(g):
                        break
                corpus.append(g)
        for _ in range(SWEEP_TREES):
            corpus.append(vl.families.random_tree(n, rng.below(1 << 31)))
        for _ in range(SWEEP_BLOCK_GRAPHS):
            corpus.append(vl.families.random_block_graph(n, SWEEP_MAX_BLOCK, rng.below(1 << 31)))
    return corpus


SWEEP_QUERIES = tuple((kind, variant) for kind in KINDS for variant in VARIANTS)


class SmallSweep(Workload):
    """All six (kind, variant) library solves on every corpus graph."""

    name = "small-sweep"
    labels = 4
    min_passes = 8
    tail_pct = 99.0

    def __init__(self, vl, seed: int):
        super().__init__(vl, seed)
        corpus = sweep_corpus(vl)
        if [edge_key(g) for g in corpus] != [entry["graph"] for entry in self.golden["graphs"]]:
            raise RuntimeError("generated corpus differs from the golden corpus")
        self.graphs = [
            [relabel(vl, g, label_seed(seed, self.labels, index)) for g in corpus]
            for index in range(self.labels)
        ]

    def ops(self, labelling: int) -> list:
        vl = self.vl
        out = []
        for gi, g in enumerate(self.graphs[labelling]):
            for qi, (kind, variant) in enumerate(SWEEP_QUERIES):
                if variant == "max":
                    def call(g=g, kind=kind):
                        res = vl.solve_max(g, kind)
                        return res.value, res.witness.members()
                else:
                    def call(g=g, kind=kind):
                        res = vl.solve_lower(g, kind)
                        return res.value, res.witness.members()
                out.append(((labelling, gi, qi), call))
        return out

    def check(self, key, out) -> bool:
        labelling, gi, qi = key
        kind, variant = SWEEP_QUERIES[qi]
        value, members = out
        entry = self.golden["graphs"][gi]
        want_value, want_witness = entry["answers"][f"{kind}/{variant}"]
        if value != want_value:
            return False
        if label_seed(self.seed, self.labels, labelling) == 0:
            # the mv cut-edge fast path may answer with another maximal set
            # than the canonical one; either passes (see make_goldens.py)
            canonical = entry.get("canonical", {}).get(f"{kind}/{variant}")
            return list(members) in (want_witness, canonical)
        return _revalidate(self.vl, self.graphs[labelling][gi], kind, variant, members, value)


# -- greedy-wide -------------------------------------------------------------

GREEDY_GRAPHS = ("P6xP6", "K5xK5", "Q5", "P8xP8")
GREEDY_SEEDS_PER_QUERY = 20


class GreedyWide(Workload):
    """``greedy_profile(g, kind, runs=1, seed=s)`` on four wide graphs."""

    name = "greedy-wide"
    labels = 1
    min_passes = 3
    # 240 distinct ops; p95 leaves 12 beyond, inside the P8xP8 tmv group
    tail_pct = 95.0

    def __init__(self, vl, seed: int):
        super().__init__(vl, seed)
        self.graphs = {spec: build_named(vl, spec) for spec in GREEDY_GRAPHS}
        first = seed * GREEDY_SEEDS_PER_QUERY
        self.greedy_seeds = range(first, first + GREEDY_SEEDS_PER_QUERY)

    def ops(self, labelling: int) -> list:
        vl = self.vl
        out = []
        for spec in GREEDY_GRAPHS:
            g = self.graphs[spec]
            for kind in KINDS:
                for s in self.greedy_seeds:
                    def call(g=g, kind=kind, s=s):
                        prof = vl.greedy_profile(g, kind, runs=1, seed=s)
                        return prof.min_size, prof.max_size, prof.best_min_witness.members()

                    out.append(((spec, kind, s), call))
        return out

    def check(self, key, out) -> bool:
        spec, kind, s = key
        lo, hi, members = out
        if lo != hi:
            return False
        if self.seed == 0:
            return [lo, list(members)] == self.golden["answers"][f"{spec}/{kind}/{s}"]
        return _revalidate(self.vl, self.graphs[spec], kind, "lower", members, lo)


WORKLOADS = {cls.name: cls for cls in (MvSearch, SmallSweep, GreedyWide)}
