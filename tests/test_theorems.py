import pytest

from atlas import load_atlas
from vislab import theorems
from vislab.graph_core import VertexSet
from vislab.solvers import DEFAULT_CAP
from vislab.theorems import (
    SUITES,
    CLAIMS,
    CheckReport,
    block_corpus,
    check_claims,
    format_reports,
    format_reports_machine,
    gadget_instances,
    has_constant_2x2,
    is_22_saturated,
    min_saturated_ones,
    mv_matrix_equivalence,
    named_corpus,
    random_corpus,
    rows_of_set,
    run_suite,
    set_of_rows,
    solve_corpus,
    tree_corpus,
)


class TestBinaryMatrix:
    def test_bijection_exhaustive(self):
        m, n = 2, 3
        for mask in range(1 << (m * n)):
            x = VertexSet(m * n, mask)
            assert set_of_rows(n, rows_of_set(m, n, x)) == x

    def test_layout_row_major(self):
        x = VertexSet.from_ids(6, [0, 4])
        assert rows_of_set(2, 3, x) == [0b001, 0b010]


class TestMatrixPredicates:
    def test_identity_has_no_block(self):
        assert not has_constant_2x2([0b001, 0b010, 0b100])

    def test_all_ones_2x2(self):
        assert has_constant_2x2([0b11, 0b11])

    def test_cross_is_clean_and_saturated(self):
        for m, n in ((3, 4), (4, 5), (2, 2)):
            cross = [(1 << n) - 1] + [1] * (m - 1)
            assert sum(row.bit_count() for row in cross) == m + n - 1
            assert not has_constant_2x2(cross)
            assert is_22_saturated(cross, n)

    def test_zero_matrix_not_saturated(self):
        assert not is_22_saturated([0, 0], 2)

    def test_saturation_precondition(self):
        with pytest.raises(ValueError, match="already contains"):
            is_22_saturated([0b11, 0b11], 2)

    def test_single_row_saturated_means_full(self):
        assert is_22_saturated([0b111], 3)
        assert not is_22_saturated([0b101], 3)

    def test_min_saturated_ones(self):
        assert min_saturated_ones(3, 3) == 5
        assert min_saturated_ones(3, 4) == 6
        assert min_saturated_ones(2, 2) == 3

    def test_cell_caps(self):
        with pytest.raises(ValueError, match="capped"):
            min_saturated_ones(5, 4)
        with pytest.raises(ValueError, match="capped"):
            mv_matrix_equivalence(5, 4)

    def test_equivalence_small(self):
        rep = mv_matrix_equivalence(2, 2)
        assert rep.status == "pass"
        assert rep.computed.startswith("0 mismatches")


class TestCorpora:
    def test_random_corpus_shape(self):
        corpus = random_corpus()
        assert len(corpus) == 60
        sizes = {g.n for _, g in corpus}
        assert sizes == set(range(4, 10))

    def test_random_corpus_deterministic(self):
        a = random_corpus()
        b = random_corpus()
        assert [(lbl, list(g.edges())) for lbl, g in a] == [
            (lbl, list(g.edges())) for lbl, g in b
        ]

    def test_block_and_tree_corpora(self):
        assert len(block_corpus()) == 20
        assert len(tree_corpus()) == 10

    def test_named_corpus(self):
        corpus = named_corpus()
        assert len(corpus) == 20
        labels = [lbl for lbl, _ in corpus]
        assert len(set(labels)) == 20

    def test_gadget_instances_capped_candidates(self):
        from vislab.visibility import tmv_candidates

        for label, g, expected in gadget_instances():
            assert len(tmv_candidates(g)) <= DEFAULT_CAP, label


class TestSuites:
    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("everything")

    def test_suite_names_frozen(self):
        assert SUITES == ("closed-forms", "matrix", "characterizations", "all")

    @pytest.mark.parametrize("suite", SUITES)
    def test_no_failures(self, suite):
        reports = run_suite(suite)
        bad = [r for r in reports if r.status == "fail"]
        assert bad == [], format_reports(bad)

    def test_sorted_by_name_then_instance(self):
        reports = run_suite("matrix")
        keys = [(r.name, r.instance) for r in reports]
        assert keys == sorted(keys)

    def test_all_combines_without_duplicates(self):
        all_rows = run_suite("all")
        keys = [(r.name, r.instance) for r in all_rows]
        assert len(keys) == len(set(keys))
        closed = {(r.name, r.instance) for r in run_suite("closed-forms")}
        matrix = {(r.name, r.instance) for r in run_suite("matrix")}
        assert set(keys) == closed | matrix

    def test_every_row_documents_its_claim(self):
        for r in run_suite("all"):
            assert r.claim.strip()
            assert r.expected.strip()


class TestClaims:
    def test_claims_hold_on_the_atlas(self):
        # every connected graph with at most 7 vertices, solved as the
        # verify rows solve their 80-graph corpus
        graphs = load_atlas(range(1, 8))
        assert len(graphs) == 996
        reports = check_claims(solve_corpus([(f"atlas-{i}", g) for i, g in graphs]))
        assert [r.name for r in reports] == [name for name, _, _ in CLAIMS]
        bad = [r for r in reports if r.status == "fail"]
        assert bad == [], format_reports(bad)
        assert {r.computed for r in reports} == {"0 mismatches over 996 graphs"}

    def test_false_claim_reports_count_and_first_labels(self, monkeypatch):
        monkeypatch.setattr(theorems, "CLAIMS", CLAIMS + (
            ("false-tree", "every graph is a tree",
             lambda s: s.g.edge_count() != s.g.n - 1),
            ("false-small", "no graph has more than 4 vertices",
             lambda s: s.g.n > 4 and str(s.g.n)),
        ))
        reports = check_claims(solve_corpus(named_corpus()))
        assert [r.status for r in reports[:-2]] == ["pass"] * len(CLAIMS)
        tree, small = reports[-2:]
        assert (tree.name, tree.instance, tree.status) == ("false-tree", "corpus", "fail")
        assert tree.expected == "0 mismatches"
        assert tree.computed == "14 mismatches over 20 graphs; first: K3, K5, C3"
        # a note from the predicate follows the graph's label
        assert small.status == "fail"
        assert small.computed == "13 mismatches over 20 graphs; first: K5:5, P6:6, C5:5"


class TestFormatting:
    def runs(self):
        return [
            CheckReport("alpha", "K3", "3", "3", "pass", "c1", 0.1),
            CheckReport("beta-long-name", "P2", "0", "1", "fail", "c2", 0.2),
        ]

    def test_table(self):
        text = format_reports(self.runs())
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert set(lines[1]) == {"-", " "}
        assert lines[2].startswith("alpha")
        assert text.endswith("\n")
        # no trailing spaces anywhere
        assert all(line == line.rstrip() for line in lines)

    def test_machine(self):
        text = format_reports_machine(self.runs())
        lines = text.splitlines()
        assert lines[0] == "alpha\tK3\t3\t3\tpass"
        assert lines[1].split("\t")[4] == "fail"

    def test_machine_empty(self):
        assert format_reports_machine([]) == ""
