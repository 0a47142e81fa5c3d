import io
import os
import re
import time

import pytest

from vislab.cli import run
from vislab.families import gen_gadget, gen_subdivided_complete, hypercube, path
from vislab.graph_core import PRODUCT_VERTEX_LIMIT, Graph, format_edge_list, parse_graph


def cli(*argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    rc = run(list(argv), stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return rc, out.getvalue(), err.getvalue()


P4_TEXT = "4 3\n0 1\n1 2\n2 3\n"
C4_TEXT = "4 4\n0 1\n1 2\n2 3\n0 3\n"
LIMIT = PRODUCT_VERTEX_LIMIT
VERIFY_ALL_GOLDEN = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "data", "verify_all.machine"
)


class TestGen:
    def test_path(self):
        rc, out, err = cli("gen", "path", "4")
        assert rc == 0 and err == ""
        assert parse_graph(out).n == 4
        assert "0 1" in out

    def test_grid_dims_comment(self):
        rc, out, _ = cli("gen", "grid", "3", "4")
        assert rc == 0
        assert "# dims 3 4\n" in out
        assert parse_graph(out).n == 12

    def test_hypercube_dims_comment(self):
        rc, out, _ = cli("gen", "hypercube", "3")
        assert rc == 0
        assert "# dims 2 2 2\n" in out

    def test_hypercube_zero_has_no_dims_comment(self):
        assert cli("gen", "hypercube", "0") == (0, "1 0\n", "")

    @pytest.mark.parametrize(
        "params",
        [
            ["path", str(LIMIT + 1)],
            ["cycle", str(LIMIT + 1)],
            ["complete", str(LIMIT + 1)],
            ["complete_bipartite", "2", str(LIMIT // 2 + 1)],  # edges only
            ["star", str(LIMIT + 1)],
            ["grid", str(LIMIT + 1), "1"],
            ["hypercube", "21"],
            ["random_tree", str(LIMIT + 1)],
            ["random_block_graph", str(LIMIT + 1), "3"],
            ["skn", "1449"],
            ["gstar", "--b", str(LIMIT + 1), "--t", "1", "1", "1"],
            ["hypercube", "15000"],  # 2**15000 has more digits than Python prints
            ["grid", *["1000000000"] * 500],
            ["random_block_graph", "3000", "3000", "--seed", "1"],  # edges only
        ],
    )
    def test_oversized_sizes_rejected_before_building(self, params, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("graph built despite the size limit")

        monkeypatch.setattr(Graph, "from_edges", refuse)
        rc, out, err = cli("gen", *params)
        assert rc == 2 and out == ""
        assert f"(limit {LIMIT})" in err

    def test_skn_alias(self):
        rc1, a, _ = cli("gen", "skn", "3")
        rc2, b, _ = cli("gen", "subdivided_complete", "3")
        assert rc1 == rc2 == 0 and a == b

    def test_deterministic_bytes(self):
        a = cli("gen", "random_tree", "9", "--seed", "5")
        b = cli("gen", "random_tree", "9", "--seed", "5")
        assert a == b

    def test_gstar_flags(self):
        rc, out, _ = cli("gen", "gstar", "--b", "2", "--t", "2", "2", "2")
        assert rc == 0
        assert parse_graph(out).n == 11

    def test_gstar_flag_validation(self):
        rc, _, err = cli("gen", "gstar", "--b", "2")
        assert rc == 2 and "gstar needs" in err
        rc, _, err = cli("gen", "gstar", "4", "--b", "2", "--t", "1", "1", "1")
        assert rc == 2 and "no positionals" in err

    def test_gadget_from_stdin(self):
        rc, out, _ = cli("gen", "gadget", "-", "--t", "3", stdin_text="3 2\n0 1\n1 2\n")
        assert rc == 0
        assert parse_graph(out).n == 3 + 2 + 4 + 6

    def test_gadget_from_file(self, tmp_path):
        base = tmp_path / "base.txt"
        base.write_text("3 2\n0 1\n1 2\n")
        rc, out, _ = cli("gen", "gadget", str(base), "--t", "3")
        assert parse_graph(out).n == 15
        rc2, _, err = cli("gen", "gadget", str(base))
        assert rc2 == 2 and "needs --t" in err

    def test_roles_sidecar(self, tmp_path):
        sidecar = tmp_path / "roles.txt"
        rc, out, _ = cli("gen", "skn", "3", "--roles", str(sidecar))
        assert rc == 0
        lines = sidecar.read_text().splitlines()
        assert lines[0] == "0 original:0"
        assert lines[3] == "3 subdivided:0-1"
        assert len(lines) == parse_graph(out).n

    def test_roles_rejected_for_plain_family(self, tmp_path):
        rc, _, err = cli("gen", "path", "4", "--roles", str(tmp_path / "r.txt"))
        assert rc == 2 and "no role map" in err

    def test_unknown_family(self):
        rc, _, err = cli("gen", "petersen")
        assert rc == 2 and "unknown family" in err

    def test_unknown_family_before_parameters(self):
        # the name is refused before its parameters are read, and the
        # message lists the role constructions too
        rc, out, err = cli("gen", "petersen", "four")
        assert rc == 2 and out == ""
        assert "unknown family" in err and "gstar" in err

    def test_wrong_arity(self):
        rc, _, err = cli("gen", "path")
        assert rc == 2 and "parameter" in err
        rc, out, err = cli("gen", "skn", "3", "4")
        assert rc == 2 and out == "" and "takes 1 parameter(s), got 2" in err

    @pytest.mark.parametrize("params", [[], ["-", "-"]])
    def test_gadget_needs_one_base_graph(self, params):
        rc, out, err = cli("gen", "gadget", *params, "--t", "3", stdin_text=P4_TEXT)
        assert rc == 2 and out == "" and "one base-graph file" in err

    def test_non_integer_params(self):
        rc, _, err = cli("gen", "path", "four")
        assert rc == 2 and "integers" in err


class TestSolve:
    def test_grid_pipeline(self):
        _, graph_text, _ = cli("gen", "grid", "3", "4")
        rc, out, err = cli(
            "solve", "--kind", "mv", "--variant", "lower", stdin_text=graph_text
        )
        assert rc == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "value 3"
        assert lines[1].startswith("witness ")
        assert lines[2].startswith("coords (")
        witness = [int(t) for t in lines[1].split()[1].split(",")]
        coords = lines[2].split()[1]
        assert coords.count("(") == len(witness)

    def test_coords_row_major(self):
        _, graph_text, _ = cli("gen", "grid", "2", "3")
        rc, out, _ = cli(
            "solve", "--kind", "mv", "--variant", "max", stdin_text=graph_text
        )
        lines = out.splitlines()
        witness = [int(t) for t in lines[1].split()[1].split(",")]
        coords = lines[2].split()[1]
        expect = ",".join(f"({v // 3},{v % 3})" for v in witness)
        assert coords == expect

    def test_no_coords_without_dims(self):
        rc, out, _ = cli(
            "solve", "--kind", "mv", "--variant", "max", stdin_text=P4_TEXT
        )
        assert rc == 0
        assert "coords" not in out

    def test_dims_with_zero_size_rejected(self):
        rc, out, err = cli(
            "solve", "--kind", "mv", "--variant", "max",
            stdin_text="# dims 0 3\n" + P4_TEXT,
        )
        assert rc == 2 and out == ""
        assert err.startswith("error: comment '# dims 0 3'")

    def test_dims_not_matching_vertex_count_rejected(self):
        # 2 x 2 names four vertices; the star has six, so ids 4 and 5
        # would be printed with the coordinates of 0 and 1
        _, star_text, _ = cli("gen", "star", "5")
        rc, out, err = cli(
            "solve", "--kind", "mv", "--variant", "max",
            stdin_text="# dims 2 2\n" + star_text,
        )
        assert rc == 2 and out == ""
        assert err.startswith("error: comment '# dims 2 2'") and "6 vertices" in err

    def test_fast_path_line(self):
        rc, out, _ = cli(
            "solve", "--kind", "mv", "--variant", "lower", stdin_text=P4_TEXT
        )
        lines = out.splitlines()
        assert lines[0] == "value 2"
        assert "fast-path cut-edge shortcut" in lines

    def test_no_fast_path_flag(self):
        rc, out, _ = cli(
            "solve", "--kind", "mv", "--variant", "lower", "--no-fast-path",
            stdin_text=P4_TEXT,
        )
        assert rc == 0
        assert out.splitlines()[0] == "value 2"
        assert "fast-path" not in out

    def test_stats_to_stderr_only(self):
        plain = cli("solve", "--kind", "gp", "--variant", "max", stdin_text=C4_TEXT)
        stats = cli(
            "solve", "--kind", "gp", "--variant", "max", "--stats",
            stdin_text=C4_TEXT,
        )
        assert plain[1] == stats[1]
        assert plain[2] == ""
        assert re.fullmatch(r"nodes \d+ skipped 0 pruned 0 elapsed \d+\.\d{3}s\n", stats[2])
        # Q4 is vertex-transitive: the lower search skips symmetric children
        _, q4_text, _ = cli("gen", "hypercube", "4")
        argv = ("solve", "--kind", "mv", "--variant", "lower")
        plain = cli(*argv, stdin_text=q4_text)
        stats = cli(*argv, "--stats", stdin_text=q4_text)
        assert plain[:2] == stats[:2] and plain[2] == ""
        found = re.fullmatch(
            r"nodes (\d+) skipped (\d+) pruned (\d+) elapsed \d+\.\d{3}s\n", stats[2]
        )
        assert found and int(found.group(1)) > 0 and int(found.group(2)) > 0

    def test_empty_witness_dash(self):
        g, _ = gen_subdivided_complete(3)
        rc, out, _ = cli(
            "solve", "--kind", "tmv", "--variant", "lower",
            stdin_text=format_edge_list(g, []),
        )
        assert out.splitlines()[0] == "value 0"
        assert out.splitlines()[1] == "witness -"

    def test_cap_without_force(self):
        _, graph_text, _ = cli("gen", "grid", "5", "5")
        rc, _, err = cli(
            "solve", "--kind", "mv", "--variant", "lower", "--no-fast-path",
            stdin_text=graph_text,
        )
        assert rc == 2 and "too large" in err and "force" in err

    def test_force_completes(self):
        _, graph_text, _ = cli("gen", "grid", "5", "5")
        rc, out, _ = cli(
            "solve", "--kind", "mv", "--variant", "lower", "--no-fast-path",
            "--force", stdin_text=graph_text,
        )
        assert rc == 0
        assert out.splitlines()[0] == "value 3"

    def test_disconnected_rejected(self):
        rc, _, err = cli(
            "solve", "--kind", "mv", "--variant", "max", stdin_text="2 0\n"
        )
        assert rc == 2 and "connected" in err

    def test_graph_file_argument(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text(P4_TEXT)
        rc, out, _ = cli("solve", str(f), "--kind", "mv", "--variant", "max")
        assert rc == 0 and out.splitlines()[0] == "value 2"

    def test_missing_file(self):
        rc, _, err = cli(
            "solve", "/nonexistent/g.txt", "--kind", "mv", "--variant", "max"
        )
        assert rc == 2 and "error:" in err


class TestGreedy:
    def test_output_shape(self):
        rc, out, err = cli(
            "greedy", "--kind", "mv", "--runs", "5", "--seed", "3",
            stdin_text=C4_TEXT,
        )
        assert rc == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "kind mv"
        assert lines[1] == "runs 5"
        assert lines[2] == "seed 3"
        assert lines[3] == "min 3"
        assert lines[4] == "max 3"
        assert lines[5].startswith("best ")

    def test_p5_seed_capture(self):
        rc, out, _ = cli(
            "greedy", "--kind", "mv", "--seed", "4", stdin_text="5 4\n0 1\n1 2\n2 3\n3 4\n"
        )
        assert out.splitlines()[5] == "best 1,2"

    def test_runs_validated(self):
        rc, _, err = cli("greedy", "--kind", "mv", "--runs", "0", stdin_text=C4_TEXT)
        assert rc == 2 and "at least 1" in err

    def test_tmv_is_uncapped(self):
        # Q5 has 32 tmv candidates, past DEFAULT_CAP; greedy does not search
        rc, out, err = cli("greedy", "--kind", "tmv", stdin_text=format_edge_list(hypercube(5)))
        assert rc == 0 and err == ""
        assert out.startswith("kind tmv\n")

    def test_tmv_disconnected(self):
        rc, out, err = cli("greedy", "--kind", "tmv", stdin_text="2 0\n")
        assert rc == 2 and out == "" and "connected" in err

    def test_deterministic(self):
        a = cli("greedy", "--kind", "tmv", "--runs", "8", stdin_text=C4_TEXT)
        b = cli("greedy", "--kind", "tmv", "--runs", "8", stdin_text=C4_TEXT)
        assert a == b


class TestCheck:
    def test_valid_maximal(self):
        rc, out, _ = cli(
            "check", "--kind", "tmv", "--set", "0,1", "--maximal",
            stdin_text=C4_TEXT,
        )
        assert rc == 0 and out == "valid maximal\n"

    def test_valid_not_maximal(self):
        rc, out, _ = cli(
            "check", "--kind", "mv", "--set", "0", "--maximal", stdin_text=C4_TEXT
        )
        assert rc == 0 and out == "valid not-maximal\n"

    def test_valid_without_maximal_flag(self):
        rc, out, _ = cli("check", "--kind", "mv", "--set", "0", stdin_text=C4_TEXT)
        assert out == "valid\n"

    def test_invalid(self):
        rc, out, _ = cli(
            "check", "--kind", "mv", "--set", "0,1,2", stdin_text=P4_TEXT
        )
        assert rc == 0 and out == "invalid\n"

    def test_empty_set(self):
        rc, out, _ = cli("check", "--kind", "mv", "--set", "", stdin_text=P4_TEXT)
        assert rc == 0 and out == "valid\n"

    def test_bad_ids(self):
        rc, _, err = cli("check", "--kind", "mv", "--set", "0,x", stdin_text=P4_TEXT)
        assert rc == 2 and "comma-separated integers" in err

    def test_out_of_range_ids(self):
        rc, _, err = cli("check", "--kind", "mv", "--set", "9", stdin_text=P4_TEXT)
        assert rc == 2 and "out of range" in err

    def test_repeated_id(self):
        rc, out, err = cli("check", "--kind", "mv", "--set", "0,2,0", stdin_text=P4_TEXT)
        assert rc == 2 and out == "" and "duplicate vertex id 0" in err


class TestVerify:
    def test_matrix_table(self):
        rc, out, err = cli("verify", "--suite", "matrix")
        assert rc == 0 and err == ""
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert all("\t" not in line for line in lines)
        assert all("fail" not in line.split()[-1] for line in lines[2:])

    def test_machine_rows(self):
        rc, out, _ = cli("verify", "--suite", "matrix", "--machine")
        assert rc == 0
        for line in out.splitlines():
            assert line.count("\t") == 4
            assert line.split("\t")[4] == "pass"

    def test_all_machine_golden(self):
        # stdout is the byte-stability contract: every row, in order, as committed
        rc, out, err = cli("verify", "--suite", "all", "--machine")
        with open(VERIFY_ALL_GOLDEN, "rb") as handle:
            want = handle.read()
        assert (rc, err) == (0, "")
        assert out.encode("utf-8") == want

    def test_stats_to_stderr_only(self):
        plain = cli("verify", "--suite", "matrix")
        rc, out, err = cli("verify", "--suite", "matrix", "--stats")
        assert (rc, out) == plain[:2]
        lines = err.splitlines()
        rows = len(out.splitlines()) - 2  # the table's header and rule
        assert re.fullmatch(rf"rows {rows} pass {rows} fail 0 elapsed \d+\.\d{{3}}s", lines[0])
        assert len(lines) == 1 + rows
        assert all(re.fullmatch(r"row \S+ .+ \d+\.\d{3}s", line) for line in lines[1:])
        names = sorted(line.split()[1] for line in lines[1:])
        assert names == sorted(row.split()[0] for row in out.splitlines()[2:])
        times = [float(line.rsplit(" ", 1)[1][:-1]) for line in lines[1:]]
        assert times == sorted(times, reverse=True)

    def test_bad_suite(self):
        rc, _, err = cli("verify", "--suite", "nope")
        assert rc == 2 and "invalid choice" in err


class TestExport:
    def test_dot(self):
        rc, out, _ = cli("export", "--dot", stdin_text=P4_TEXT)
        assert rc == 0
        assert out.startswith("graph {\n")
        assert "  0 -- 1;\n" in out

    def test_highlight(self):
        rc, out, _ = cli("export", "--dot", "--highlight", "1,2", stdin_text=P4_TEXT)
        assert 'fillcolor="gray80"' in out

    def test_repeated_highlight_id(self):
        rc, out, err = cli("export", "--dot", "--highlight", "1,1", stdin_text=P4_TEXT)
        assert rc == 2 and out == "" and "duplicate vertex id 1" in err

    def test_requires_dot_flag(self):
        rc, _, err = cli("export", stdin_text=P4_TEXT)
        assert rc == 2 and "needs --dot" in err


class TestHarness:
    def test_help_exits_zero(self):
        rc, out, _ = cli("--help")
        assert rc == 0 and "gen" in out

    def test_parses_in_one_process_share_no_state(self):
        # the parser is built once per process; no parse may leak into the next
        argv = ("solve", "--kind", "mv", "--variant", "lower")
        first = cli(*argv, "--stats", stdin_text=C4_TEXT)
        assert first[0] == 0 and first[2].startswith("nodes ")
        rc, out, err = cli("solve", "--kind", "mv", "--variant", "sideways")
        assert rc == 2 and out == "" and "invalid choice" in err
        rc, out, err = cli("--help")
        assert rc == 0 and "gen" in out and err == ""
        last = cli(*argv, stdin_text=C4_TEXT)
        assert last == (0, first[1], "")

    def test_no_command(self):
        rc, _, err = cli()
        assert rc == 2

    def test_unknown_command(self):
        rc, _, err = cli("frobnicate")
        assert rc == 2

    def test_bad_flag(self):
        rc, _, err = cli("solve", "--kind", "mv", "--variant", "sideways")
        assert rc == 2

    def test_malformed_graph(self):
        rc, _, err = cli(
            "solve", "--kind", "mv", "--variant", "max", stdin_text="nonsense\n"
        )
        assert rc == 2 and "malformed header" in err

    def test_oversized_header(self):
        # rejected from the header alone, before any per-vertex allocation
        text = f"{PRODUCT_VERTEX_LIMIT + 1} 0\n"
        rc, out, err = cli("solve", "--kind", "mv", "--variant", "max", stdin_text=text)
        assert rc == 2 and out == ""
        assert "line 1" in err and f"limit {PRODUCT_VERTEX_LIMIT}" in err

    def test_isolated_vertices_refused_quickly(self):
        # every isolated vertex is a tmv candidate; an n-bit mask per vertex
        # while listing the distance-2 pairs took 19 s before the refusal
        start = time.perf_counter()
        text = f"{PRODUCT_VERTEX_LIMIT} 0\n"
        rc, out, err = cli("solve", "--kind", "tmv", "--variant", "max", stdin_text=text)
        assert rc == 2 and out == ""
        assert f"{PRODUCT_VERTEX_LIMIT} candidate vertices exceed the search cap" in err
        assert time.perf_counter() - start < 5


class TestRoundTrips:
    def test_gen_solve_check_agree(self):
        _, graph_text, _ = cli("gen", "cycle", "6")
        _, out, _ = cli(
            "solve", "--kind", "gp", "--variant", "max", stdin_text=graph_text
        )
        witness = out.splitlines()[1].split()[1]
        rc, verdict, _ = cli(
            "check", "--kind", "gp", "--set", witness, "--maximal",
            stdin_text=graph_text,
        )
        assert verdict == "valid maximal\n"

    def test_gen_parse_identity(self):
        _, text, _ = cli("gen", "random_block_graph", "9", "4", "--seed", "2")
        g = parse_graph(text)
        assert format_edge_list(g, []) == text

    def test_gadget_matches_library(self, tmp_path):
        base = path(3)
        f = tmp_path / "p3.txt"
        f.write_text(format_edge_list(base, []))
        _, out, _ = cli("gen", "gadget", str(f), "--t", "4")
        lib, _ = gen_gadget(base, 4)
        assert list(parse_graph(out).edges()) == list(lib.edges())
