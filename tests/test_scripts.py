"""The scripts under ``scripts/``: each compiles, each but
``freeze_atlas.py`` loads, their instance names build, the ladder's
argument handling and times, and the counts ledger the ladder writes."""

import glob
import importlib.util
import os

import pytest

from atlas import build

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PATHS = sorted(glob.glob(os.path.join(ROOT, "scripts", "*.py")))
# every script but freeze_atlas.py, which needs networkx
SCRIPTS = [os.path.basename(p)[:-3] for p in PATHS if not p.endswith("freeze_atlas.py")]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, "scripts", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", PATHS, ids=os.path.basename)
def test_script_compiles(path):
    # parsed, not run, so that a script whose imports are missing is
    # still checked
    with open(path, encoding="utf-8") as handle:
        compile(handle.read(), path, "exec")


@pytest.mark.parametrize("name", SCRIPTS)
def test_script_loads(name):
    assert callable(load_script(name).main)


def test_instance_names_build():
    ladder, forms = load_script("bench_ladder"), load_script("form_differential")
    for rows in (ladder.LADDER, ladder.GREEDY_LADDER, forms.ROWS):
        for row in rows:
            assert build(row[0]).n > 0, row


class TestBenchLadder:
    @pytest.fixture
    def ladder(self, tmp_path, monkeypatch):
        module = load_script("bench_ladder")
        monkeypatch.setattr(module, "ROOT", str(tmp_path))

        def no_timing():
            raise AssertionError("the ladder started")

        monkeypatch.setattr(module, "HostSpeed", no_timing)
        return module

    def written(self, tmp_path):
        return glob.glob(os.path.join(tmp_path, "BENCH_*.json"))

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_prints_usage(self, ladder, tmp_path, capsys, flag):
        assert ladder.main([flag]) == 0
        assert capsys.readouterr().out.startswith("Usage: python scripts/bench_ladder.py LABEL")
        assert not self.written(tmp_path)

    def test_counts_writes_ledger(self, ladder, tmp_path, monkeypatch):
        row = ("Q4@22", "gp", "max")
        monkeypatch.setattr(ladder, "COUNTS", str(tmp_path / "counts.tsv"))
        monkeypatch.setattr(ladder, "ledger", lambda: [row])
        assert ladder.main(["--counts"]) == 0
        header, line = (tmp_path / "counts.tsv").read_text(encoding="utf-8").splitlines()
        assert header == "# " + "\t".join(ladder.COUNT_FIELDS)
        assert line == ladder.count_line(*row)
        assert line.startswith("Q4@22\tgp\tmax\t")
        assert len(line.split("\t")) == len(ladder.COUNT_FIELDS) == 8
        assert not self.written(tmp_path)
        # a SLOW row that names no LADDER row, say a misspelt ``@22``,
        # would leave its ladder row in the ledger
        assert set(ladder.SLOW) <= set(ladder.LADDER)

    def test_times_keep_microseconds(self, ladder):
        # a stub host speed that rescales every span to twice its wall time
        class Speed:
            def rescaled(self, start, end):
                return (end - start) * 2

        spans = [(1.0, 1.0023457), (2.0, 2.0031234), (3.0, 3.0027)]
        row = ladder.with_times({"instance": "P8xP8"}, spans, Speed())
        assert row == {
            "instance": "P8xP8",
            "wall_s": 0.0027,
            "walls_s": [0.002346, 0.003123, 0.0027],
            "rescaled_s": 0.0054,
            "rescaled_walls_s": [0.004691, 0.006247, 0.0054],
        }

    @pytest.mark.parametrize("argv", [[], ["a", "b"], ["-x"], ["--label"], ["a/b"], ["a b"], [""]])
    def test_bad_label_exits_2(self, ladder, tmp_path, capsys, argv):
        assert ladder.main(argv) == 2
        assert "Usage:" in capsys.readouterr().err
        assert not self.written(tmp_path)


def test_ledger_values_ignore_labels():
    # mv, tmv and gp, max and lower, are graph invariants: a relabelled
    # row ``X@s`` has the value of its row ``X``, though not its witness
    # or its counts
    ladder = load_script("bench_ladder")
    with open(ladder.COUNTS, encoding="utf-8") as handle:
        rows = [line.split("\t") for line in handle if not line.startswith("#")]
    values = {tuple(row[:3]): row[3] for row in rows}
    pairs = 0
    for (spec, kind, variant), value in values.items():
        base = (spec.partition("@")[0], kind, variant)
        if base[0] != spec and base in values:
            assert value == values[base], f"{spec} {kind} {variant}: {value}, {base[0]}: {values[base]}"
            pairs += 1
    assert pairs == 25


def test_counts_ledger():
    # every value, witness and count of tests/data/counts.tsv, recomputed:
    # a change that moves one regenerates the file with
    # ``python scripts/bench_ladder.py --counts`` and names the row
    ladder = load_script("bench_ladder")
    with open(ladder.COUNTS, encoding="utf-8") as handle:
        lines = [line.rstrip("\n") for line in handle if not line.startswith("#")]
    rows = ladder.ledger()
    assert len(lines) == len(rows)
    for line, row in zip(lines, rows):
        got = ladder.count_line(*row)
        if got != line:
            for field, now, was in zip(ladder.COUNT_FIELDS, got.split("\t"), line.split("\t")):
                assert now == was, f"{' '.join(map(str, row))}: {field} is {now}, ledger {was}"
