"""Argument handling of the scripts under ``scripts/``."""

import glob
import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, "scripts", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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

    @pytest.mark.parametrize("argv", [[], ["a", "b"], ["-x"], ["--label"], ["a/b"], ["a b"], [""]])
    def test_bad_label_exits_2(self, ladder, tmp_path, capsys, argv):
        assert ladder.main(argv) == 2
        assert "Usage:" in capsys.readouterr().err
        assert not self.written(tmp_path)
