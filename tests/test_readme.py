"""README.md's examples, replayed: the ``$ vislab`` transcripts through
``cli.run`` and the values the library tour gives in its comments, so the
README cannot drift from what the program prints; and README names every
committed benchmark file."""

import ast
import glob
import io
import os
import shlex

from vislab.cli import run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")


def code_blocks(lang):
    """The fenced blocks of README.md opened with ``lang``, as line lists."""
    blocks, block, opener = [], [], None
    with open(README, encoding="utf-8") as handle:
        for line in handle.read().splitlines():
            if opener is None:
                if line.startswith("```"):
                    opener, block = line[3:], []
            elif line == "```":
                if opener == lang:
                    blocks.append(block)
                opener = None
            else:
                block.append(line)
    return blocks


def test_cli_transcripts():
    replayed = 0
    for block in code_blocks(""):
        if not block[0].startswith("$ vislab ") or "..." in block:
            continue  # an install line, or a transcript cut short
        out = ""
        for stage in block[0][2:].split(" | "):
            argv = shlex.split(stage)
            assert argv[0] == "vislab", block[0]
            stdout, stderr = io.StringIO(), io.StringIO()
            assert run(argv[1:], stdin=io.StringIO(out), stdout=stdout, stderr=stderr) == 0, stage
            out = stdout.getvalue()
        assert out.splitlines() == block[1:], block[0]
        replayed += 1
    assert replayed == 4


def test_library_tour_values():
    # each line "expression  # literal" of the python blocks must evaluate
    # to the literal; comments that are not literals are prose
    scope = {}
    pinned = 0
    for block in code_blocks("python"):
        for line in block:
            code, _, comment = line.partition("#")
            if not code.strip():
                continue
            try:
                want = ast.literal_eval(comment.strip())
            except (ValueError, SyntaxError):
                exec(code, scope)
                continue
            assert eval(code, scope) == want, line
            pinned += 1
    assert pinned == 5


def test_names_every_bench_file():
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    files = [os.path.basename(p) for p in glob.glob(os.path.join(ROOT, "BENCH_*.json"))]
    assert files
    assert [f for f in sorted(files) if f"`{f}`" not in text] == []
