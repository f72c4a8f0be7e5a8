"""The README's Library snippet and its command-line block run, and the
README documents every name the package root exports, so README, CLI and
__all__ cannot drift apart."""

import re
import shlex
from pathlib import Path

import decycling
from decycling.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_snippet() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_snippet_runs():
    exec(compile(_library_snippet(), str(README), "exec"), {})


def test_readme_and_all_name_the_same_api():
    imported = re.search(
        r"from decycling import \((.*?)\)", _library_snippet(), re.S
    ).group(1)
    assert {name.strip() for name in imported.split(",") if name.strip()} <= set(
        decycling.__all__
    )
    text = README.read_text(encoding="utf-8")
    assert [name for name in decycling.__all__ if f"`{name}`" not in text] == []
    assert all(hasattr(decycling, name) for name in decycling.__all__)


def _fenced_block(heading: str) -> str:
    section = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    return re.search(r"```\n(.*?)```", section, re.S).group(1)


def test_readme_command_line_block_runs_in_order(tmp_path, monkeypatch, capsys):
    (tmp_path / "graph.txt").write_text(_fenced_block("### Edge-list input"), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DECYCLING_NODE_BUDGET", raising=False)
    lines = [shlex.split(line, comments=True)
             for line in _fenced_block("## Command line").splitlines()]
    assert lines and all(words[0] == "decycling" for words in lines)
    for words in lines:
        code = main(words[1:])
        assert code == 0, (words, capsys.readouterr().err)
