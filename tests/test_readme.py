"""The README's Library snippet runs, and the README documents every name
the package root exports, so README and __all__ cannot drift apart."""

import re
from pathlib import Path

import decycling

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
