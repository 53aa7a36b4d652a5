"""The README's Python snippets run as written against the current API."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)


def test_every_python_fence_is_found():
    assert BLOCKS and len(BLOCKS) == TEXT.count("```python")


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_snippet_runs(source):
    exec(compile(source, str(README), "exec"), {})
