"""The README's python snippets run, and each prints what its comment says."""

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_prints_its_comments(index):
    source = BLOCKS[index]
    # the trailing comment of each print line is the line it prints
    expected = [
        line.rsplit("#", 1)[1].strip()
        for line in source.splitlines()
        if line.lstrip().startswith("print(")
    ]
    assert expected and all(expected)
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(source, f"README block {index}", "exec"), {})
    assert out.getvalue().splitlines() == expected
