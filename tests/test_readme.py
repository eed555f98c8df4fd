"""The README's python snippets run, and each prints what its comment says;
its command-line section documents exactly the parser's flags."""

import argparse
import io
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from geneograph.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
COMMAND_LINE = README.read_text(encoding="utf-8").split("## Command line\n", 1)[1].split("\n## ", 1)[0]
FLAG = r"(?<![\w-])--[a-z][\w-]*"


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


def own_flags(parser):
    return {s for a in parser._actions for s in a.option_strings if s.startswith("--")} - {"--help"}


def all_flags(parser):
    """The long options of the parser and of every subcommand below it."""
    flags = own_flags(parser)
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= all_flags(sub)
    return flags


def test_readme_flags_exist():
    documented = set(re.findall(FLAG, COMMAND_LINE))
    assert documented and documented <= all_flags(build_parser())


def test_readme_global_flags_are_the_parsers():
    sentence = re.search(r"Global flags:(.*?)\.\s", COMMAND_LINE, re.S).group(1)
    assert set(re.findall(FLAG, sentence)) == own_flags(build_parser())
