"""The command lines of README.md run as written."""

import shlex
from pathlib import Path

import pytest

from isoflag.cases import COUNT_CASES
from isoflag.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_block(heading):
    """The non-blank lines of the first fenced block under ``## heading``."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return [line.strip() for line in section.split("```\n", 2)[1].splitlines()
            if line.strip()]


@pytest.mark.parametrize("line", fenced_block("Command line"))
def test_command_line_block_runs(line, capsys):
    argv = shlex.split(line)
    assert argv[0] == "isoflag"
    assert main(argv[1:]) == 0


def count_line(case):
    """The ``isoflag count`` line that runs ``case``."""
    words = ["isoflag", "count", "--type", case.group_type]
    if case.shape is None:
        words += ["--n", str(case.n)]
    else:
        words += ["--shape", ",".join(map(str, case.shape.parts))]
        if case.shape.kappa:
            words += ["--kappa", str(case.shape.kappa)]
    words += ["--q", str(case.q)]
    if case.gamma is not None:
        words += ["--gamma", ",".join(map(str, case.gamma))]
    return " ".join(words)


def test_experiments_block_lists_the_registry():
    assert fenced_block("Experiments") == [
        "isoflag sweep", *map(count_line, COUNT_CASES)]
