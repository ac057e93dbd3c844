"""The README's library sketch and its ``prox``/``spectrum`` command lines run."""

import re
import shlex
from pathlib import Path

import pytest

from proxinv.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


# region and oracle lines are left out: a grid-400 h1 prox-map takes seconds,
# and test_cli.py and acceptance 07 cover those commands
COMMANDS = [
    line
    for block in fenced("sh")
    for line in block.splitlines()
    if line.startswith(("proxinv prox ", "proxinv spectrum "))
]


def test_library_sketch_runs():
    (sketch,) = fenced("python")
    exec(compile(sketch, "README.md", "exec"), {})


def test_command_lines_found():
    assert len(COMMANDS) == 4


@pytest.mark.parametrize("line", COMMANDS)
def test_command_line_runs(line, capsys):
    assert main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().out
