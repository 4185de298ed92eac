"""The README's examples run as written.

The ``python`` block is executed as is; each command-line example
followed by a ``# -> text`` comment is run through ``cli.main`` and
its first line of output compared with that text.
"""

import re
import shlex
from pathlib import Path

import pytest

from triplehodge.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def _annotated_commands() -> list[tuple[str, str]]:
    pairs = []
    for block in _blocks("sh"):
        lines = block.splitlines()
        for command, note in zip(lines, lines[1:]):
            if note.startswith("# -> "):
                pairs.append((command, note[len("# -> "):]))
    return pairs


def test_readme_python_example_runs(capsys):
    (code,) = _blocks("python")
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_readme_annotates_the_expected_commands():
    assert [cmd for cmd, _ in _annotated_commands()] == [
        "triplehodge compute criticals --g 2 --d1 5 --d2 0",
        "triplehodge compute proj --n 3",
    ]


@pytest.mark.parametrize("command,expected", _annotated_commands())
def test_readme_command_prints_its_annotation(capsys, command, expected):
    argv = shlex.split(command)
    assert argv[0] == "triplehodge"
    assert main(argv[1:]) == 0
    assert capsys.readouterr().out.splitlines()[0] == expected
