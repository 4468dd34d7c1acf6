"""README.md replayed: every `$ plottmatch ...` transcript byte for byte, and its library example."""

from __future__ import annotations

import argparse
import shlex
from pathlib import Path

import pytest

from plottmatch.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent


def _transcripts() -> list[tuple[str, str]]:
    """(arguments, expected stdout) for each `$ plottmatch` line of the README.

    A transcript's output is every line after its command, up to the next
    command or the end of the fenced block.
    """
    transcripts = []
    current = None
    in_block = False
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_block = not in_block
            current = None
        elif in_block and line.startswith("$ plottmatch "):
            current = []
            transcripts.append((line[len("$ plottmatch "):], current))
        elif current is not None:
            current.append(line)
    return [(args, "".join(f"{x}\n" for x in lines)) for args, lines in transcripts]


TRANSCRIPTS = _transcripts()


def test_the_readme_has_its_transcripts():
    assert len(TRANSCRIPTS) == 9


def test_every_command_has_a_transcript():
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    commands = {shlex.split(args)[0] for args, _ in TRANSCRIPTS}
    assert len(sub.choices) == 8
    assert set(sub.choices) == commands


@pytest.mark.parametrize("args,expected", TRANSCRIPTS, ids=[a for a, _ in TRANSCRIPTS])
def test_readme_transcript(args, expected, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = main(shlex.split(args))
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == expected


def test_the_readme_library_example_runs(monkeypatch):
    blocks = (ROOT / "README.md").read_text().split("```python\n")[1:]
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)
    exec(compile(blocks[0].split("```")[0], "README.md", "exec"), {})
