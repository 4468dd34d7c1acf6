"""Every `$ plottmatch ...` transcript in README.md, replayed byte for byte."""

from __future__ import annotations

import shlex
from pathlib import Path

import pytest

from plottmatch.cli import main

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


@pytest.mark.parametrize("args,expected", TRANSCRIPTS, ids=[a for a, _ in TRANSCRIPTS])
def test_readme_transcript(args, expected, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = main(shlex.split(args))
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == expected
