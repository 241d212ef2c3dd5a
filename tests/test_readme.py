"""The README's command-line walkthrough runs as documented, on a smaller universe."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from trendlab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
# The walkthrough's sizes, shrunk so its chain runs in seconds.
SHRUNK = {"--stocks": "2", "--days": "900", "--n-estimators": "5"}


def walkthrough_commands() -> list[list[str]]:
    """The arguments of each ``trendlab`` line in the sh block of the walkthrough section."""
    section = README.read_text(encoding="utf-8").split("## Command-line walkthrough", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines]
    return [words[1:] for words in commands if words[:1] == ["trendlab"]]


def test_readme_walkthrough_runs(tmp_path, monkeypatch):
    commands = walkthrough_commands()
    assert {argv[0] for argv in commands} == {
        "synth", "prepare", "train", "backtest", "baseline"
    }
    assert all(any(flag in argv for argv in commands) for flag in SHRUNK)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        argv = [SHRUNK.get(flag, word) for flag, word in zip(["", *argv], argv)]
        assert main(argv) == 0, argv
