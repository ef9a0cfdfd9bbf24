"""README's CLI examples run as written: a flag they name must still exist."""

import re
import shlex
from pathlib import Path

from leakmit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[str]:
    """The ``leakmit`` lines of the README code block that holds them, with
    ``\\`` continuations joined."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    (block,) = [b for b in blocks if "\nleakmit " in "\n" + b]
    lines = block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("leakmit ")]


def test_readme_examples_exit_0(tmp_path, monkeypatch):
    commands = readme_commands()
    assert len(commands) == 9
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert main(shlex.split(command)[1:]) == 0, command
