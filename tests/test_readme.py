"""The README's examples run as written: every command of its CLI block
exits 0, and its library example prints what its comments say."""

import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import run_cli

README = (Path(__file__).parents[1] / "README.md").read_text()


def _block(heading: str, language: str) -> str:
    """The first fenced block of the language under a '## ' heading."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


CLI_COMMANDS = [shlex.split(line)[1:] for line in _block("CLI", "sh").splitlines() if line.startswith("opgraph ")]


def test_readme_lists_cli_commands():
    assert len(CLI_COMMANDS) >= 5
    assert {args[0] for args in CLI_COMMANDS} == {"verify", "sweep", "demo"}


@pytest.mark.parametrize("args", CLI_COMMANDS, ids=[" ".join(args) for args in CLI_COMMANDS])
def test_readme_cli_command_exits_zero(args):
    result = run_cli(*args)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout


def test_readme_library_example_prints_its_comments():
    result = subprocess.run(
        [sys.executable, "-c", _block("Library example", "python")], capture_output=True, text=True, timeout=600
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["3969", "True"]
