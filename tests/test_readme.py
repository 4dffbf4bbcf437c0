"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

from bihomcheck.cli import main, save_instance
from bihomcheck.fixtures import example_instance

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    section = README.split(f"## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_quick_start():
    exec(_block("Library quick start", "python"), {})


def test_cli_lines(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_instance("c3.json", example_instance())
    lines = [line for line in _block("CLI", "sh").splitlines() if line.startswith("bihom ")]
    assert len(lines) >= 8
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
