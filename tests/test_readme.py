"""The README's examples print what the README says they print."""

import re
import shlex
from pathlib import Path

from hopfcyclic.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def fenced_block(after: str, lang: str = "") -> str:
    """The body of the first ```lang fenced block after the line `after`."""
    text = README.read_text(encoding="utf-8")
    match = re.compile(rf"^```{lang}\n(.*?)^```", re.S | re.M).search(text, text.index(after))
    return match.group(1)


def test_python_quick_start_prints_its_comments(capsys):
    code = fenced_block("## Quick start (Python)", "python")
    expected = [line.rsplit("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    assert expected == ["True", "True", "[2, 0, 2, 0]"]
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected


def test_sample_cli_output_is_what_hcc_prints(capsys, monkeypatch):
    command, *output = fenced_block("Sample output:").splitlines()
    assert command.startswith("$ hcc ")
    monkeypatch.chdir(ROOT)
    assert main(shlex.split(command[len("$ hcc "):])) == 0
    assert capsys.readouterr().out == "\n".join(output) + "\n"
