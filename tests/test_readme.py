"""The README's code examples run as documented."""

import shlex
from pathlib import Path

from unclab.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"


def _code_block(heading: str) -> str:
    """Body of the first fenced block under the ``## heading`` section."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    fenced = section.split("```", 2)[1]
    return fenced.split("\n", 1)[1]  # drop the info string line


def test_library_tour_runs():
    exec(compile(_code_block("Library tour"), str(README), "exec"), {})


def test_cli_examples_exit_zero(tmp_path):
    commands = [
        shlex.split(line, comments=True)
        for line in _code_block("CLI").splitlines()
        if line.strip()
    ]
    assert commands and all(argv[0] == "unclab" for argv in commands)
    for argv in commands:
        argv = argv[1:]
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = str(tmp_path / argv[i])
        assert main(argv) == EXIT_OK, argv
