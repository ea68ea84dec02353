"""Every documented ``repro`` invocation parses.

Collects each ``repro ...`` / ``python -m repro ...`` command from the
fenced blocks of README.md and docs/*.md and from the CI workflow, and
runs it through ``build_parser().parse_args`` (parse only, nothing
executes).  A flag that is renamed or removed while a doc or a CI step
still uses it fails here instead of after merge.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]

# A command line: an optional "$ " prompt or CI "run:" key, environment
# assignments, an optional "python -m", then "repro".
COMMAND = re.compile(
    r"^\s*(?:-\s*)?(?:run:\s*)?(?:\$\s+)?(?:[A-Z_]+=\S*\s+)*"
    r"(?:python3?\s+-m\s+)?repro\s"
)
# Shell variables a CI loop sets, and a value each one takes there.
SHELL_VARIABLES = {"workers": "2"}
# Tokens that end the command: pipes, redirections, command lists.
STOP = {"|", "||", "&&", ";", ">", ">>", "2>", "<"}


def _joined(lines):
    """Lines with backslash continuations joined, numbered from 1."""
    pending, start = "", None
    for number, line in enumerate(lines, start=1):
        start = start or number
        if line.rstrip().endswith("\\"):
            pending += line.rstrip()[:-1] + " "
            continue
        yield start, pending + line
        pending, start = "", None


def _fenced(text: str):
    """The text's lines, blanked outside fenced code blocks."""
    inside = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            inside = not inside
            yield ""
        else:
            yield line if inside else ""


def _argv(command: str) -> list:
    tokens = shlex.split(
        re.sub(
            r"\$\{?(\w+)\}?",
            lambda match: SHELL_VARIABLES[match.group(1)],
            command,
        ),
        comments=True,
    )
    argv = tokens[tokens.index("repro") + 1:]
    for index, token in enumerate(argv):
        if token in STOP or token.startswith(">"):
            return argv[:index]
    return argv


def documented_invocations() -> list:
    """(``file:line``, argv) of every documented invocation."""
    sources = [
        (path, list(_fenced(path.read_text())))
        for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
    ]
    ci = ROOT / ".github" / "workflows" / "ci.yml"
    sources.append((ci, ci.read_text().splitlines()))
    found = []
    for path, lines in sources:
        for number, line in _joined(lines):
            if COMMAND.match(line):
                found.append(
                    (f"{path.relative_to(ROOT)}:{number}", _argv(line))
                )
    return found


INVOCATIONS = documented_invocations()


def test_the_docs_and_ci_document_invocations():
    files = {where.split(":")[0] for where, _ in INVOCATIONS}
    assert len(INVOCATIONS) >= 40
    assert "README.md" in files and ".github/workflows/ci.yml" in files


@pytest.mark.parametrize(
    "argv", [argv for _, argv in INVOCATIONS],
    ids=[where for where, _ in INVOCATIONS],
)
def test_documented_invocation_parses(argv):
    build_parser().parse_args(argv)
