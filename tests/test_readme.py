"""The README's examples, run and compared with the output the README shows.

The library quick-start is run line by line: a line that is an expression
with a trailing comment must evaluate to what the comment shows.  The
command-line transcript is run as a fresh process against src/ and its
first lines must match the transcript exactly.
"""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def fenced_blocks(lang: str) -> list[str]:
    """Bodies of the README's fenced code blocks opened with ```lang."""
    blocks, body, opened = [], None, None
    for line in README.splitlines():
        if not line.startswith("```"):
            if body is not None:
                body.append(line)
        elif body is None:
            body, opened = [], line[3:]
        else:
            if opened == lang:
                blocks.append("\n".join(body))
            body = None
    return blocks


def shows(value, comment: str) -> bool:
    """Whether the comment starts with the value, as repr or as comma-separated str."""
    text = ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)
    return comment == repr(value) or re.fullmatch(re.escape(text) + r"(, .*)?", comment) is not None


def test_library_quick_start():
    (block,) = fenced_blocks("python")
    namespace: dict = {}
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("  # ")
        try:
            expression = compile(code.strip(), "README.md", "eval")
        except SyntaxError:
            exec(line, namespace)
            continue
        value = eval(expression, namespace)
        if comment:
            assert shows(value, comment.strip()), f"{code.strip()} gives {value!r}, README: {comment}"
            checked += 1
    assert checked >= 4


def test_delta_transcript():
    (block,) = [b for b in fenced_blocks("") if b.startswith("$ toricstab ")]
    command, *shown = block.splitlines()
    argv, _, head = command[2:].partition(" | head -")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))
    result = subprocess.run(
        [sys.executable, "-m", "toricstab.cli", *shlex.split(argv)[1:]],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    assert len(shown) == int(head)
    assert result.stdout.splitlines()[: int(head)] == shown
