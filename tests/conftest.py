from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from toricstab import Fan  # noqa: E402


@pytest.fixture(scope="session")
def p2() -> Fan:
    return Fan.make([[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [2, 0]])


@pytest.fixture(scope="session")
def f1() -> Fan:
    return Fan.make(
        [[1, 0], [0, 1], [-1, -1], [1, 1]], [[0, 3], [3, 1], [1, 2], [2, 0]]
    )


@pytest.fixture(scope="session")
def p1xp1() -> Fan:
    return Fan.make(
        [[1, 0], [0, 1], [-1, 0], [0, -1]], [[0, 1], [1, 2], [2, 3], [3, 0]]
    )


@pytest.fixture(scope="session")
def p3() -> Fan:
    return Fan.make(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
        [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
    )


@pytest.fixture(scope="session")
def surfaces(p2, f1, p1xp1):
    return {"p2": p2, "f1": f1, "p1xp1": p1xp1}


@pytest.fixture(scope="session")
def problems_dir() -> Path:
    return Path(__file__).resolve().parent.parent / "problems"


@pytest.fixture(scope="session")
def src_env() -> dict:
    """The environment of a fresh interpreter that imports toricstab from src/."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))


@pytest.fixture(scope="session")
def run_optimized(src_env):
    """Run a Python script under `python -O` (asserts stripped) against src/."""

    def run(script: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=src_env
        )

    return run
