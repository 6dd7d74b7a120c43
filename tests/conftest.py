"""Fixtures shared by more than one test module."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def readme_command_lines() -> list[list[str]]:
    """Each line of README's command-line block, split as a shell would."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]


@pytest.fixture(scope="session")
def run_cli():
    """run_cli(*args, hash_seed="0") runs `python -m euclidkit *args` in a new
    interpreter under that PYTHONHASHSEED and returns the finished process."""

    def run(*args, hash_seed="0"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        return subprocess.run(
            [sys.executable, "-m", "euclidkit", *args], capture_output=True, text=True, env=env
        )

    return run
