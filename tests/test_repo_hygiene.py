"""Repository hygiene: nothing git tracks may match an ignore rule."""

import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_no_tracked_file_is_ignored():
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("needs git and a git checkout")
    out = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == ""
