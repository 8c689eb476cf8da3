"""Repository hygiene: nothing git tracks may match an ignore rule,
every function the benchmark traces exists, every public name resolves,
the package reads no environment variables, and importing the CLI builds
no parser."""

import importlib
import importlib.util
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import circbridge

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


def test_benchmark_traces_existing_functions():
    # a renamed or deleted function would silently drop out of the
    # per-layer benchmark, which wraps only what it finds
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        "%s.%s" % (module, fn)
        for _layer, module, fn in tracing.TRACED
        if not callable(getattr(importlib.import_module(module), fn, None))
    ]
    assert missing == []


def test_public_names_resolve():
    # a deleted function left in __all__ would fail only `import *`
    names = circbridge.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(circbridge, n)] == []


def test_package_reads_no_environment():
    # every setting is a command-line option, so --help lists them all
    pattern = re.compile(r"\benviron\b|\bgetenv\b")
    hits = [
        "%s:%d" % (path.relative_to(ROOT), n)
        for path in sorted((ROOT / "src" / "circbridge").rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert hits == []


# counts ArgumentParser constructions across `import circbridge.cli`, then
# across one build_parser() to show that the count sees a build at all
IMPORT_BUILDS_PROBE = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
import circbridge.cli
at_import = len(built)
circbridge.cli.build_parser()
print(at_import, len(built) > at_import)
"""


def test_importing_cli_builds_no_parser(cli_env):
    # the benchmark's setup_s times the import plus one build_parser(); a
    # parser built at import would be paid twice there
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_BUILDS_PROBE],
        env=cli_env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == ["0", "True"]
