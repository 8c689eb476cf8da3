"""Repository hygiene: nothing git tracks may match an ignore rule,
every function the benchmark traces exists, every public name resolves,
every private module-level name is used, the package reads no
environment variables, importing the CLI builds no parser and loads no
module it does not need, the CLI reads no private name of the numerics,
each input rule is written once, the README's library example runs, the
package version is the one pyproject.toml declares, and its test extra
names every package the tests import through importorskip."""

import ast
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
    # a deleted function left in __all__ would fail only `import *`, and
    # one left among the imports would stay reachable but unlisted
    names = circbridge.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(circbridge, n)] == []
    tree = ast.parse((ROOT / "src" / "circbridge" / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for stmt in tree.body
        if isinstance(stmt, ast.ImportFrom)
        for alias in stmt.names
    ]
    assert imported
    assert [n for n in imported if not n.startswith("_") and n not in names] == []


def _private_names_defined(stmt):
    # the _single-underscore names a module-level statement binds
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _names_read(stmt):
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(stmt)
        if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)) or isinstance(n, ast.Attribute)
    }


def test_every_private_name_is_used():
    # a helper that a simplification leaves behind is dead code; a use
    # inside the name's own definition (recursion) does not count
    defined, reads = [], []
    for path in sorted((ROOT / "src" / "circbridge").rglob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            where = "%s:%d" % (path.relative_to(ROOT), stmt.lineno)
            defined += [(name, where) for name in _private_names_defined(stmt)]
            reads.append((where, _names_read(stmt)))
    assert defined
    dead = [
        "%s %s" % (where, name)
        for name, where in defined
        if not any(name in names for other, names in reads if other != where)
    ]
    assert dead == []


def test_cli_imports_no_private_numerics():
    # the front end parses, formats and dispatches; the kernels' limits,
    # the grid loops and their value-only cores stay behind the public
    # functions of backend, expansions and oracle
    tree = ast.parse((ROOT / "src" / "circbridge" / "cli.py").read_text())
    numerics = {"backend", "expansions", "oracle"}
    private = [
        "%s.%s" % (stmt.module, alias.name)
        for stmt in ast.walk(tree)
        if isinstance(stmt, ast.ImportFrom) and stmt.module is not None
        and stmt.module.split(".")[-1] in numerics
        for alias in stmt.names
        if alias.name.startswith("_")
    ]
    private += [
        "%s.%s" % (n.value.id, n.attr)
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
        and n.value.id in numerics and n.attr.startswith("_")
    ]
    assert private == []


def _is_math_inf(node):
    return (isinstance(node, ast.Attribute) and node.attr == "inf"
            and isinstance(node.value, ast.Name) and node.value.id == "math")


def _is_finite_check(node):
    # -math.inf < ... < math.inf
    return (isinstance(node, ast.Compare) and isinstance(node.left, ast.UnaryOp)
            and isinstance(node.left.op, ast.USub) and _is_math_inf(node.left.operand)
            and _is_math_inf(node.comparators[-1]))


def test_each_input_rule_is_written_once():
    # "must be finite" is distributions._require_finite, and kappa's domain
    # is the per-kappa kernel's check in backend.i0e_sigma2, so that each
    # rule has one message and only the kernel names its bound
    helper, inline, kappa_rule, kappa_bound = [], [], [], []
    for path in sorted((ROOT / "src" / "circbridge").rglob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        inside = {
            id(n)
            for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and f.name == "_require_finite"
            for n in ast.walk(f)
        }
        for n in ast.walk(tree):
            if _is_finite_check(n):
                where = "%s:%d" % (path.relative_to(ROOT).as_posix(), n.lineno)
                (helper if id(n) in inside else inline).append(where)
        if "kappa must be finite" in text:
            kappa_rule.append(path.name)
        if "_KAPPA_MAX" in text:
            kappa_bound.append(path.name)
    assert [h.split(":")[0] for h in helper] == ["src/circbridge/distributions.py"]
    assert inline == []
    assert kappa_rule == ["backend.py"]
    assert kappa_bound == ["backend.py"]


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})


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


# the modules that `import circbridge.cli` plus one build_parser() must not
# load, then whether json is loaded after one --format json run
IMPORT_GUARD_PROBE = """
import os, sys
import circbridge.cli
circbridge.cli.build_parser()
heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize", "json", "typing")
print(",".join(m for m in heavy if m in sys.modules) or "none")
argv = ["eval", "--mu", "0", "--kappa", "50", "--x", "0.1", "--quantity", "density"]
code = circbridge.cli.run(argv + ["--format", "json", "--out", os.devnull])
print(code, "json" in sys.modules)
"""


def test_importing_cli_loads_no_heavy_module(cli_env):
    # setup_s is mostly imports: dataclasses alone pulls in inspect, ast,
    # dis and tokenize.  -S keeps site (and any .pth it runs) from
    # preloading modules, as on an interpreter without extras
    out = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_GUARD_PROBE],
        env=cli_env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split("\n")[:2] == ["none", "0 True"]


def test_version_matches_pyproject():
    # the version is written twice, in the package and in its metadata
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert circbridge.__version__ == project["version"]


def test_test_extra_names_every_importorskip():
    # `pip install -e .[test]` must install what the tests skip without,
    # or those tests skip without a word
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as f:
        extra = tomllib.load(f)["project"]["optional-dependencies"]["test"]
    named = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_") for req in extra}
    skipped = {
        call.args[0].value.split(".")[0]
        for path in sorted((ROOT / "tests").glob("*.py"))
        for call in ast.walk(ast.parse(path.read_text()))
        if isinstance(call, ast.Call)
        and getattr(call.func, "attr", getattr(call.func, "id", None)) == "importorskip"
        and call.args
        and isinstance(call.args[0], ast.Constant)
    }
    assert skipped
    assert sorted(skipped - set(sys.stdlib_module_names) - named) == []
